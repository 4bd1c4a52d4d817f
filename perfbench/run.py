"""The repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8_duopoly|grid_1e5|serve_mixed \\
        --seed N --seconds S --trace 0|1

Every repetition is a cold start in a fresh process: a library worker
(``worker.py``) or a fresh ``repro-netneutrality serve`` server.  Extra
set-up-only starts give ``setup_s`` enough samples for a median.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (per stage of a
repetition its fastest time, summed; see ``fastest_stages``), and
``setup_s`` and ``peak_rss_mb`` (medians).  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, which the
traced ones record through the wrappers in ``tracing.py``; see README.md for
their definitions.  Human-readable lines come first; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check fails and 2 when the repository
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import serve  # noqa: E402  (benchmark-local modules)
import workloads  # noqa: E402

WORKLOADS = ("fig8_duopoly", "grid_1e5", "serve_mixed")
#: Set-up-only starts per run, on top of one per measured repetition.
SETUP_PROBES = 5
#: Repetitions per run however short ``--seconds`` is (per kind when traced).
MIN_REPETITIONS = 2
WORKER_TIMEOUT = 100.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CACHES = ("equilibria", "class_caps", "maxmin_profiles", "partition_outcomes",
          "service_populations")
#: Every per-layer metric and its unit; a layer a workload does not reach
#: reports 0.
LAYER_UNITS: Dict[str, str] = {
    "populations.build_s": "s",
    "provider.subset_calls": "count",
    "provider.subset_s": "s",
    "equilibrium.solve_cap_calls": "count",
    "equilibrium.solve_cap_s": "s",
    "equilibrium.carried_scalar_calls": "count",
    "equilibrium.evals_per_solve": "evals/solve",
    "equilibrium.solve_caps_calls": "count",
    "equilibrium.solve_caps_points": "count",
    "equilibrium.solve_caps_s": "s",
    "equilibrium.carried_grid_calls": "count",
    "equilibrium.profile_builds": "count",
    "equilibrium.profile_build_s": "s",
    **{f"cache.{name}.{field}": unit for name in CACHES
       for field, unit in (("hits", "count"), ("misses", "count"),
                           ("hit_ratio", "ratio"), ("evictions", "count"))},
    "cp_game.equilibrium_calls": "count",
    "cp_game.equilibrium_s": "s",
    "cp_game.iterations": "count",
    "cp_game.unconverged": "count",
    "migration.splits": "count",
    "migration.split_s": "s",
    "migration.share_probes": "count",
    "migration.bisection_steps": "count",
    "duopoly.capacity_sweep_s": "s",
    "batch.solve_calls": "count",
    "batch.solve_s": "s",
    "batch.grid_points": "count",
    "batch.warm_calls": "count",
    "batch.warm_s": "s",
    "batch.aggregates_s": "s",
    "artifacts.serialize_s": "s",
    "artifacts.bytes": "bytes",
    "protocol.parse_s": "s",
    "protocol.serialize_s": "s",
    "protocol.response_bytes": "bytes",
    "scheduler.solve_s": "s",
    "scheduler.window_wait_ms": "ms",
    "scheduler.engine_s": "s",
    "scheduler.batches": "count",
    "scheduler.fused_batch_size": "requests/batch",
    "scheduler.coalesce_rate": "ratio",
    "server.io_ms": "ms",
    "client.throughput_rps": "1/s",
    "client.latency_p50_ms": "ms",
    "client.latency_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}
#: Per-layer metrics read straight off a tracer report:
#: metric -> (``self_s`` | ``calls`` | ``counts``, traced name).
TRACE_METRICS: Dict[str, tuple[str, str]] = {
    "populations.build_s": ("self_s", "populations.build"),
    "provider.subset_calls": ("calls", "provider.subset"),
    "provider.subset_s": ("self_s", "provider.subset"),
    "equilibrium.solve_cap_calls": ("calls", "equilibrium.solve_cap"),
    "equilibrium.solve_cap_s": ("self_s", "equilibrium.solve_cap"),
    "equilibrium.carried_scalar_calls": ("calls", "equilibrium.carried_scalar"),
    "equilibrium.solve_caps_calls": ("calls", "equilibrium.solve_caps"),
    "equilibrium.solve_caps_points":
        ("counts", "equilibrium.solve_caps_points"),
    "equilibrium.solve_caps_s": ("self_s", "equilibrium.solve_caps"),
    "equilibrium.carried_grid_calls": ("calls", "equilibrium.carried_grid"),
    "equilibrium.profile_builds": ("calls", "equilibrium.profile_build"),
    "equilibrium.profile_build_s": ("self_s", "equilibrium.profile_build"),
    "cp_game.equilibrium_calls": ("calls", "cp_game.equilibrium"),
    "cp_game.equilibrium_s": ("self_s", "cp_game.equilibrium"),
    "cp_game.iterations": ("counts", "cp_game.iterations"),
    "cp_game.unconverged": ("counts", "cp_game.unconverged"),
    "migration.splits": ("calls", "migration.split"),
    "migration.split_s": ("self_s", "migration.split"),
    "migration.share_probes": ("calls", "migration.share_probe"),
    "migration.bisection_steps": ("counts", "migration.bisection_steps"),
    "duopoly.capacity_sweep_s": ("self_s", "duopoly.capacity_sweep"),
    "batch.solve_calls": ("calls", "batch.solve"),
    "batch.solve_s": ("self_s", "batch.solve"),
    "batch.grid_points": ("counts", "batch.grid_points"),
    "batch.warm_calls": ("calls", "batch.warm"),
    "batch.warm_s": ("self_s", "batch.warm"),
    "batch.aggregates_s": ("self_s", "batch.aggregates"),
    "artifacts.serialize_s": ("self_s", "artifacts.serialize"),
    "artifacts.bytes": ("counts", "artifacts.bytes"),
}
#: Counts that must repeat exactly between traced runs of one seed.
DETERMINISTIC = ("equilibrium.solve_cap_calls",
                 "equilibrium.carried_scalar_calls", "provider.subset_calls",
                 "migration.share_probes", "migration.bisection_steps",
                 *[f"cache.{name}.{field}" for name in CACHES
                   for field in ("hits", "misses")])


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def quartiles(values: List[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def fastest_stages(stage_lists: List[List[float]]) -> float:
    """Time to solution with every stage at its fastest repetition.

    The repetitions of one run do the same work, cut into the same
    contiguous stages.  On a shared machine the CPU's speed can swing by
    40% within seconds, so a whole repetition's time depends on when it
    ran; the fastest time of each short stage barely does.
    """
    return sum(min(column) for column in zip(*stage_lists))


def describe(name: str, values: List[float], unit: str, what: str) -> None:
    q1, median, q3 = quartiles(values)
    print(f"  {name:<15} median {median:.6g} {unit}  "
          f"(q1 {q1:.6g}, q3 {q3:.6g}; n={len(values)} {what})")


def describe_wall(wall: float, stages: List[float], walls: List[float],
                  what: str) -> None:
    q1, median, q3 = quartiles(walls)
    print(f"  {'wall_s':<15} {wall:.6g} s  (sum of the fastest of "
          f"n={len(walls)} {what} for each of {len(stages)} stages; whole "
          f"{what}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g})")


class Deadline:
    """Decides whether another repetition fits into ``--seconds``."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds
        self.durations: List[float] = []

    def more(self, done: int, minimum: int) -> bool:
        if done < minimum:
            return True
        typical = statistics.median(self.durations) if self.durations else 0.0
        return time.monotonic() + 0.5 * typical < self.end

    def timed(self, function: Callable[[], Any]) -> Any:
        started = time.monotonic()
        try:
            return function()
        finally:
            self.durations.append(time.monotonic() - started)


# ---------------------------------------------------------------------- #
# Library workloads
# ---------------------------------------------------------------------- #
def run_worker(workload: str, seed: int, mode: str, trace: bool
               ) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
               mode]
    if trace:
        command.append("--trace")
    started = time.monotonic()
    completed = subprocess.run(command, cwd=ROOT, env=child_env(),
                               stdin=subprocess.DEVNULL,
                               capture_output=True, timeout=WORKER_TIMEOUT)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with "
                           f"{completed.returncode}: "
                           f"{completed.stderr.decode()[-2000:]}")
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def trace_layers(trace: Dict[str, Any],
                 caches: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics one traced repetition's totals give directly."""
    metrics = {metric: trace[table].get(name, 0)
               for metric, (table, name) in TRACE_METRICS.items()}
    solves = metrics["equilibrium.solve_cap_calls"]
    metrics["equilibrium.evals_per_solve"] = (
        metrics["equilibrium.carried_scalar_calls"] / solves if solves else 0.0)
    metrics.update(cache_layers(caches))
    return metrics


def library_layers(report: Dict[str, Any]) -> Dict[str, float]:
    metrics = trace_layers(report["trace"], report["caches"])
    timed = sum(value for name, value in report["trace"]["self_s"].items()
                if name != "populations.build")
    metrics["trace.coverage_pct"] = 100.0 * timed / report["wall_s"]
    return metrics


def cache_layers(caches: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    metrics = {}
    for name in CACHES:
        stats = caches.get(name, {})
        metrics[f"cache.{name}.hits"] = stats.get("hits", 0)
        metrics[f"cache.{name}.misses"] = stats.get("misses", 0)
        metrics[f"cache.{name}.hit_ratio"] = stats.get("hit_rate", 0.0)
        metrics[f"cache.{name}.evictions"] = (
            stats.get("evictions_maxsize", 0) + stats.get("evictions_bytes", 0)
            + stats.get("expirations", 0))
    return metrics


def run_library(workload: str, seed: int, seconds: float, trace: bool
                ) -> Dict[str, Any]:
    run_worker(workload, seed, "setup", False)  # warm-up, not measured
    deadline = Deadline(seconds)
    setups = [run_worker(workload, seed, "setup", False)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    minimum = 2 * MIN_REPETITIONS if trace else MIN_REPETITIONS
    while deadline.more(len(plain) + len(traced), minimum):
        with_trace = trace and len(traced) < len(plain)
        try:
            report = deadline.timed(
                lambda: run_worker(workload, seed, "run", with_trace))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
            report = {"failures": [f"run did not complete: {error}"]}
        (traced if with_trace else plain).append(report)
    runs = plain + traced
    failures = [failure for report in runs for failure in report["failures"]]
    failed = sum(1 for report in runs if report["failures"])
    plain = [report for report in plain if "wall_s" in report]
    traced = [report for report in traced if "wall_s" in report]
    if not plain or (trace and not traced):
        raise SystemExit(f"error: no {workload} run completed: {failures[:1]}")
    setups += [report["setup_s"] for report in plain]
    walls = [report["wall_s"] for report in plain]
    wall = fastest_stages([report["stages"] for report in plain])
    rss = [report["peak_rss_mb"] for report in plain]

    print(f"workload {workload}, seed {seed}: {len(runs)} cold runs, "
          f"{failed} failed (error_rate {failed / len(runs):.6g})")
    describe("setup_s", setups, "s", "starts")
    describe_wall(wall, plain[0]["stages"], walls, "runs")
    describe("peak_rss_mb", rss, "MB", "runs")
    for failure in sorted(set(failures)):
        print(f"  check failed: {failure}")

    result: Dict[str, Any] = {"attempted": len(runs), "failed": failed}
    if not trace:
        result["metrics"] = {"wall_s": wall,
                             "setup_s": statistics.median(setups),
                             "peak_rss_mb": statistics.median(rss)}
        return result
    layers = [library_layers(report) for report in traced]
    check_repeats(layers)
    metrics = {name: statistics.median(layer.get(name, 0.0)
                                       for layer in layers)
               for name in LAYER_UNITS}
    traced_wall = statistics.median(report["wall_s"] for report in traced)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall - statistics.median(walls))
        / statistics.median(walls))
    result["metrics"] = metrics
    return result


def check_repeats(layers: List[Dict[str, float]]) -> None:
    for name in DETERMINISTIC:
        values = {layer.get(name, 0) for layer in layers}
        if len(values) > 1:
            print(f"  note: {name} differs between traced runs: "
                  f"{sorted(values)}")


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #
def run_service(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    payloads, sample = workloads.serve_stream(seed)
    bodies = [json.dumps(payload).encode("utf-8") for payload in payloads]
    expected = serve.expected_series(payloads, sample)
    env = child_env()
    with serve.Server(env, ROOT, trace=False):
        pass  # warm-up start, not measured
    deadline = Deadline(seconds)
    setups = []
    for _ in range(SETUP_PROBES):
        with serve.Server(env, ROOT, trace=False) as server:
            pass
        setups.append(server.setup_s)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    minimum = 2 * MIN_REPETITIONS if trace else MIN_REPETITIONS
    while deadline.more(len(plain) + len(traced), minimum):
        with_trace = trace and len(traced) < len(plain)

        def repetition() -> Dict[str, Any]:
            with serve.Server(env, ROOT, trace=with_trace) as server:
                stream = serve.run_stream(server, bodies, sample, expected)
                stream["peak_rss_mb"] = server.peak_rss_mb()
            stream["setup_s"] = server.setup_s
            if with_trace:
                stream["report"] = server.trace_report()
            return stream

        stream = deadline.timed(repetition)
        (traced if with_trace else plain).append(stream)
        if not with_trace:
            setups.append(stream["setup_s"])
    streams = plain + traced
    attempted = len(bodies) * len(streams)
    failed = sum(stream["failed"] for stream in streams)
    latencies = [1000.0 * value for stream in plain
                 for value in stream["latencies"]]
    walls = [stream["elapsed"] for stream in plain]
    wall = fastest_stages([stream["stages"] for stream in plain])
    rss = [stream["peak_rss_mb"] for stream in plain]
    throughputs = [len(bodies) / elapsed for elapsed in walls]

    print(f"workload serve_mixed, seed {seed}: {len(streams)} streams of "
          f"{len(bodies)} requests over {workloads.SERVE_CONNECTIONS} "
          f"keep-alive connections (closed loop), {failed} of {attempted} "
          f"requests failed (error_rate {failed / attempted:.6g})")
    describe("setup_s", setups, "s", "starts")
    describe_wall(wall, plain[0]["stages"], walls, "streams")
    describe("peak_rss_mb", rss, "MB", "servers")
    describe("throughput_rps", throughputs, "1/s", "streams")
    p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
    print(f"  {'latency_p50_ms':<15} {p50:.6g} ms  (n={len(latencies)} "
          f"requests)")
    print(f"  {'latency_p99_ms':<15} {p99:.6g} ms  (n={len(latencies)} "
          f"requests, {len(latencies) - int(0.99 * len(latencies))} above)")
    for stream in streams:
        for error in stream["errors"]:
            print(f"  connection failed: {error}")
        if stream["mismatches"]:
            print(f"  check failed: served series differ from direct solves "
                  f"for requests {stream['mismatches']}")

    result: Dict[str, Any] = {"attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {"wall_s": wall,
                             "setup_s": statistics.median(setups),
                             "peak_rss_mb": statistics.median(rss)}
        return result
    result["metrics"] = service_layers(traced, p50, p99,
                                       statistics.median(throughputs))
    return result


def service_layers(traced: List[Dict[str, Any]], p50: float, p99: float,
                   throughput: float) -> Dict[str, float]:
    per_stream: List[Dict[str, float]] = []
    traced_latencies = []
    for stream in traced:
        report = stream["report"]
        layers = trace_layers(report["trace"], report["caches"])
        layers.update(serve.layer_metrics(report, stream["latencies"]))
        scheduler = stream["scheduler"]
        layers["scheduler.batches"] = scheduler["batches"]
        layers["scheduler.fused_batch_size"] = (
            scheduler["batched_requests"] / max(1, scheduler["batches"]))
        layers["scheduler.coalesce_rate"] = (
            scheduler["coalesced"] / max(1, scheduler["requests"]))
        per_stream.append(layers)
        traced_latencies.extend(1000.0 * value
                                for value in stream["latencies"])
    metrics = {name: statistics.mean(layer.get(name, 0.0)
                                     for layer in per_stream)
               for name in LAYER_UNITS}
    metrics["client.throughput_rps"] = throughput
    metrics["client.latency_p50_ms"] = p50
    metrics["client.latency_p99_ms"] = p99
    metrics["trace.overhead_pct"] = (
        100.0 * (percentile(traced_latencies, 0.5) - p50) / p50)
    metrics["trace.coverage_pct"] = 0.0
    return metrics


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "serve_mixed":
        sys.path.insert(0, str(SRC))
        result = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_library(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result["correct"] = result["failed"] == 0
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]} for name in units}
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

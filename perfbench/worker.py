"""One cold run of a library workload, in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py fig8_duopoly|grid_1e5 SEED run|setup [--trace]

``setup`` stops once the inputs are built; ``run`` then does the work and
checks its output.  The last stdout line is one JSON object: the monotonic
time at which set-up finished (``ready``), ``wall_s``, its split into
``stages`` (contiguous pieces of the timed region that sum to ``wall_s``),
``peak_rss_mb``, the list of failed output checks and, with ``--trace``, the
tracer's totals.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (benchmark-local module)


def snapshot(tracer: Optional[Any]) -> Dict[str, Any]:
    """Tracer totals and cache counters as they stand when timing stops
    (the output checks that follow are not part of the workload)."""
    if tracer is None:
        return {}
    from repro.cache import all_cache_stats

    return {"trace": tracer.report(), "caches": all_cache_stats()}


def stage_times(start: float, marks: List[float], end: float) -> List[float]:
    """The durations between consecutive boundaries ``start``, ``marks``
    and ``end``; they sum to ``end - start``."""
    points = [start, *marks, end]
    return [after - before for before, after in zip(points, points[1:])]


def fig8_run(population: Any, tracer: Optional[Any]) -> Dict[str, Any]:
    from repro.core import duopoly
    from repro.runner import artifacts
    from repro.simulation import experiments

    # Capture every migration split for the market-share check; the end of
    # each one is a stage boundary.
    splits: List[Any] = []
    marks: List[float] = []
    solve_market_split = duopoly.solve_market_split

    def capture(*args: Any, **kwargs: Any) -> Any:
        split = solve_market_split(*args, **kwargs)
        splits.append(split)
        marks.append(time.perf_counter())
        return split

    duopoly.solve_market_split = capture
    serialize = artifacts.result_to_artifact_bytes
    if tracer is not None:
        from tracing import install
        install(tracer)
        serialize = tracer.span("artifacts.serialize", serialize)

    start = time.perf_counter()
    result = experiments.figure8_duopoly_capacity(
        population, kappas=workloads.FIG8_KAPPAS,
        prices=workloads.FIG8_PRICES, nus=workloads.FIG8_NUS)
    payload = serialize(result)
    end = time.perf_counter()
    peak = workloads.vm_hwm_mb("self")
    if tracer is not None:
        tracer.add("artifacts.bytes", len(payload))
    traced = snapshot(tracer)

    failures = []
    for finding in ("strategic_isp_capped_near_half_at_large_nu",
                    "phi_insensitive_to_strategy"):
        if result.findings.get(finding) is not True:
            failures.append(f"finding {finding} does not hold")
    expected = (len(workloads.FIG8_KAPPAS) * len(workloads.FIG8_PRICES)
                * len(workloads.FIG8_NUS))
    if len(splits) != expected:
        failures.append(f"{len(splits)} market splits, expected {expected}")
    for split in splits:
        shares = list(split.shares.values())
        if any(not 0.0 <= share <= 1.0 for share in shares):
            failures.append(f"market share outside [0, 1]: {shares}")
        if abs(sum(shares) - 1.0) > workloads.SHARE_SUM_TOLERANCE:
            failures.append(f"market shares sum to {sum(shares)!r}")
    if json.loads(payload).get("experiment_id") != "FIG8":
        failures.append("artifact does not decode to the FIG8 result")
    return {"wall_s": end - start, "stages": stage_times(start, marks, end),
            "peak_rss_mb": peak, "failures": failures, **traced}


def grid_run(inputs: Any, tracer: Optional[Any]) -> Dict[str, Any]:
    from repro.simulation import batch

    population, nus, price = inputs
    if tracer is not None:
        from tracing import install
        install(tracer)

    start = time.perf_counter()
    solved = batch.solve_rate_equilibria(population, nus)
    solved_at = time.perf_counter()
    surpluses = solved.consumer_surpluses()
    surplus_at = time.perf_counter()
    revenues = solved.premium_revenues(price)
    end = time.perf_counter()
    peak = workloads.vm_hwm_mb("self")
    traced = snapshot(tracer)

    failures = []
    load = population.unconstrained_per_capita_load
    aggregates = solved.aggregate_rates
    for nu, cap, rate, phi, psi in zip(nus, solved.common_caps, aggregates,
                                       surpluses, revenues):
        if nu < load:
            if not math.isfinite(cap):
                failures.append(f"congested nu={nu!r} has an infinite cap")
            elif abs(rate - nu) > workloads.RATE_TOLERANCE * max(1.0, nu):
                failures.append(f"nu={nu!r} carries {rate!r}")
        elif cap != math.inf:
            failures.append(f"uncongested nu={nu!r} has cap {cap!r}")
        if not (math.isfinite(phi) and phi >= 0.0 and math.isfinite(psi)):
            failures.append(f"nu={nu!r}: surplus {phi!r}, revenue {psi!r}")
    return {"wall_s": end - start,
            "stages": stage_times(start, [solved_at, surplus_at], end),
            "peak_rss_mb": peak, "failures": failures, **traced}


#: Per workload: the modules its set-up imports, its input builder and its
#: timed run.
WORKLOADS: Dict[str, tuple[tuple[str, ...], Callable[[int], Any],
                           Callable[[Any, Optional[Any]], Dict[str, Any]]]] = {
    "fig8_duopoly": (("repro.simulation.experiments", "repro.runner.artifacts"),
                     workloads.fig8_population, fig8_run),
    "grid_1e5": (("repro.simulation.batch",), workloads.grid_inputs, grid_run),
}


def main(argv: List[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    trace = "--trace" in argv[3:]
    modules, build, run = WORKLOADS[workload]
    for module in modules:
        importlib.import_module(module)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        build = tracer.span("populations.build", build)
    inputs = build(seed)
    report: Dict[str, Any] = {"ready": time.monotonic()}
    if mode == "run":
        report.update(run(inputs, tracer))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

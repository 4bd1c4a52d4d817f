"""Command-line interface for the reproduction.

Usage examples::

    repro-netneutrality list
    repro-netneutrality run FIG2
    repro-netneutrality run FIG4 --count 500 --seed 7
    repro-netneutrality run THM4 --scale smoke --json
    repro-netneutrality reproduce-all --scale smoke --workers 4
    repro-netneutrality regimes --nu 200
    repro-netneutrality population --count 1000

``run`` executes one of the figure / theorem reproductions registered in
:mod:`repro.runner.registry` and prints its plain-text report (tables plus
qualitative findings) or, with ``--json``, its canonical JSON artifact.
``reproduce-all`` runs the whole suite through the sharded multi-process
executor and writes one artifact per experiment plus a SHA-256 manifest
(see ``ARTIFACTS.md`` for the layout).  ``cache-stats`` (and the
``--cache-stats`` flag on ``run``/``reproduce-all``) prints the solver
caches' hit/miss counters, so cache-efficiency regressions are inspectable
without the benchmark harness.  Everything the CLI prints is also
available programmatically through the library API.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.cache import all_cache_stats
from repro.core.regulation import compare_regimes
from repro.errors import ModelValidationError
from repro.runner.artifacts import result_to_artifact_bytes
from repro.runner.executor import reproduce_all
from repro.runner.registry import (
    EXPERIMENT_SPECS,
    SCALES,
    experiment_ids,
    get_spec,
)
from repro.simulation.results import ExperimentResult
from repro.workloads.populations import paper_population

__all__ = ["main", "build_parser", "EXPERIMENT_REGISTRY"]

#: Maps experiment ids to their reproduction functions.  Kept for backwards
#: compatibility; the :mod:`repro.runner.registry` specs are the canonical
#: source (they add scale presets, parameter awareness and expected
#: findings on top of the bare callables).
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    spec.experiment_id: spec.function for spec in EXPERIMENT_SPECS
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-netneutrality",
        description="Reproduction of 'The Public Option' (Ma & Misra, CoNEXT 2011)",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(experiment_ids()),
                            help="experiment id (see `list`)")
    run_parser.add_argument("--scale", default="default", choices=SCALES,
                            help="parameter preset (default: the paper's "
                                 "1000-CP workload)")
    run_parser.add_argument("--count", type=int, default=None,
                            help="number of content providers (default: paper's 1000)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="population seed (default: the library's "
                                 "fixed reproduction seed)")
    run_parser.add_argument("--max-rows", type=int, default=12,
                            help="maximum table rows per panel in the report")
    run_parser.add_argument("--json", action="store_true",
                            help="print the canonical JSON artifact instead "
                                 "of the plain-text report")
    run_parser.add_argument("--cache-stats", action="store_true",
                            help="after the run, print the solver caches' "
                                 "hit/miss statistics to stderr")

    all_parser = subparsers.add_parser(
        "reproduce-all",
        help="run the whole suite and write JSON artifacts + manifest")
    all_parser.add_argument("--scale", default="smoke", choices=SCALES,
                            help="parameter preset for every experiment "
                                 "(default: smoke)")
    all_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (default: 1)")
    all_parser.add_argument("--shards", type=int, default=None,
                            help="round-robin shards (default: one per worker)")
    all_parser.add_argument("--output", type=Path, default=Path("artifacts"),
                            help="output directory (default: artifacts/)")
    all_parser.add_argument("--only", action="append", metavar="ID",
                            default=None,
                            help="run only this experiment id (repeatable)")
    all_parser.add_argument("--count", type=int, default=None,
                            help="override the CP count of count-aware "
                                 "experiments")
    all_parser.add_argument("--seed", type=int, default=None,
                            help="override the population seed of seed-aware "
                                 "experiments")
    all_parser.add_argument("--strict-findings", action="store_true",
                            help="exit non-zero when an expected finding "
                                 "does not hold")
    all_parser.add_argument("--cache-stats", action="store_true",
                            help="after the suite, print the solver caches' "
                                 "hit/miss statistics to stderr (with "
                                 "--workers > 1 the caches live in the "
                                 "worker processes, so the parent's "
                                 "counters only cover its own solves)")

    stats_parser = subparsers.add_parser(
        "cache-stats",
        help="print the solver caches' hit/miss statistics")
    stats_parser.add_argument("--json", action="store_true",
                              help="machine-readable JSON instead of a table")

    regimes_parser = subparsers.add_parser(
        "regimes", help="compare regulatory regimes at one capacity")
    regimes_parser.add_argument("--nu", type=float, default=200.0,
                                help="per-capita capacity")
    regimes_parser.add_argument("--count", type=int, default=1000,
                                help="number of content providers")

    population_parser = subparsers.add_parser(
        "population", help="describe the paper's random CP population")
    population_parser.add_argument("--count", type=int, default=1000)
    population_parser.add_argument("--utility-model", default="beta_correlated",
                                   choices=("beta_correlated", "independent"))

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived equilibrium server (POST /solve, "
             "GET /stats, GET /healthz; see ARTIFACTS.md)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8787,
                              help="TCP port; 0 picks an ephemeral port "
                                   "(default: 8787)")
    serve_parser.add_argument("--window-ms", type=float, default=2.0,
                              help="micro-batch window in milliseconds: "
                                   "the longest a request waits for "
                                   "compatible companions to fuse into one "
                                   "union-grid solve; a batch closes "
                                   "earlier once every request the server "
                                   "holds is waiting on a solve "
                                   "(default: 2.0)")
    serve_parser.add_argument("--naive", action="store_true",
                              help="disable batching and coalescing (one "
                                   "solve per request); the benchmark "
                                   "baseline, not a production mode")
    serve_parser.add_argument("--max-requests", type=int, default=None,
                              help="shut down cleanly after serving this "
                                   "many /solve requests (for smoke tests; "
                                   "with --workers > 1 the bound applies "
                                   "per worker)")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="serving processes sharing the port via "
                                   "SO_REUSEPORT; each worker has its own "
                                   "event loop, scheduler and caches "
                                   "(default: 1, single-process)")
    serve_parser.add_argument("--idle-timeout", type=float, default=30.0,
                              help="seconds an idle keep-alive connection "
                                   "may sit between requests before the "
                                   "server closes it; 0 disables the "
                                   "timeout (default: 30)")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the solver-invariant static analysis (rules RL001-RL003, RL005, RL006)")
    lint_parser.add_argument("paths", nargs="*", default=["src"],
                             help="files or directories to lint (default: src)")
    lint_parser.add_argument("--select", action="append", metavar="CODES",
                             default=None,
                             help="run only these rule codes (comma list, "
                                  "repeatable)")
    lint_parser.add_argument("--ignore", action="append", metavar="CODES",
                             default=None,
                             help="skip these rule codes (comma list, "
                                  "repeatable)")
    lint_parser.add_argument("--format", dest="output_format", default="text",
                             choices=("text", "json"),
                             help="report format (default: text)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the registered rules and exit")
    return parser


def format_cache_stats(stats: Optional[Dict[str, Dict[str, Any]]] = None, *,
                       as_json: bool = False) -> str:
    """Render ``repro.cache.all_cache_stats()`` as a table (or JSON).

    Exposed for testing and for scripts that want the same rendering the
    CLI uses.
    """
    if stats is None:
        stats = all_cache_stats()
    if as_json:
        return json.dumps(stats, indent=2, sort_keys=True)
    width = max([len(name) for name in stats] + [len("cache")])
    header = (f"{'cache':<{width}} {'size':>8} {'maxsize':>8} {'hits':>10} "
              f"{'misses':>10} {'hit_rate':>9}")
    lines = [header, "-" * len(header)]
    for name in sorted(stats):
        entry = stats[name]
        lines.append(
            f"{name:<{width}} {entry['size']:>8} {entry['maxsize']:>8} "
            f"{entry['hits']:>10} {entry['misses']:>10} "
            f"{entry['hit_rate']:>9.1%}")
    return "\n".join(lines)


def _warn_ignored(experiment_id: str, ignored: Sequence[str]) -> None:
    for name in ignored:
        print(f"warning: {experiment_id} does not take --{name}; "
              "the flag is ignored", file=sys.stderr)


def _run_experiment(args: argparse.Namespace) -> str:
    spec = get_spec(args.experiment)
    _warn_ignored(spec.experiment_id,
                  spec.ignored_overrides(count=args.count, seed=args.seed))
    result = spec.run(scale=args.scale,
                      count=args.count if spec.count_aware else None,
                      seed=args.seed if spec.seed_aware else None)
    if args.json:
        return result_to_artifact_bytes(result).decode("ascii").rstrip("\n")
    return result.report(max_rows=args.max_rows)


def _reproduce_all(args: argparse.Namespace) -> int:
    ids = args.only if args.only else None
    if ids is not None:
        for experiment_id in ids:
            get_spec(experiment_id)  # fail fast on unknown ids
    for experiment_id in (ids if ids is not None else experiment_ids()):
        _warn_ignored(experiment_id,
                      get_spec(experiment_id).ignored_overrides(
                          count=args.count, seed=args.seed))
    summary = reproduce_all(ids=ids, scale=args.scale, workers=args.workers,
                            shards=args.shards, output_dir=args.output,
                            count=args.count, seed=args.seed)
    print(f"reproduced {len(summary.experiment_ids)} experiments at scale "
          f"'{summary.scale}' with {summary.workers} worker(s) in "
          f"{summary.elapsed_seconds:.1f}s")
    print(f"artifacts: {summary.output_dir}")
    print(f"manifest:  {summary.manifest_path} "
          f"(sha256 {summary.manifest_sha256})")
    if summary.failed_findings:
        for experiment_id, names in sorted(summary.failed_findings.items()):
            print(f"warning: {experiment_id} failed expected findings: "
                  f"{', '.join(names)}", file=sys.stderr)
        if args.strict_findings:
            return 3
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the equilibrium server until interrupted (or --max-requests)."""
    import asyncio
    import signal

    from repro.service.server import EquilibriumServer

    if args.window_ms < 0.0:
        print("error: --window-ms must be >= 0", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.idle_timeout < 0.0:
        print("error: --idle-timeout must be >= 0", file=sys.stderr)
        return 2
    idle_timeout = args.idle_timeout if args.idle_timeout > 0.0 else None

    if args.workers > 1:
        from repro.service.multiproc import WorkerSettings, serve_multiprocess
        settings = WorkerSettings(
            host=args.host, port=args.port,
            window_seconds=args.window_ms / 1000.0,
            naive=args.naive,
            max_requests=args.max_requests,
            idle_timeout=idle_timeout)
        return serve_multiprocess(settings, args.workers)

    async def run() -> None:
        server = EquilibriumServer(
            args.host, args.port,
            window_seconds=args.window_ms / 1000.0,
            naive=args.naive,
            max_requests=args.max_requests,
            idle_timeout=idle_timeout)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_shutdown)
        await server.start()
        host, port = server.address
        print(f"serving on http://{host}:{port} "
              f"(window {args.window_ms:g} ms, "
              f"{'naive' if args.naive else 'micro-batching'})", flush=True)
        await server.serve_until_closed()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - handler races the loop
        print("shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "list":
            for spec in EXPERIMENT_SPECS:
                print(f"{spec.experiment_id:<8} {spec.summary}")
            return 0
        if args.command == "run":
            print(_run_experiment(args))
            if args.cache_stats:
                print(format_cache_stats(), file=sys.stderr)
            return 0
        if args.command == "reproduce-all":
            code = _reproduce_all(args)
            if args.cache_stats:
                print(format_cache_stats(), file=sys.stderr)
            return code
        if args.command == "cache-stats":
            print(format_cache_stats(as_json=args.json))
            return 0
        if args.command == "regimes":
            population = paper_population(count=args.count)
            comparison = compare_regimes(population, args.nu)
            print(comparison.summary_table())
            print()
            ordering = "holds" if comparison.paper_ordering_holds() else "does NOT hold"
            print(f"Paper's monopoly-side ordering (public option >= neutral >= "
                  f"unregulated) {ordering} at nu={args.nu:g}.")
            return 0
        if args.command == "serve":
            return _serve(args)
        if args.command == "lint":
            from repro.lint.cli import run as run_lint
            return run_lint(args)
        if args.command == "population":
            population = paper_population(count=args.count,
                                          utility_model=args.utility_model)
            for key, value in population.describe().items():
                print(f"{key:>32}: {value:.4f}" if isinstance(value, float)
                      else f"{key:>32}: {value}")
            return 0
    except ModelValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures (or checks one of its
analytic claims) on the paper's 1000-CP workload, runs it exactly once via
``benchmark.pedantic`` (the experiments are deterministic, so repeated
timing rounds would only waste time) and writes the full plain-text report
— tables plus qualitative findings — to ``benchmarks/reports/<id>.txt`` so
the results can be inspected and diffed against the golden artifacts
committed under ``tests/runner/golden/`` (see ARTIFACTS.md).

After every run the harness also writes a machine-readable
``benchmarks/BENCH_summary.json`` with the wall time and solver-cache hit
rates of each benchmark that ran; ``scripts/bench_compare.py`` diffs two
such summaries and fails above a configurable regression threshold, so the
performance trajectory is tracked from PR to PR.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.cache import all_cache_stats, clear_all_caches
from repro.simulation.results import ExperimentResult
from repro.workloads.populations import paper_population

REPORT_DIR = pathlib.Path(__file__).parent / "reports"
SUMMARY_PATH = pathlib.Path(__file__).parent / "BENCH_summary.json"

#: Wall time (seconds) of every benchmark executed in this session.
_BENCH_TIMINGS: dict[str, float] = {}
#: Solver-cache statistics captured right after each benchmark.  The caches
#: are cleared before every benchmark, so these are per-benchmark numbers.
_BENCH_CACHE_STATS: dict[str, dict] = {}
#: Extra per-benchmark metrics (e.g. the scaling sweep's per-size wall
#: times and peak RSS) merged verbatim into the summary entry.
_BENCH_EXTRA: dict[str, dict] = {}


def record_extra(name: str, payload: dict) -> None:
    """Attach additional JSON-serialisable metrics to a benchmark's entry."""
    _BENCH_EXTRA.setdefault(name, {}).update(payload)


def record_benchmark(name: str, seconds: float,
                     extra: dict | None = None) -> None:
    """Record a summary entry under an explicit name.

    For harness code that measures itself (the serving benchmark times
    whole concurrent workloads, not one function call) and wants a stable
    summary key like ``"service"`` instead of a pytest node name.
    """
    _BENCH_TIMINGS[name] = seconds
    _BENCH_CACHE_STATS[name] = all_cache_stats()
    if extra:
        record_extra(name, extra)


@pytest.fixture(autouse=True)
def _cold_solver_caches():
    """Start every benchmark with cold solver caches.

    The equilibrium/class-cap/partition caches are module-global, so without
    this a benchmark's timing would depend on which benchmarks ran before it
    in the session — `pytest -k fig07` and a full run would disagree, making
    the bench_compare regression gate order-dependent.  Clearing also resets
    the hit/miss counters, which makes the recorded cache statistics
    per-benchmark.
    """
    clear_all_caches()
    yield


# The population fixtures are function-scoped on purpose: a population
# memoises its sorted max-min profiles and sort order on itself, out of reach
# of ``clear_all_caches()``, so a shared instance would let every benchmark
# after the first start warm.  A 1000-CP build costs about 10 ms.
@pytest.fixture
def paper_cps():
    """The paper's main-text workload: 1000 CPs, phi ~ U[0, beta]."""
    return paper_population(count=1000, utility_model="beta_correlated")


@pytest.fixture
def paper_cps_appendix():
    """The appendix workload: same CPs, phi ~ U[0, U[0, 10]] independent of beta."""
    return paper_population(count=1000, utility_model="independent")


@pytest.fixture(scope="session")
def record_report():
    """Write an experiment's report to ``benchmarks/reports/<id>.txt``."""
    REPORT_DIR.mkdir(exist_ok=True)

    def _record(result: ExperimentResult) -> ExperimentResult:
        path = REPORT_DIR / f"{result.experiment_id.lower()}.txt"
        path.write_text(result.report(max_rows=25) + "\n", encoding="utf-8")
        return result

    return _record


def run_once(benchmark, function, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Also records the wall time and the benchmark's own solver-cache hit
    rates into the session's ``BENCH_summary.json`` entry.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(function, kwargs=kwargs, rounds=1, iterations=1,
                                warmup_rounds=0)
    elapsed = time.perf_counter() - start
    name = getattr(benchmark, "name", None) or function.__name__
    # Prefer pytest-benchmark's own measurement when available (it excludes
    # the fixture machinery); fall back to the perf_counter envelope.
    try:
        elapsed = float(benchmark.stats.stats.mean)
    except AttributeError:
        pass
    _BENCH_TIMINGS[name] = elapsed
    _BENCH_CACHE_STATS[name] = all_cache_stats()
    return result


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable per-benchmark timing summary.

    Entries are merged into any existing summary rather than replacing it,
    so a partial run (``-k fig04``, or a session where a later benchmark
    errors out) updates only the benchmarks that actually ran — the
    regression gate keeps seeing the others' last known timings instead of
    silently losing them.
    """
    if not _BENCH_TIMINGS:
        return
    benchmarks: dict[str, dict] = {}
    try:
        existing = json.loads(SUMMARY_PATH.read_text(encoding="utf-8"))
        if isinstance(existing, dict) and isinstance(existing.get("benchmarks"),
                                                     dict):
            benchmarks.update(existing["benchmarks"])
    except (OSError, ValueError):
        pass
    for name, seconds in _BENCH_TIMINGS.items():
        entry: dict = {"seconds": seconds}
        stats = _BENCH_CACHE_STATS.get(name)
        if stats is not None:
            entry["caches"] = stats
        extra = _BENCH_EXTRA.get(name)
        if extra is not None:
            entry.update(extra)
        benchmarks[name] = entry
    payload = {
        "schema": 1,
        "benchmarks": dict(sorted(benchmarks.items())),
    }
    SUMMARY_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

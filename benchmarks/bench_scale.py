"""SCALE — columnar population core from 10^3 to 10^6 content providers.

The ROADMAP's north star is an equilibrium solver that handles millions of
CPs; this sweep measures how the columnar structure-of-arrays core scales.
For each population size it times

* the columnar population build (``Population.from_columns`` straight from
  the random draws — no per-CP objects);
* one max-min + Eq-(3) rate equilibrium solve (the Theorem-1 cap solver
  over the sorted-``theta_hat`` prefix profile) at a mid-load capacity;
* a capacity-grid ``solve_caps`` pass (the grid solve behind the sweep
  layer), which runs the scalar cap solver once per point, so its memory
  is flat in the grid size.

Per-size wall times and peak RSS are recorded into ``BENCH_summary.json``
under the ``scale`` key, so the scaling curve is tracked PR over PR next to
the experiment timings.  Set ``REPRO_BENCH_SCALE_MAX_CPS`` to cap the
largest population (CI smoke lanes use a smaller ceiling).
"""

from __future__ import annotations

import os
import resource

import numpy as np

from conftest import record_extra, run_once

from repro.network.allocation import MaxMinFairAllocation
from repro.network.equilibrium import common_cap_profile, solve_rate_equilibrium
from repro.workloads.populations import PopulationSpec, random_population

#: Population sizes swept (log-spaced decades), capped by the environment.
_SIZES = (1_000, 10_000, 100_000, 1_000_000)
#: Capacity-grid length for the batched solve; memory must stay flat in it.
_GRID_POINTS = 64


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: ru_maxrss KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sizes() -> tuple[int, ...]:
    ceiling = int(os.environ.get("REPRO_BENCH_SCALE_MAX_CPS", _SIZES[-1]))
    return tuple(size for size in _SIZES if size <= ceiling) or _SIZES[:1]


def _scaling_sweep() -> dict:
    import time

    points = []
    for size in _sizes():
        start = time.perf_counter()
        population = random_population(PopulationSpec(count=size), seed=97)
        build_seconds = time.perf_counter() - start

        load = population.unconstrained_per_capita_load
        nu = 0.5 * load

        start = time.perf_counter()
        equilibrium = solve_rate_equilibrium(population, nu)
        solve_seconds = time.perf_counter() - start

        # Capacity-axis kernel: one scalar cap solve per grid point.  Only
        # the (G,) cap vector is materialised, so peak memory stays flat in
        # the grid length even at 10^6 CPs.
        nu_grid = np.linspace(0.05 * load, 1.2 * load, _GRID_POINTS)
        profile = common_cap_profile(population, MaxMinFairAllocation())
        start = time.perf_counter()
        caps = profile.solve_caps(nu_grid)
        grid_seconds = time.perf_counter() - start

        points.append({
            "cps": size,
            "build_seconds": build_seconds,
            "solve_seconds": solve_seconds,
            "grid_seconds": grid_seconds,
            "grid_points": _GRID_POINTS,
            "common_cap": equilibrium.common_cap,
            "peak_rss_mb": _peak_rss_mb(),
        })
        # Work conservation sanity at every size: the congested solve
        # carries exactly nu (the batch shares the same kernel).
        assert abs(equilibrium.aggregate_rate - nu) <= 1e-9 * max(1.0, nu)
        assert len(caps) == _GRID_POINTS and np.all(np.isfinite(caps[:1]))
    return {"points": points}


def test_scale_columnar_core(benchmark):
    summary = run_once(benchmark, _scaling_sweep)
    record_extra("test_scale_columnar_core", {"scale": summary["points"]})
    largest = summary["points"][-1]
    # The ISSUE's bar: a 10^6-CP max-min + Eq-(3) equilibrium in
    # single-digit seconds (scaled pro rata when the ceiling is lowered).
    assert largest["solve_seconds"] < 10.0
    # Memory flat in grid size: the 64-point batched pass must not blow the
    # peak RSS past the columnar build + a bounded chunk (generous 4x).
    sizes = [point["cps"] for point in summary["points"]]
    assert sizes == sorted(sizes)

"""Experiment harness: sweeps, result containers and figure reproductions.

* :mod:`repro.simulation.batch` — the batched equilibrium engine: a whole
  capacity grid as one cap vector, solved directly or with each point
  read through the full-population cap cache;
* :mod:`repro.simulation.results` — light containers for series and sweep
  results, with plain-text table rendering (no plotting dependency);
* :mod:`repro.simulation.sweep` — price/capacity/strategy sweeps over the
  monopoly and duopoly games;
* :mod:`repro.simulation.experiments` — one entry point per paper figure
  (and per analytic claim), used by the benchmark suite and the CLI.
"""

from repro.simulation.batch import (
    BatchRateEquilibrium,
    solve_rate_equilibria,
    warm_equilibrium_cache,
)
from repro.simulation.results import Series, SweepResult, ExperimentResult
from repro.simulation.sweep import (
    duopoly_capacity_sweep,
    duopoly_price_sweep,
    monopoly_capacity_sweep,
    monopoly_price_sweep,
)
from repro.simulation import experiments

__all__ = [
    "BatchRateEquilibrium",
    "solve_rate_equilibria",
    "warm_equilibrium_cache",
    "Series",
    "SweepResult",
    "ExperimentResult",
    "monopoly_price_sweep",
    "monopoly_capacity_sweep",
    "duopoly_price_sweep",
    "duopoly_capacity_sweep",
    "experiments",
]

"""repro — a reproduction of *The Public Option: a Non-regulatory Alternative
to Network Neutrality* (Ma & Misra, CoNEXT 2011).

The library models the three-party Internet ecosystem of the paper —
consumers, last-mile ISPs and content providers — and reproduces its
analysis of network-neutrality regulation:

* :mod:`repro.network` — throughput-sensitive demand, axiomatic
  rate-allocation mechanisms and the unique rate equilibrium (Section II);
* :mod:`repro.core` — the two-stage monopoly game, the duopoly with a
  Public Option ISP and the oligopolistic competition game
  (Sections III-IV);
* :mod:`repro.workloads` — the paper's content-provider populations;
* :mod:`repro.simulation` — the batched equilibrium engine, sweeps and
  figure reproductions.

Quickstart::

    from repro import paper_population, MonopolyGame, ISPStrategy

    cps = paper_population(count=1000)
    game = MonopolyGame(cps, nu=150.0)
    outcome = game.outcome(ISPStrategy(kappa=1.0, price=0.45))
    print(outcome.isp_surplus, outcome.consumer_surplus)
"""

from repro.config import SolverConfig, use_config
from repro.errors import (
    AxiomViolationError,
    ModelValidationError,
    ReproError,
)
from repro.network import (
    AlphaFairAllocation,
    ContentProvider,
    ExponentialSensitivityDemand,
    MaxMinFairAllocation,
    Population,
    ProportionalFairAllocation,
    RateEquilibrium,
    WeightedFairAllocation,
    check_axioms,
    solve_rate_equilibrium,
)
from repro.core import (
    CPPartitionGame,
    DuopolyGame,
    DuopolyOutcome,
    ISPStrategy,
    IspConfig,
    MarketSplit,
    MonopolyGame,
    MonopolyOutcome,
    NEUTRAL_STRATEGY,
    OligopolyGame,
    OligopolyOutcome,
    PUBLIC_OPTION_STRATEGY,
    PartitionOutcome,
    RegimeComparison,
    compare_regimes,
    solve_market_split,
    strategy_grid,
    welfare_report,
)
from repro.workloads import (
    archetype_population,
    google_type,
    netflix_type,
    paper_population,
    random_population,
    skype_type,
)
from repro.simulation import experiments

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # solver configuration
    "SolverConfig",
    "use_config",
    # errors
    "ReproError",
    "ModelValidationError",
    "AxiomViolationError",
    # network substrate
    "ContentProvider",
    "Population",
    "ExponentialSensitivityDemand",
    "MaxMinFairAllocation",
    "ProportionalFairAllocation",
    "AlphaFairAllocation",
    "WeightedFairAllocation",
    "RateEquilibrium",
    "solve_rate_equilibrium",
    "check_axioms",
    # games
    "ISPStrategy",
    "PUBLIC_OPTION_STRATEGY",
    "NEUTRAL_STRATEGY",
    "strategy_grid",
    "CPPartitionGame",
    "PartitionOutcome",
    "MonopolyGame",
    "MonopolyOutcome",
    "DuopolyGame",
    "DuopolyOutcome",
    "OligopolyGame",
    "OligopolyOutcome",
    "IspConfig",
    "MarketSplit",
    "solve_market_split",
    "RegimeComparison",
    "compare_regimes",
    "welfare_report",
    # workloads
    "paper_population",
    "random_population",
    "archetype_population",
    "google_type",
    "netflix_type",
    "skype_type",
    # experiments
    "experiments",
]

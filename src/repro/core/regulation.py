"""Comparison of regulatory regimes (the paper's bottom line).

The paper's headline finding orders the consumer surplus achievable in a
monopolistic region under three regimes:

    unregulated monopoly  <=  network-neutral regulation  <=  Public Option,

while under oligopolistic competition non-neutral strategies are already
aligned with consumer surplus and regulation is unnecessary.  This module
evaluates all four regimes on a common population/capacity and produces a
ranked report; it is the engine behind the ``bench_regulation_regimes``
benchmark and the ``monopoly_regulation`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SolverConfig
from repro.errors import ModelValidationError
from repro.core.duopoly import DuopolyGame
from repro.core.monopoly import MonopolyGame
from repro.core.strategy import (
    ISPStrategy,
    NEUTRAL_STRATEGY,
    PUBLIC_OPTION_STRATEGY,
    strategy_grid,
)
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = ["RegimeResult", "RegimeComparison", "compare_regimes"]


@dataclass(frozen=True)
class RegimeResult:
    """Outcome of one regulatory regime."""

    regime: str
    consumer_surplus: float
    isp_surplus: float
    strategy: ISPStrategy
    description: str


@dataclass
class RegimeComparison:
    """Collection of regime results with ranking helpers."""

    nu: float
    results: Dict[str, RegimeResult] = field(default_factory=dict)

    def add(self, result: RegimeResult) -> None:
        self.results[result.regime] = result

    def ranking(self) -> List[RegimeResult]:
        """Regimes sorted by consumer surplus, best first."""
        return sorted(self.results.values(),
                      key=lambda r: r.consumer_surplus, reverse=True)

    def consumer_surplus(self, regime: str) -> float:
        return self.results[regime].consumer_surplus

    def paper_ordering_holds(self, tolerance: float = 1e-6) -> bool:
        """Check the monopoly-side ordering claimed by the paper.

        Public Option >= neutral regulation >= unregulated monopoly, each up
        to a relative tolerance (the Public Option and neutral regimes can
        coincide when capacity is abundant).
        """
        unregulated = self.consumer_surplus("unregulated_monopoly")
        neutral = self.consumer_surplus("neutral_monopoly")
        public_option = self.consumer_surplus("public_option")
        scale = max(abs(unregulated), abs(neutral), abs(public_option), 1.0)
        return (public_option >= neutral - tolerance * scale
                and neutral >= unregulated - tolerance * scale)

    def summary_table(self) -> str:
        """Plain-text table of the regimes, best consumer surplus first."""
        lines = [f"{'regime':<24} {'Phi':>12} {'Psi':>12}  strategy"]
        for result in self.ranking():
            lines.append(
                f"{result.regime:<24} {result.consumer_surplus:>12.4f} "
                f"{result.isp_surplus:>12.4f}  {result.strategy.describe()}"
            )
        return "\n".join(lines)


def compare_regimes(population: Population, nu: float,
                    strategies: Optional[Sequence[ISPStrategy]] = None,
                    mechanism: Optional[CommonCapAllocation] = None,
                    *, duopoly_capacity_share: float = 0.5,
                    include_competition: bool = True,
                    config: Optional[SolverConfig] = None) -> RegimeComparison:
    """Evaluate the four regulatory regimes on one population and capacity.

    Parameters
    ----------
    population, nu:
        The region's CPs and per-capita capacity.
    strategies:
        Strategy grid over which selfish ISPs optimise; defaults to a
        5x5 grid of ``kappa`` in {0.2..1.0} and prices in {0.1..0.9}.
    duopoly_capacity_share:
        Capacity share handed to the strategic ISP in the Public Option
        regime (the remainder becomes the Public Option's capacity).
    include_competition:
        Also evaluate the oligopolistic regime (two strategic ISPs); this is
        the most expensive regime, so it can be disabled.

    Returns
    -------
    RegimeComparison
    """
    if strategies is None:
        strategies = strategy_grid(
            kappas=(0.2, 0.4, 0.6, 0.8, 1.0),
            prices=(0.1, 0.3, 0.5, 0.7, 0.9),
        )
    if not strategies:
        raise ModelValidationError("strategy grid must not be empty")
    comparison = RegimeComparison(nu=nu)

    monopoly = MonopolyGame(population, nu, mechanism, config=config)

    # 1. Unregulated monopoly: the ISP plays its revenue-optimal strategy.
    unregulated = monopoly.revenue_optimal(strategies)
    comparison.add(RegimeResult(
        regime="unregulated_monopoly",
        consumer_surplus=unregulated.consumer_surplus,
        isp_surplus=unregulated.isp_surplus,
        strategy=unregulated.strategy,
        description="monopolist free to choose (kappa, c) for maximum revenue",
    ))

    # 2. Network-neutral regulation: a single free class.
    neutral = monopoly.neutral_outcome()
    comparison.add(RegimeResult(
        regime="neutral_monopoly",
        consumer_surplus=neutral.consumer_surplus,
        isp_surplus=neutral.isp_surplus,
        strategy=NEUTRAL_STRATEGY,
        description="monopolist forced to carry all traffic in one free class",
    ))

    # 3. Public Option: the incumbent keeps `duopoly_capacity_share` of the
    #    capacity and competes for consumers against a neutral Public Option
    #    ISP; it plays its market-share-optimal strategy (Theorem 5 then says
    #    consumer surplus is maximised among its options).  The incumbent can
    #    always mimic neutrality, so the neutral strategy is part of its
    #    option set even when the caller's grid omits it.
    duopoly_grid = list(strategies)
    if not any(s.is_public_option for s in duopoly_grid):
        duopoly_grid.append(PUBLIC_OPTION_STRATEGY)
    duopoly = DuopolyGame(population, nu, duopoly_capacity_share, mechanism,
                          config=config)
    public_option = duopoly.best_response(duopoly_grid, objective="market_share")
    comparison.add(RegimeResult(
        regime="public_option",
        consumer_surplus=public_option.consumer_surplus,
        isp_surplus=public_option.isp_surplus,
        strategy=public_option.strategy_strategic,
        description=("incumbent competes with a neutral Public Option ISP "
                     f"holding {1.0 - duopoly_capacity_share:.0%} of capacity"),
    ))

    # 4. Oligopolistic competition: two strategic ISPs.  By Theorem 6 each
    #    ISP's market-share incentive is closely aligned with consumer
    #    surplus, so we evaluate the symmetric profile in which both play the
    #    consumer-surplus-aligned best strategy found against the Public
    #    Option (a cheap, faithful proxy for the full Nash search, which the
    #    oligopoly benchmarks perform explicitly on smaller populations).
    if include_competition:
        aligned = duopoly.best_response(duopoly_grid, objective="consumer_surplus")
        competitive = duopoly.outcome(aligned.strategy_strategic,
                                      aligned.strategy_strategic)
        comparison.add(RegimeResult(
            regime="oligopoly_competition",
            consumer_surplus=competitive.consumer_surplus,
            isp_surplus=competitive.isp_surplus + competitive.other_isp_surplus,
            strategy=aligned.strategy_strategic,
            description="two competing price-discriminating ISPs (symmetric profile)",
        ))
    return comparison

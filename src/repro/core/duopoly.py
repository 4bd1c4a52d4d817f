"""Duopoly between a strategic ISP and a Public Option ISP (Section IV-A).

The duopoly game ``(M, mu, N, {I, J})`` is the heart of the paper's
non-regulatory proposal: ISP ``J`` runs the fixed Public Option strategy
``(0, 0)`` while ISP ``I`` freely chooses a non-neutral strategy
``(kappa_I, c_I)``.  Consumers migrate between the ISPs until the
per-capita consumer surplus equalises (Assumption 5); the CPs play the
class-selection game at each ISP independently.

The key result (Theorem 5) is that when ISP ``I`` maximises its market
share against a Public Option, it also maximises consumer surplus — the
Public Option aligns the non-neutral ISP's selfish incentives with the
consumer, without any regulation.  :meth:`DuopolyGame.best_response`
searches a strategy grid to verify this alignment numerically, and
:meth:`DuopolyGame.price_sweep`/:meth:`DuopolyGame.capacity_sweep` drive
the Figure 7/8 reproductions: one migration solve per grid point, each
solving a class cap when it first needs it and looking it up afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.core.cp_game import PartitionOutcome
from repro.core.migration import IspConfig, MarketSplit, solve_market_split
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = ["DuopolyOutcome", "DuopolyGame", "STRATEGIC_ISP",
           "PUBLIC_OPTION_ISP", "DUOPOLY_MIGRATION_TOLERANCE",
           "DUOPOLY_MIGRATION_ITERATIONS"]

#: Default names used for the two ISPs.
STRATEGIC_ISP = "ISP-I"
PUBLIC_OPTION_ISP = "ISP-J"

#: The duopoly's documented migration-tolerance default: the two-ISP solve
#: is an exact share bisection, so it affords a tighter tolerance than the
#: oligopoly tatonnement (``OLIGOPOLY_MIGRATION_TOLERANCE`` = 1e-3).
DUOPOLY_MIGRATION_TOLERANCE = 1e-4

#: Step budget of the duopoly's share bisection.  Its share-width rule
#: stops it within 17 steps, so the budget never binds.
DUOPOLY_MIGRATION_ITERATIONS = 40


@dataclass(frozen=True)
class DuopolyOutcome:
    """Equilibrium outcome of the duopoly for one strategy pair."""

    strategy_strategic: ISPStrategy
    strategy_other: ISPStrategy
    split: MarketSplit
    total_nu: float

    # -- market structure -------------------------------------------------
    @property
    def market_share(self) -> float:
        """Market share ``m_I`` of the strategic ISP."""
        return self.split.share(STRATEGIC_ISP)

    @property
    def other_market_share(self) -> float:
        return self.split.share(PUBLIC_OPTION_ISP)

    # -- welfare -----------------------------------------------------------
    @property
    def consumer_surplus(self) -> float:
        """System-wide per-capita consumer surplus ``Phi``."""
        return self.split.consumer_surplus

    @property
    def isp_surplus(self) -> float:
        """Per-capita (whole-market) premium revenue of the strategic ISP."""
        return self.split.isp_surplus(STRATEGIC_ISP)

    @property
    def other_isp_surplus(self) -> float:
        return self.split.isp_surplus(PUBLIC_OPTION_ISP)

    @property
    def isp_surplus_per_subscriber(self) -> float:
        """Premium revenue of the strategic ISP per one of its subscribers."""
        return self.split.outcomes[STRATEGIC_ISP].isp_surplus

    # -- per-ISP detail ------------------------------------------------------
    @property
    def strategic_partition(self) -> PartitionOutcome:
        return self.split.outcomes[STRATEGIC_ISP]

    @property
    def other_partition(self) -> PartitionOutcome:
        return self.split.outcomes[PUBLIC_OPTION_ISP]

    @property
    def strategic_nu(self) -> float:
        """Per-capita capacity seen by the strategic ISP's subscribers."""
        return self.strategic_partition.nu

    @property
    def other_nu(self) -> float:
        return self.other_partition.nu

    @property
    def converged(self) -> bool:
        return self.split.converged


class DuopolyGame:
    """The duopoly game with a configurable opponent (Public Option by default).

    Parameters
    ----------
    population:
        The content providers ``N``.
    total_nu:
        System-wide per-capita capacity ``mu / M``.
    strategic_capacity_share:
        ``gamma_I`` — the strategic ISP's share of the total capacity; the
        opponent holds the remainder (the paper's experiments use 1/2).
    mechanism:
        Rate-allocation mechanism inside every service class.
    config:
        Solver configuration threaded into every layer below.  Its
        ``migration_tolerance`` sets the surplus-equalisation tolerance of
        the share bisection (``self.migration_tolerance``); when it is
        ``None`` the game keeps :data:`DUOPOLY_MIGRATION_TOLERANCE` (1e-4).
    """

    def __init__(self, population: Population, total_nu: float,
                 strategic_capacity_share: float = 0.5,
                 mechanism: Optional[CommonCapAllocation] = None,
                 *, config: Optional[SolverConfig] = None) -> None:
        if not math.isfinite(total_nu) or total_nu < 0.0:
            raise ModelValidationError(
                f"total_nu must be non-negative, got {total_nu!r}")
        if not 0.0 < strategic_capacity_share < 1.0:
            raise ModelValidationError(
                "strategic_capacity_share must lie strictly between 0 and 1, "
                f"got {strategic_capacity_share!r}"
            )
        self.population = population
        self.total_nu = float(total_nu)
        self.strategic_capacity_share = float(strategic_capacity_share)
        self.mechanism = mechanism
        self.config = resolve_config(config)
        self.migration_tolerance = (
            self.config.migration_tolerance
            if self.config.migration_tolerance is not None
            else DUOPOLY_MIGRATION_TOLERANCE)

    # ------------------------------------------------------------------ #
    def outcome(self, strategy: ISPStrategy,
                opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY
                ) -> DuopolyOutcome:
        """Migration equilibrium when the strategic ISP plays ``strategy``.

        Every per-ISP second-stage solve inside the migration bisection runs
        on the game layer's shared memoisation (partition outcomes and class
        caps), so repeated queries (within one sweep or across sweeps) are
        lookups — e.g. the Public Option opponent's surplus curve is solved
        once for an entire price grid.
        """
        isps = (
            IspConfig(STRATEGIC_ISP, strategy, self.strategic_capacity_share),
            IspConfig(PUBLIC_OPTION_ISP, opponent_strategy,
                      1.0 - self.strategic_capacity_share),
        )
        split = solve_market_split(
            self.population, self.total_nu, isps, self.mechanism,
            tolerance=self.migration_tolerance,
            max_iterations=DUOPOLY_MIGRATION_ITERATIONS,
            config=self.config,
        )
        return DuopolyOutcome(strategy_strategic=strategy,
                              strategy_other=opponent_strategy,
                              split=split, total_nu=self.total_nu)

    # ------------------------------------------------------------------ #
    # Sweeps used by the Figure 7/8/11/12 reproductions
    # ------------------------------------------------------------------ #
    def price_sweep(self, prices: Iterable[float], kappa: float = 1.0,
                    opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY
                    ) -> List[DuopolyOutcome]:
        """Outcomes over a grid of premium prices at fixed ``kappa`` (Figure 7)."""
        return [self.outcome(ISPStrategy(kappa, float(price)), opponent_strategy)
                for price in prices]

    def capacity_sweep(self, strategy: ISPStrategy, nus: Iterable[float],
                       opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY
                       ) -> List[DuopolyOutcome]:
        """Outcomes of a fixed strategy pair across total capacities (Figure 8)."""
        return [DuopolyGame(self.population, float(nu),
                            self.strategic_capacity_share, self.mechanism,
                            config=self.config
                            ).outcome(strategy, opponent_strategy)
                for nu in nus]

    # ------------------------------------------------------------------ #
    # Best responses (Theorem 5)
    # ------------------------------------------------------------------ #
    def best_response(self, strategies: Sequence[ISPStrategy],
                      objective: str = "market_share",
                      opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY
                      ) -> DuopolyOutcome:
        """Best strategy of the strategic ISP over a grid.

        ``objective`` is ``"market_share"`` (the ISP's own incentive,
        Theorem 5's premise) or ``"consumer_surplus"`` (the welfare
        benchmark).  Ties are broken in favour of the other objective, then
        towards smaller ``kappa``.
        """
        if objective not in ("market_share", "consumer_surplus"):
            raise ModelValidationError(
                "objective must be 'market_share' or 'consumer_surplus', "
                f"got {objective!r}"
            )
        if not strategies:
            raise ModelValidationError("strategy grid must not be empty")
        outcomes = [self.outcome(strategy, opponent_strategy)
                    for strategy in strategies]
        if objective == "market_share":
            return max(outcomes, key=lambda o: (o.market_share, o.consumer_surplus,
                                                -o.strategy_strategic.kappa))
        return max(outcomes, key=lambda o: (o.consumer_surplus, o.market_share,
                                            -o.strategy_strategic.kappa))

    def alignment_report(self, strategies: Sequence[ISPStrategy],
                         opponent_strategy: ISPStrategy = PUBLIC_OPTION_STRATEGY
                         ) -> Dict[str, Any]:
        """Theorem 5 check: compare the market-share and surplus optima.

        Returns the two best responses and the consumer-surplus shortfall of
        the market-share-optimal strategy relative to the surplus-optimal
        one (zero, up to solver tolerance, when Theorem 5 holds).
        """
        outcomes = [self.outcome(strategy, opponent_strategy)
                    for strategy in strategies]
        by_share = max(outcomes, key=lambda o: o.market_share)
        by_surplus = max(outcomes, key=lambda o: o.consumer_surplus)
        shortfall = by_surplus.consumer_surplus - by_share.consumer_surplus
        return {
            "market_share_optimum": by_share,
            "surplus_optimum": by_surplus,
            "surplus_shortfall": shortfall,
            "outcomes": outcomes,
        }

"""The two-stage monopoly game of Section III.

A single last-mile ISP with per-capita capacity ``nu`` announces a strategy
``s_I = (kappa, c)``; the CPs then partition themselves across the ordinary
and premium classes (second-stage game of :mod:`repro.core.cp_game`).  The
monopolist's payoff is the premium revenue ``Psi``; the welfare benchmark is
the per-capita consumer surplus ``Phi``.

Key paper results reproduced here:

* Theorem 4 — for a fixed price, larger ``kappa`` (weakly) increases the
  monopolist's revenue, so ``kappa = 1`` is always among the optimal
  capacity splits (verified numerically by
  :meth:`MonopolyGame.verify_kappa_dominance`);
* Figures 4 and 5 — the revenue-optimal price can sit in a region where the
  premium class is deliberately under-utilised and consumer surplus is
  falling (the misalignment that motivates regulation or a Public Option).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.core.cp_game import CPPartitionGame, PartitionOutcome
from repro.core.strategy import ISPStrategy, NEUTRAL_STRATEGY
from repro.core.surplus import SurplusBreakdown, welfare_report
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = ["MonopolyOutcome", "MonopolyGame"]


@dataclass(frozen=True)
class MonopolyOutcome:
    """Outcome of the monopoly game for one ISP strategy."""

    strategy: ISPStrategy
    partition: PartitionOutcome

    @property
    def consumer_surplus(self) -> float:
        """Per-capita consumer surplus ``Phi``."""
        return self.partition.consumer_surplus

    @property
    def isp_surplus(self) -> float:
        """Per-capita ISP revenue ``Psi`` from the premium class."""
        return self.partition.isp_surplus

    @property
    def premium_saturated(self) -> bool:
        return self.partition.premium_saturated

    @property
    def capacity_utilization(self) -> float:
        return self.partition.capacity_utilization

    @property
    def premium_provider_count(self) -> int:
        return len(self.partition.premium_indices)

    def welfare(self) -> SurplusBreakdown:
        return welfare_report(self.partition)


class MonopolyGame:
    """The two-stage game ``(M, mu, N, I)`` with a single last-mile ISP.

    Parameters
    ----------
    population:
        The content providers ``N``.
    nu:
        Per-capita capacity of the monopolist (``mu / M``).
    mechanism:
        Rate-allocation mechanism within each service class (defaults to
        max-min fair, as in the paper).
    equilibrium_kind:
        ``"competitive"`` (Definition 3, default) or ``"nash"``
        (Definition 2) for the second stage.
    config:
        Solver configuration threaded into every second-stage solve.
    """

    def __init__(self, population: Population, nu: float,
                 mechanism: Optional[CommonCapAllocation] = None,
                 equilibrium_kind: str = "competitive",
                 config: Optional[SolverConfig] = None) -> None:
        if not math.isfinite(nu) or nu < 0.0:
            raise ModelValidationError(f"nu must be non-negative, got {nu!r}")
        if equilibrium_kind not in ("competitive", "nash"):
            raise ModelValidationError(
                f"equilibrium_kind must be 'competitive' or 'nash', got {equilibrium_kind!r}"
            )
        self.population = population
        self.nu = float(nu)
        self.mechanism = mechanism
        self.equilibrium_kind = equilibrium_kind
        self.config = resolve_config(config)

    # ------------------------------------------------------------------ #
    # Second-stage outcomes
    # ------------------------------------------------------------------ #
    def outcome(self, strategy: ISPStrategy) -> MonopolyOutcome:
        """Outcome (second-stage equilibrium) for one first-stage strategy.

        Second-stage solves run on the batched equilibrium engine: partition
        outcomes and class caps are memoised across strategies and
        capacities, so grid searches (``price_sweep``, ``revenue_optimal``,
        ``verify_kappa_dominance``) never re-solve a sub-problem.
        """
        game = CPPartitionGame(self.population, self.nu, strategy, self.mechanism,
                               config=self.config)
        if self.equilibrium_kind == "nash":
            partition = game.nash_equilibrium()
        else:
            partition = game.competitive_equilibrium()
        return MonopolyOutcome(strategy=strategy, partition=partition)

    def neutral_outcome(self) -> MonopolyOutcome:
        """Outcome under strict network-neutral regulation (``kappa = 0``)."""
        return self.outcome(NEUTRAL_STRATEGY)

    def price_sweep(self, prices: Iterable[float], kappa: float = 1.0
                    ) -> List[MonopolyOutcome]:
        """Outcomes over a price grid at fixed ``kappa`` (Figure 4)."""
        return [self.outcome(ISPStrategy(kappa, float(price))) for price in prices]

    def capacity_sweep(self, strategy: ISPStrategy, nus: Iterable[float]
                       ) -> List[MonopolyOutcome]:
        """Outcomes of the same strategy at different capacities (Figure 5)."""
        outcomes = []
        for nu in nus:
            game = MonopolyGame(self.population, float(nu), self.mechanism,
                                self.equilibrium_kind, config=self.config)
            outcomes.append(game.outcome(strategy))
        return outcomes

    # ------------------------------------------------------------------ #
    # First-stage optimisation (backward induction over a strategy grid)
    # ------------------------------------------------------------------ #
    def _best_by(self, strategies: Sequence[ISPStrategy], key: str
                 ) -> Tuple[MonopolyOutcome, List[MonopolyOutcome]]:
        if not strategies:
            raise ModelValidationError("strategy grid must not be empty")
        outcomes = [self.outcome(s) for s in strategies]
        if key == "isp_surplus":
            # Break revenue ties in favour of the consumer (higher Phi), then
            # lower kappa — the least intrusive of the revenue-equal options.
            best = max(outcomes, key=lambda o: (o.isp_surplus, o.consumer_surplus,
                                                -o.strategy.kappa))
        else:
            best = max(outcomes, key=lambda o: (o.consumer_surplus, -o.isp_surplus,
                                                -o.strategy.kappa))
        return best, outcomes

    def revenue_optimal(self, strategies: Sequence[ISPStrategy]
                        ) -> MonopolyOutcome:
        """The monopolist's revenue-maximising strategy over a grid."""
        best, _ = self._best_by(strategies, "isp_surplus")
        return best

    def surplus_optimal(self, strategies: Sequence[ISPStrategy]
                        ) -> MonopolyOutcome:
        """The consumer-surplus-maximising strategy over a grid."""
        best, _ = self._best_by(strategies, "consumer_surplus")
        return best

    def optimal_price(self, prices: Sequence[float], kappa: float = 1.0
                      ) -> MonopolyOutcome:
        """Revenue-optimal price at a fixed capacity split ``kappa``."""
        strategies = [ISPStrategy(kappa, float(price)) for price in prices]
        return self.revenue_optimal(strategies)

    # ------------------------------------------------------------------ #
    # Theorem 4: kappa-dominance
    # ------------------------------------------------------------------ #
    def verify_kappa_dominance(self, price: float,
                               kappas: Sequence[float],
                               tolerance: float = 1e-9) -> Dict[str, Any]:
        """Numerically check Theorem 4 at a fixed price.

        Returns a report with the revenue at each ``kappa``; ``holds`` is
        true when ``kappa = 1`` achieves (weakly) the highest revenue among
        the supplied capacity splits.
        """
        kappa_values = sorted(set(float(k) for k in kappas) | {1.0})
        revenues = {}
        for kappa in kappa_values:
            revenues[kappa] = self.outcome(ISPStrategy(kappa, price)).isp_surplus
        top = revenues[1.0]
        holds = all(top >= revenue - tolerance * max(1.0, abs(revenue))
                    for revenue in revenues.values())
        return {"price": price, "revenues": revenues, "holds": holds}

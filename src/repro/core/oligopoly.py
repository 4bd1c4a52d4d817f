"""Oligopolistic ISP competition (Section IV-B).

All ISPs choose non-neutral strategies simultaneously; consumers migrate
until per-capita consumer surplus equalises; CPs pick a service class at
each ISP.  The paper shows:

* **Lemma 4** — if every ISP uses the same strategy, market shares equal to
  the capacity shares (``m_I = gamma_I``) form an equilibrium, so ISPs gain
  market share by investing in capacity;
* **Theorem 6 / Corollary 1** — an ISP's best response for market share is
  an ``epsilon``-best response for consumer surplus (and vice versa), where
  ``epsilon`` is the small surplus discontinuity of Equation (9): under
  competition, selfish strategies are closely aligned with consumer welfare
  and neutrality regulation is unnecessary.

:class:`OligopolyGame` evaluates strategy profiles, finds best responses
over a strategy grid and iterates them to a (grid-restricted) Nash
equilibrium in market shares or in consumer surplus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.core.migration import IspConfig, MarketSplit, solve_market_split
from repro.core.strategy import ISPStrategy
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = ["OligopolyOutcome", "OligopolyGame",
           "OLIGOPOLY_MIGRATION_TOLERANCE", "OLIGOPOLY_MIGRATION_ITERATIONS"]

#: The oligopoly's documented migration-tolerance default: the multi-ISP
#: tatonnement converges on the small surplus discontinuities of
#: Equation (9), so it runs at a looser tolerance than the duopoly's exact
#: share bisection (``DUOPOLY_MIGRATION_TOLERANCE`` = 1e-4).
OLIGOPOLY_MIGRATION_TOLERANCE = 1e-3

#: Step budget of the migration solve (a share bisection for two ISPs, a
#: tatonnement for three or more).  The bisection's share-width rule stops
#: it within 17 steps, so the budget binds only the tatonnement.
OLIGOPOLY_MIGRATION_ITERATIONS = 150

#: Slack allowed when checking that capacity shares sum to one.
_SHARE_SUM_TOLERANCE = 1e-9

#: Floor of the relative-surplus scale in the imposed-shares diagnostic.
_SURPLUS_SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class OligopolyOutcome:
    """Equilibrium outcome of the oligopoly for one strategy profile."""

    strategies: Dict[str, ISPStrategy]
    capacity_shares: Dict[str, float]
    split: MarketSplit
    total_nu: float

    @property
    def market_shares(self) -> Dict[str, float]:
        """Market share ``m_I`` of every ISP."""
        return dict(self.split.shares)

    @property
    def consumer_surplus(self) -> float:
        """System-wide per-capita consumer surplus."""
        return self.split.consumer_surplus

    def isp_surplus(self, name: str) -> float:
        """Whole-market per-capita premium revenue of one ISP."""
        return self.split.isp_surplus(name)

    def market_share(self, name: str) -> float:
        return self.split.share(name)

    @property
    def share_capacity_gap(self) -> float:
        """Largest ``|m_I - gamma_I|`` across ISPs (zero under Lemma 4)."""
        return max(abs(self.split.share(name) - self.capacity_shares[name])
                   for name in self.capacity_shares)

    @property
    def converged(self) -> bool:
        return self.split.converged


class OligopolyGame:
    """Multi-ISP competition game ``(M, mu, N, I)``.

    Parameters
    ----------
    population:
        The content providers ``N``.
    total_nu:
        System-wide per-capita capacity.
    capacity_shares:
        Mapping from ISP name to its capacity share ``gamma_I``; the shares
        must sum to 1.
    config:
        Solver configuration threaded into every layer below.  Its
        ``migration_tolerance`` sets the surplus-equalisation tolerance of
        the migration solve (``self.migration_tolerance``); when it is
        ``None`` the game keeps :data:`OLIGOPOLY_MIGRATION_TOLERANCE` (1e-3).
    """

    def __init__(self, population: Population, total_nu: float,
                 capacity_shares: Mapping[str, float],
                 mechanism: Optional[CommonCapAllocation] = None,
                 *, config: Optional[SolverConfig] = None) -> None:
        if not math.isfinite(total_nu) or total_nu < 0.0:
            raise ModelValidationError(
                f"total_nu must be non-negative, got {total_nu!r}")
        if not capacity_shares:
            raise ModelValidationError("at least one ISP is required")
        total = sum(capacity_shares.values())
        if abs(total - 1.0) > _SHARE_SUM_TOLERANCE:
            raise ModelValidationError(
                f"capacity shares must sum to 1, got {total!r}")
        for name, share in capacity_shares.items():
            if share <= 0.0:
                raise ModelValidationError(
                    f"capacity share of {name!r} must be positive")
        self.population = population
        self.total_nu = float(total_nu)
        self.capacity_shares = dict(capacity_shares)
        self.mechanism = mechanism
        self.config = resolve_config(config)
        self.migration_tolerance = (
            self.config.migration_tolerance
            if self.config.migration_tolerance is not None
            else OLIGOPOLY_MIGRATION_TOLERANCE)

    # ------------------------------------------------------------------ #
    def outcome(self, strategies: Mapping[str, ISPStrategy]) -> OligopolyOutcome:
        """Migration + class-selection equilibrium for a strategy profile."""
        missing = set(self.capacity_shares) - set(strategies)
        if missing:
            raise ModelValidationError(f"missing strategies for ISPs: {sorted(missing)}")
        isps = tuple(
            IspConfig(name, strategies[name], self.capacity_shares[name])
            for name in self.capacity_shares
        )
        split = solve_market_split(
            self.population, self.total_nu, isps, self.mechanism,
            tolerance=self.migration_tolerance,
            max_iterations=OLIGOPOLY_MIGRATION_ITERATIONS,
            config=self.config,
        )
        return OligopolyOutcome(strategies=dict(strategies),
                                capacity_shares=dict(self.capacity_shares),
                                split=split, total_nu=self.total_nu)

    def homogeneous_outcome(self, strategy: ISPStrategy) -> OligopolyOutcome:
        """Outcome when every ISP plays the same strategy (Lemma 4's setting)."""
        return self.outcome({name: strategy for name in self.capacity_shares})

    # ------------------------------------------------------------------ #
    # Best responses and grid-restricted Nash equilibria
    # ------------------------------------------------------------------ #
    def _score(self, outcome: OligopolyOutcome, isp_name: str,
               objective: str) -> Tuple[float, float]:
        if objective == "market_share":
            return (outcome.market_share(isp_name), outcome.consumer_surplus)
        return (outcome.consumer_surplus, outcome.market_share(isp_name))

    def best_response(self, isp_name: str,
                      strategies: Mapping[str, ISPStrategy],
                      candidates: Sequence[ISPStrategy],
                      objective: str = "market_share"
                      ) -> Tuple[ISPStrategy, OligopolyOutcome, List[OligopolyOutcome]]:
        """Best response of one ISP against a fixed profile of the others.

        Returns the best candidate strategy, its outcome, and the outcomes of
        every candidate (useful for the Theorem-6 alignment benchmarks).
        """
        if objective not in ("market_share", "consumer_surplus"):
            raise ModelValidationError(
                "objective must be 'market_share' or 'consumer_surplus', "
                f"got {objective!r}")
        if isp_name not in self.capacity_shares:
            raise ModelValidationError(f"unknown ISP {isp_name!r}")
        if not candidates:
            raise ModelValidationError("candidate strategy list must not be empty")
        outcomes: List[OligopolyOutcome] = []
        for candidate in candidates:
            profile = dict(strategies)
            profile[isp_name] = candidate
            outcomes.append(self.outcome(profile))
        best = max(outcomes, key=lambda o: self._score(o, isp_name, objective))
        return best.strategies[isp_name], best, outcomes

    def find_nash_equilibrium(self, candidates: Sequence[ISPStrategy],
                              objective: str = "market_share",
                              initial: Optional[Mapping[str, ISPStrategy]] = None,
                              max_rounds: int = 5
                              ) -> Tuple[Dict[str, ISPStrategy], OligopolyOutcome, bool]:
        """Iterated best response over a finite strategy grid.

        Returns the final profile, its outcome and whether the profile is a
        fixed point of the best-response map (i.e. a grid-restricted Nash
        equilibrium in the chosen objective) within ``max_rounds`` rounds.
        """
        if not candidates:
            raise ModelValidationError("candidate strategy list must not be empty")
        profile: Dict[str, ISPStrategy] = (
            dict(initial) if initial is not None
            else {name: candidates[0] for name in self.capacity_shares}
        )
        converged = False
        for _ in range(max_rounds):
            changed = False
            for name in self.capacity_shares:
                best, _, _ = self.best_response(name, profile, candidates, objective)
                if best != profile[name]:
                    profile[name] = best
                    changed = True
            if not changed:
                converged = True
                break
        return profile, self.outcome(profile), converged

    # ------------------------------------------------------------------ #
    # Lemma 4 verification
    # ------------------------------------------------------------------ #
    def verify_proportional_shares(self, strategy: ISPStrategy,
                                   tolerance: float = 5e-3) -> Dict[str, Any]:
        """Check Lemma 4: ``m_I = gamma_I`` is an equilibrium under homogeneous
        strategies.

        Lemma 4 states that the capacity-proportional split *is* an
        equilibrium (it need not be unique: when capacity is abundant the
        surplus curve flattens and a continuum of splits equalises surplus).
        The check therefore imposes ``m_I = gamma_I`` and verifies the
        equilibrium condition of Definition 4 — every ISP delivers the same
        per-capita consumer surplus, within ``tolerance`` (relative).  The
        migration solver's own equilibrium is reported alongside for
        reference.
        """
        from repro.core.migration import isp_outcome_at_share

        outcomes = {}
        for name, gamma in self.capacity_shares.items():
            isp = IspConfig(name, strategy, gamma)
            outcomes[name] = isp_outcome_at_share(
                self.population, self.total_nu, isp, gamma, self.mechanism,
                config=self.config)
        surpluses = {name: outcome.consumer_surplus
                     for name, outcome in outcomes.items()}
        values = list(surpluses.values())
        scale = max(max(abs(v) for v in values), _SURPLUS_SCALE_FLOOR)
        gap = (max(values) - min(values)) / scale
        solver_outcome = self.homogeneous_outcome(strategy)
        return {
            "strategy": strategy,
            "capacity_shares": dict(self.capacity_shares),
            "imposed_surpluses": surpluses,
            "max_gap": gap,
            "holds": gap <= tolerance,
            "market_shares": solver_outcome.market_shares,
            "outcome": solver_outcome,
        }

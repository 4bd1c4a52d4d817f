"""Second-stage game: content providers choose a service class.

Given an ISP strategy ``s_I = (kappa, c)``, every content provider (CP)
simultaneously decides whether to join the free *ordinary* class (capacity
share ``1 - kappa``) or the charged *premium* class (capacity share
``kappa``, price ``c`` per unit traffic).  The paper analyses this
simultaneous-move game under two solution concepts:

* the **Nash equilibrium** of Definition 2, where each CP evaluates its
  exact ex-post throughput in either class (including its own impact on the
  class's congestion); and
* the **competitive ("throughput-taking") equilibrium** of Definition 3,
  appropriate when the number of CPs is large: a CP estimates its ex-post
  throughput from the class's current congestion level, exactly as a
  price-taking firm treats the market price as given.  Under the max-min
  fair mechanism the natural estimate is ``theta_i = min(theta_hat_i, t)``
  where ``t`` is the class's common throughput cap.

Ties are always broken towards the ordinary class, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.cache import LRUCache
from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.core.strategy import ISPStrategy
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    StrictPriorityAllocation,
)
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    cached_class_cap,
    class_cap,
    common_cap_profile,
    mechanism_cache_key,
)
from repro.network.provider import Population

__all__ = [
    "PartitionOutcome",
    "CPPartitionGame",
    "competitive_equilibrium",
    "nash_equilibrium",
]

#: Relative tolerance used when comparing CP utilities across classes — the
#: documented default of ``SolverConfig.surplus_tolerance``; per game it is
#: read from the config.
_UTILITY_TOLERANCE = 1e-9

#: Relative slack on the premium class's capacity-saturation predicate.
_SATURATION_TOLERANCE = 1e-6

#: Floor of the relative-utility scale, guarding zero-utility CPs.
_UTILITY_SCALE_FLOOR = 1e-12

#: Memoised second-stage outcomes.  The game is deterministic in its inputs,
#: so sharing an outcome across identical (population, nu, strategy, solver
#: configuration) queries is exact — the sweep and migration layers hit this
#: constantly (e.g. the Public Option ISP's outcome is identical across every
#: price grid point of Figure 7).
_PARTITION_CACHE = LRUCache(maxsize=512, name="partition_outcomes")

#: Damped best-response rounds before the competitive solver falls back to
#: sequential repair.
_MAX_ITERATIONS = 80

#: Moves per CP the competitive solver's sequential repair may make in all.
_REPAIR_MOVES_PER_CP = 4

#: Sequential best-response passes before the Nash solver gives up.
_MAX_PASSES = 50


@dataclass(frozen=True)
class PartitionOutcome:
    """Equilibrium outcome of the second-stage CP partition game.

    The outcome records which providers joined the premium class
    (``premium_mask``), each provider's per-capita rate
    ``alpha_i d_i theta_i`` at the rate equilibrium of its own class
    (``rates``, parent population order) and how the partition was
    obtained.  Both arrays are read-only; every class quantity is a masked
    sum of them.  All surplus quantities are per capita (divide-by-``M``
    form of the paper).
    """

    population: Population
    nu: float
    strategy: ISPStrategy
    premium_mask: np.ndarray
    rates: np.ndarray
    equilibrium_kind: str = "competitive"
    converged: bool = True
    iterations: int = 0

    @property
    def ordinary_indices(self) -> Tuple[int, ...]:
        """Indices of the providers in the ordinary class, ascending."""
        return tuple(np.flatnonzero(~self.premium_mask).tolist())

    @property
    def premium_indices(self) -> Tuple[int, ...]:
        """Indices of the providers in the premium class, ascending."""
        return tuple(np.flatnonzero(self.premium_mask).tolist())

    # ---------------------------------------------------------------- #
    # Capacity bookkeeping
    # ---------------------------------------------------------------- #
    @property
    def ordinary_capacity(self) -> float:
        """Per-capita capacity of the ordinary class, ``(1 - kappa) nu``."""
        return (1.0 - self.strategy.kappa) * self.nu

    @property
    def premium_capacity(self) -> float:
        """Per-capita capacity of the premium class, ``kappa nu``."""
        return self.strategy.kappa * self.nu

    @property
    def ordinary_carried_rate(self) -> float:
        """Per-capita aggregate rate carried in the ordinary class."""
        return float(np.sum(self.rates[~self.premium_mask]))

    @property
    def premium_carried_rate(self) -> float:
        """Per-capita aggregate rate carried in the premium class."""
        return float(np.sum(self.rates[self.premium_mask]))

    @property
    def aggregate_rate(self) -> float:
        """Total per-capita carried rate across both classes."""
        return self.ordinary_carried_rate + self.premium_carried_rate

    @property
    def premium_saturated(self) -> bool:
        """True when the premium class capacity is fully used (``lambda_P = kappa mu``)."""
        capacity = self.premium_capacity
        if capacity <= 0.0:
            return True
        return self.premium_carried_rate >= capacity * (1.0 - _SATURATION_TOLERANCE)

    @property
    def capacity_utilization(self) -> float:
        """Fraction of the total per-capita capacity carried across classes."""
        if self.nu <= 0.0:
            return 0.0
        return min(1.0, self.aggregate_rate / self.nu)

    # ---------------------------------------------------------------- #
    # Welfare
    # ---------------------------------------------------------------- #
    @property
    def consumer_surplus(self) -> float:
        """Per-capita consumer surplus ``Phi = Phi((1-kappa)nu, O) + Phi(kappa nu, P)``."""
        surplus = self.population.utility_rates * self.rates
        return (float(np.sum(surplus[~self.premium_mask]))
                + float(np.sum(surplus[self.premium_mask])))

    @property
    def isp_surplus(self) -> float:
        """Per-capita ISP surplus ``Psi = c * lambda_P / M`` (CP-side revenue)."""
        return self.strategy.price * self.premium_carried_rate

    def cp_utilities(self) -> dict[str, float]:
        """Per-capita CP profits (Equation 4 divided by ``M``), keyed by name.

        Ordinary-class providers come first, each class in index order.
        """
        prices = np.where(self.premium_mask, self.strategy.price, 0.0)
        profits = (self.population.revenue_rates - prices) * self.rates
        names = self.population.names
        return {names[i]: float(profits[i])
                for i in self.ordinary_indices + self.premium_indices}

    def assignment_by_name(self) -> dict[str, str]:
        """Mapping from CP name to its class (``"ordinary"`` / ``"premium"``)."""
        names = self.population.names
        assignment = {names[i]: "ordinary" for i in self.ordinary_indices}
        assignment.update({names[i]: "premium" for i in self.premium_indices})
        return assignment

    @property
    def premium_share_of_providers(self) -> float:
        """Fraction of CPs that joined the premium class."""
        total = len(self.population)
        return int(np.count_nonzero(self.premium_mask)) / total if total else 0.0


class CPPartitionGame:
    """The second-stage simultaneous-move game ``(M, mu, N, s_I)``.

    Parameters
    ----------
    population:
        The content providers ``N``.
    nu:
        Per-capita capacity of the ISP serving this consumer group.
    strategy:
        The ISP's first-stage strategy ``(kappa, c)``.
    mechanism:
        Rate-allocation mechanism inside each class; defaults to max-min
        fairness as in the paper.  Strict priority is rejected with
        :class:`ModelValidationError`: its level is a position in one
        population's priority order, with no meaning shared by the CPs of
        different classes.
    config:
        Solver configuration (tolerances, cache policy); ``None`` uses the
        ambient/default config.

    Under the competitive equilibrium (Definition 3) a CP estimates its
    ex-post throughput in a class from the class's congestion level: it
    takes ``mechanism.theta_at_cap(population, t)`` at the class's
    Theorem-1 cap ``t`` (``+inf`` when the class is uncongested) — under
    max-min fairness ``min(theta_hat_i, t)``.  A member's estimate is
    therefore exactly its own throughput at the class's rate equilibrium.

    That equilibrium is an idealisation for a large number of *small* CPs:
    a provider whose own traffic is comparable to a class's capacity shifts
    the class's congestion when it moves, so an exact throughput-taking
    fixed point need not exist.  A CP therefore switches only when its
    relative gain exceeds ``max(config.switching_tolerance, impact_i)``,
    where ``impact_i`` is its unconstrained load relative to the
    destination class capacity — an epsilon-equilibrium whose slack per CP
    matches the error of the throughput-taking approximation for that CP.
    For the paper's 1000-CP workload the slack is negligible (< 1%).

    A game keeps the class caps it solves in a dict of its own, keyed by
    ``(class nu, packed class mask)``: its best-response rounds revisit the
    same classes many times, while another game almost never asks for one
    of them.  Only a class holding every CP reads the shared full-population
    cap cache.  Under max-min fairness every ``rho`` row of the
    throughput-taking utilities comes from the population's sorted profile
    when every CP has Equation-(3) demand.
    """

    def __init__(self, population: Population, nu: float, strategy: ISPStrategy,
                 mechanism: Optional[CommonCapAllocation] = None,
                 config: Optional[SolverConfig] = None) -> None:
        if not math.isfinite(nu) or nu < 0.0:
            raise ModelValidationError(f"nu must be non-negative, got {nu!r}")
        if isinstance(mechanism, StrictPriorityAllocation):
            raise ModelValidationError(
                "strict priority has no class level shared across classes")
        self.population = population
        self.nu = float(nu)
        self.strategy = strategy
        self.mechanism = mechanism if mechanism is not None else MaxMinFairAllocation()
        self.config = resolve_config(config)
        self._alphas = population.alphas
        self._revenues = population.revenue_rates
        self._premium_margins = self._revenues - strategy.price
        own_load = self._alphas * population.theta_hats
        self._margin_into_premium = self._move_slack(own_load, self.premium_nu)
        self._margin_into_ordinary = self._move_slack(own_load, self.ordinary_nu)
        # No outcome refers back to the game, so this memo dies with it.
        self._caps: dict[tuple[float, bytes], float] = {}
        profile = common_cap_profile(population, self.mechanism)
        self._profile = (profile if isinstance(profile, ExponentialMaxMinProfile)
                         else None)

    # ------------------------------------------------------------------ #
    # Class-level helpers
    # ------------------------------------------------------------------ #
    @property
    def ordinary_nu(self) -> float:
        return (1.0 - self.strategy.kappa) * self.nu

    @property
    def premium_nu(self) -> float:
        return self.strategy.kappa * self.nu

    def _move_slack(self, own_load: np.ndarray,
                    destination_nu: float) -> np.ndarray:
        """Per-CP relative slack when evaluating a move into a class.

        A CP's move shifts the destination class's congestion by roughly its
        own unconstrained load divided by the class capacity; its
        throughput-taking utility estimate carries an error of that order,
        so requiring a gain larger than it is the natural epsilon for the
        competitive equilibrium with finitely many, possibly heavy, CPs.
        """
        if destination_nu <= 0.0:
            impact = np.ones_like(own_load)
        else:
            # Clip before dividing: ``own_load / destination_nu`` overflows
            # at a subnormal class capacity, and the quotient is the same.
            impact = np.minimum(own_load, destination_nu) / destination_nu
        return np.maximum(self.config.switching_tolerance, impact)

    def _class_cap_for_mask(self, mask: np.ndarray, count: int,
                            class_nu: float) -> float:
        """Throughput level a joining CP would take as given (Assumption 3).

        ``mask`` selects the class's ``count`` members; the cap comes from
        :meth:`_class_cap`, so no index tuples are built per iteration.
        """
        if class_nu <= 0.0:
            return 0.0
        if count == 0:
            return math.inf
        return self._class_cap(mask, class_nu)

    def _class_cap(self, mask: np.ndarray, class_nu: float) -> float:
        """Theorem-1 cap of the non-empty class ``mask`` at ``class_nu > 0``,
        memoised per game (under ``cache_policy="bypass"`` too: the memo is
        private to one solve)."""
        key = (class_nu, np.packbits(mask).tobytes())
        cap = self._caps.get(key)
        if cap is None:
            if mask.all():
                cap = cached_class_cap(self.population, class_nu,
                                       self.mechanism, config=self.config)
            else:
                cap = class_cap(self.population, mask, class_nu,
                                self.mechanism, config=self.config)
            self._caps[key] = cap
        return cap

    def _class_rhos(self, mask: np.ndarray, class_nu: float) -> np.ndarray:
        """``rho_i = d_i theta_i`` of the class members at the class's rate
        equilibrium, in index order: the members' entries of
        :meth:`_rho_at_cap` at the class's Theorem-1 cap — the arrays the
        best-response loops already hold."""
        count = int(np.count_nonzero(mask))
        if count == 0:
            return np.zeros(0)
        return self._rho_at_cap(
            self._class_cap_for_mask(mask, count, class_nu))[mask]

    def _rho_at_cap(self, cap: float) -> np.ndarray:
        """Per-user-base throughput ``rho_i`` every CP expects at a class
        cap: off the sorted profile under max-min fairness when every CP
        has Equation-(3) demand, otherwise at the mechanism's throughputs
        :meth:`~repro.network.allocation.CommonCapAllocation.theta_at_cap`."""
        if self._profile is not None:
            return self._profile.rhos_at(cap)
        thetas = self.mechanism.theta_at_cap(self.population, cap)
        return self.population.demands_at(thetas) * thetas

    def _build_outcome(self, mask: np.ndarray, kind: str, converged: bool,
                       iterations: int) -> PartitionOutcome:
        rhos = np.empty(len(mask))
        rhos[~mask] = self._class_rhos(~mask, self.ordinary_nu)
        rhos[mask] = self._class_rhos(mask, self.premium_nu)
        rates = self._alphas * rhos
        premium_mask = mask.copy()
        rates.flags.writeable = False
        premium_mask.flags.writeable = False
        return PartitionOutcome(
            population=self.population,
            nu=self.nu,
            strategy=self.strategy,
            premium_mask=premium_mask,
            rates=rates,
            equilibrium_kind=kind,
            converged=converged,
            iterations=iterations,
        )

    def _memoised(self, kind: str,
                  solve: Callable[[], PartitionOutcome]) -> PartitionOutcome:
        """``solve()`` through the shared outcome cache.

        The key holds everything that can influence the outcome, so a hit
        is exact: population (immutable), capacity, strategy, mechanism (by
        value), solver configuration and solution concept.
        """
        if self.config.cache_policy == "bypass":
            return solve()
        key = (self.population, self.nu, self.strategy.kappa,
               self.strategy.price, mechanism_cache_key(self.mechanism),
               self.config.cache_key(), kind)
        return _PARTITION_CACHE.get_or_compute(key, solve)  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Competitive (throughput-taking) equilibrium — Definition 3
    # ------------------------------------------------------------------ #
    def _best_responses(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Condition (8) at the partition ``mask``: ``(violators, gaps)``.

        Both classes' caps fix every CP's throughput-taking utilities
        ``u_O = v_i rho_i(cap_O)`` and ``u_P = (v_i - c) rho_i(cap_P)``; the
        gap is ``|u_P - u_O|``.  An ordinary CP violates the condition when
        the premium class is better by more than its move slack; a premium
        CP when the ordinary class is at least as good up to its slack.
        Exact ties break towards the ordinary class (the paper's rule), even
        though near-ties inside the hysteresis band stay put.
        """
        premium_count = int(np.count_nonzero(mask))
        cap_ordinary = self._class_cap_for_mask(
            ~mask, len(mask) - premium_count, self.ordinary_nu)
        cap_premium = self._class_cap_for_mask(
            mask, premium_count, self.premium_nu)
        ordinary_utility = self._revenues * self._rho_at_cap(cap_ordinary)
        premium_utility = self._premium_margins * self._rho_at_cap(cap_premium)
        scale = np.maximum(_UTILITY_SCALE_FLOOR,
                           np.maximum(np.abs(ordinary_utility),
                                      np.abs(premium_utility)))
        wants_premium = (premium_utility
                         > ordinary_utility + self._margin_into_premium * scale)
        wants_ordinary = (premium_utility
                          <= ordinary_utility - self._margin_into_ordinary * scale)
        gaps = np.abs(premium_utility - ordinary_utility)
        wants_ordinary |= gaps <= self.config.surplus_tolerance * np.maximum(1.0, scale)
        return np.where(mask, wants_ordinary, wants_premium), gaps

    def competitive_equilibrium(self) -> PartitionOutcome:
        """Compute a competitive equilibrium partition (Definition 3).

        The solver starts from every CP that can afford the price and
        iterates damped synchronous best responses against the current class
        congestion caps; if the iteration cycles (which can happen for
        marginal CPs), it falls back to a sequential repair phase that moves
        one violating CP at a time, which terminates at a partition where at
        most a numerically negligible set of CPs would still want to switch.

        Outcomes are memoised in a shared LRU cache: the game is
        deterministic, so identical queries return the identical outcome.
        """
        return self._memoised("competitive", self._solve_competitive)

    def _solve_competitive(self) -> PartitionOutcome:
        size = len(self.population)
        if size == 0 or self.nu == 0.0 or self.strategy.kappa == 0.0:
            # Trivial profile: nothing to share, or no premium capacity to sell.
            return self._build_outcome(np.zeros(size, dtype=bool),
                                       "competitive", True, 0)
        mask = self._revenues > self.strategy.price
        seen: set[bytes] = set()
        iterations = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            violators, gaps = self._best_responses(mask)
            if not np.any(violators):
                return self._build_outcome(mask, "competitive", True, iterations)
            # Damped tatonnement: switch only the half of the violators with
            # the largest gains.  Switching everyone at once tends to
            # overshoot (the premium class empties and refills), whereas the
            # damped update converges in a handful of rounds.
            violator_indices = np.flatnonzero(violators)
            keep = max(1, (len(violator_indices) + 1) // 2)
            movers = violator_indices[
                np.argsort(gaps[violator_indices])[::-1][:keep]]
            mask = mask.copy()
            mask[movers] = ~mask[movers]
            key = mask.tobytes()
            if key in seen:
                break
            seen.add(key)
        # Cycle (or iteration cap): repair sequentially.
        converged, moves = self._sequential_repair(
            mask, _REPAIR_MOVES_PER_CP * size)
        return self._build_outcome(mask, "competitive", converged,
                                   iterations + moves)

    def _sequential_repair(self, mask: np.ndarray, budget: int
                           ) -> Tuple[bool, int]:
        """Move one violating CP at a time (in place) until none remains.

        Each CP is allowed at most two moves during the repair phase; a
        marginal CP that keeps regretting its last move therefore settles
        after bouncing once, which (together with the hysteresis tolerance)
        guarantees termination.  Returns ``(converged, moves)``.
        """
        move_counts = np.zeros(len(mask), dtype=int)
        for moves in range(budget):
            violators, gaps = self._best_responses(mask)
            eligible = np.flatnonzero(violators & (move_counts < 2))
            if len(eligible) == 0:
                # No violator, or only bouncing marginal CPs: they sit inside
                # the O(1/N) band of the throughput-taking approximation.
                return True, moves
            mover = eligible[int(np.argmax(gaps[eligible]))]
            mask[mover] = ~mask[mover]
            move_counts[mover] += 1
        return False, budget

    def verify_competitive(self, outcome: PartitionOutcome) -> list[str]:
        """Names of CPs violating condition (8) beyond the solver tolerance."""
        violators, _ = self._best_responses(outcome.premium_mask)
        return [self.population.names[i] for i in np.flatnonzero(violators)]

    def expost_switch_gains(self, outcome: PartitionOutcome,
                            names: Optional[Iterable[str]] = None
                            ) -> dict[str, float]:
        """Exact relative gain each CP would realise by switching classes.

        Unlike the throughput-taking check of :meth:`verify_competitive`,
        this recomputes the destination class's equilibrium *with the CP
        included* (as in the Nash condition of Definition 2), so it measures
        the profit a CP would actually obtain by deviating.  A negative value
        means the deviation would hurt the CP.  By default only the
        throughput-taking violators are evaluated (the interesting cases);
        pass explicit names to audit any subset.
        """
        if names is None:
            names = self.verify_competitive(outcome)
        mask = outcome.premium_mask
        gains: dict[str, float] = {}
        for name in names:
            index = self.population.index_of(name)
            ordinary_utility, premium_utility = self._exact_utilities(index, mask)
            current, alternative = ((premium_utility, ordinary_utility)
                                    if mask[index]
                                    else (ordinary_utility, premium_utility))
            scale = max(abs(current), abs(alternative), _UTILITY_SCALE_FLOOR)
            gains[name] = (alternative - current) / scale
        return gains

    # ------------------------------------------------------------------ #
    # Nash equilibrium — Definition 2
    # ------------------------------------------------------------------ #
    def _exact_utilities(self, index: int, mask: np.ndarray
                         ) -> Tuple[float, float]:
        """CP ``index``'s exact ex-post utilities ``(u_O, u_P)``.

        ``mask`` marks the premium class; each class is recomputed with the
        CP included, whichever class it is in now (condition 7).
        """
        ordinary = ~mask
        premium = mask.copy()
        ordinary[index] = premium[index] = True
        revenue = float(self._revenues[index])
        return (revenue * self._member_rho(index, ordinary, self.ordinary_nu),
                (revenue - self.strategy.price)
                * self._member_rho(index, premium, self.premium_nu))

    def _member_rho(self, index: int, members: np.ndarray,
                    class_nu: float) -> float:
        """``rho`` of member ``index`` at the equilibrium of class ``members``."""
        position = int(np.count_nonzero(members[:index]))
        return float(self._class_rhos(members, class_nu)[position])

    def _prefers_premium(self, index: int, mask: np.ndarray) -> bool:
        """Condition (7): premium strictly better, ties to the ordinary class."""
        ordinary_utility, premium_utility = self._exact_utilities(index, mask)
        margin = self.config.surplus_tolerance * max(
            1.0, abs(premium_utility), abs(ordinary_utility))
        return premium_utility > ordinary_utility + margin

    def nash_equilibrium(self) -> PartitionOutcome:
        """Compute a Nash equilibrium partition by sequential best response.

        Every CP in turn evaluates its exact ex-post utility in both classes
        (recomputing the class equilibrium with itself included) and moves if
        strictly better off, ties breaking to the ordinary class.  The
        procedure stops when a full pass produces no move, and reports
        non-convergence after 50 passes.  Intended for small populations
        (tests, illustrations); the competitive equilibrium is the
        work-horse for the paper's 1000-CP experiments.  The class cap of
        every candidate deviation is solved once per game
        (:meth:`_class_cap`), and the outcome itself is memoised.
        """
        return self._memoised("nash", self._solve_nash)

    def _solve_nash(self) -> PartitionOutcome:
        size = len(self.population)
        mask = np.zeros(size, dtype=bool)
        if size == 0 or self.nu == 0.0 or self.strategy.kappa == 0.0:
            return self._build_outcome(mask, "nash", True, 0)
        for passes in range(1, _MAX_PASSES + 1):
            moved = False
            for i in range(size):
                wants_premium = self._prefers_premium(i, mask)
                if wants_premium != mask[i]:
                    mask[i] = wants_premium
                    moved = True
            if not moved:
                return self._build_outcome(mask, "nash", True, passes)
        return self._build_outcome(mask, "nash", False, _MAX_PASSES)

    def verify_nash(self, outcome: PartitionOutcome) -> list[str]:
        """Names of CPs violating the Nash condition (7) at the given outcome."""
        mask = outcome.premium_mask
        return [self.population.names[i] for i in range(len(mask))
                if self._prefers_premium(i, mask) != mask[i]]


def competitive_equilibrium(population: Population, nu: float,
                            strategy: ISPStrategy,
                            mechanism: Optional[CommonCapAllocation] = None,
                            config: Optional[SolverConfig] = None
                            ) -> PartitionOutcome:
    """Convenience wrapper: competitive equilibrium of ``(M, mu, N, s_I)``."""
    game = CPPartitionGame(population, nu, strategy, mechanism, config=config)
    return game.competitive_equilibrium()


def nash_equilibrium(population: Population, nu: float, strategy: ISPStrategy,
                     mechanism: Optional[CommonCapAllocation] = None,
                     config: Optional[SolverConfig] = None) -> PartitionOutcome:
    """Convenience wrapper: Nash equilibrium of ``(M, mu, N, s_I)``."""
    game = CPPartitionGame(population, nu, strategy, mechanism, config=config)
    return game.nash_equilibrium()

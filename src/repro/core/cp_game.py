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
from typing import Any, Iterable, Optional, Tuple

import numpy as np

from repro.cache import LRUCache
from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.core.strategy import ISPStrategy
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    RateAllocationMechanism,
)
from repro.network.equilibrium import (
    RateEquilibrium,
    cached_class_cap,
    mechanism_cache_key,
    solve_rate_equilibrium,
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
#: read from the config (``self._utility_tolerance``).
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
        fairness as in the paper.
    throughput_estimator:
        How a CP estimates its ex-post throughput in a class under the
        competitive equilibrium (Definition 3): ``"class_cap"`` (default)
        uses the class's equilibrium throughput cap (``+inf`` when the class
        is uncongested); ``"max_member"`` uses the maximum member throughput,
        which is the paper's literal rule and coincides with the cap whenever
        the class is congested.
    switching_tolerance:
        Base relative utility gain a CP requires before switching classes
        (default ``1e-6``).  The competitive equilibrium of Definition 3 is
        an idealisation for a large number of *small* CPs; a provider whose
        own traffic is comparable to a class's capacity shifts that class's
        congestion when it moves, so an exact throughput-taking fixed point
        need not exist.  The solver therefore requires a CP's gain to exceed
        ``max(switching_tolerance, impact_i)`` where ``impact_i`` is the
        CP's unconstrained load relative to the destination class capacity —
        i.e. it computes an epsilon-equilibrium whose slack per CP matches
        the error of the throughput-taking approximation for that CP.  For
        the paper's 1000-CP workload the slack is negligible (< 1%).
        ``None`` (the default) uses ``config.switching_tolerance`` (1e-6).
    config:
        Solver configuration (tolerances, cache policy);
        ``None`` uses the ambient/default config.  The explicit
        ``switching_tolerance`` keyword, when given, wins over the config.
    """

    def __init__(self, population: Population, nu: float, strategy: ISPStrategy,
                 mechanism: Optional[RateAllocationMechanism] = None,
                 throughput_estimator: str = "class_cap",
                 switching_tolerance: Optional[float] = None,
                 config: Optional[SolverConfig] = None) -> None:
        if not math.isfinite(nu) or nu < 0.0:
            raise ModelValidationError(f"nu must be non-negative, got {nu!r}")
        if throughput_estimator not in ("class_cap", "max_member"):
            raise ModelValidationError(
                "throughput_estimator must be 'class_cap' or 'max_member', "
                f"got {throughput_estimator!r}"
            )
        if switching_tolerance is not None and switching_tolerance < 0.0:
            raise ModelValidationError(
                f"switching_tolerance must be non-negative, got {switching_tolerance!r}"
            )
        self.population = population
        self.nu = float(nu)
        self.strategy = strategy
        self.mechanism = mechanism if mechanism is not None else MaxMinFairAllocation()
        self.throughput_estimator = throughput_estimator
        self.config = resolve_config(config)
        if switching_tolerance is None:
            switching_tolerance = self.config.switching_tolerance
        self.switching_tolerance = float(switching_tolerance)
        self._utility_tolerance = self.config.surplus_tolerance
        self._theta_hats = population.theta_hats
        self._alphas = population.alphas
        self._revenues = population.revenue_rates
        #: Per-cap ``rho_i`` memo: the best-response loops re-evaluate the
        #: same handful of caps while marginal CPs bounce between classes.
        self._rho_cache: dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Class-level helpers
    # ------------------------------------------------------------------ #
    @property
    def ordinary_nu(self) -> float:
        return (1.0 - self.strategy.kappa) * self.nu

    @property
    def premium_nu(self) -> float:
        return self.strategy.kappa * self.nu

    def _class_cap_for_mask(self, mask: np.ndarray, count: int,
                            class_nu: float) -> float:
        """Throughput level a joining CP would take as given (Assumption 3).

        ``mask`` selects the class's ``count`` members; it goes straight
        into the packed-bitmask key of the class-cap cache, so no index
        tuples or class ``Population`` objects are built per iteration.
        """
        if class_nu <= 0.0:
            return 0.0
        if count == 0:
            return math.inf
        if (self.throughput_estimator == "class_cap"
                and isinstance(self.mechanism, CommonCapAllocation)):
            return cached_class_cap(self.population, mask, class_nu,
                                    self.mechanism, config=self.config)
        return float(np.max(self._class_equilibrium(mask, class_nu).thetas))

    def _class_equilibrium(self, mask: np.ndarray, class_nu: float
                           ) -> RateEquilibrium:
        """Rate equilibrium of the class ``mask`` selects, solved directly."""
        members = (self.population if mask.all()
                   else self.population.subset(np.flatnonzero(mask)))
        return solve_rate_equilibrium(members, class_nu, self.mechanism,
                                      self.config)

    def _class_rhos(self, mask: np.ndarray, class_nu: float) -> np.ndarray:
        """``rho_i = d_i theta_i`` of the class members at the class's rate
        equilibrium, in index order.

        Under max-min fairness the equilibrium is ``theta_i = min(theta_hat_i,
        cap)`` at the class's Theorem-1 cap, so the row is read off
        :meth:`_rho_at_cap` — the arrays the best-response loops already
        hold.  Other mechanisms solve the class's sub-population.
        """
        if not mask.any():
            return np.zeros(0)
        if type(self.mechanism) is MaxMinFairAllocation:
            cap = 0.0
            if class_nu > 0.0:
                cap = cached_class_cap(self.population, mask, class_nu,
                                       self.mechanism, config=self.config)
            return self._rho_at_cap(cap)[mask]
        return self._class_equilibrium(mask, class_nu).rhos

    def _rho_at_cap(self, cap: float) -> np.ndarray:
        """Per-user-base throughput ``rho_i`` every CP expects at a class cap."""
        rho = self._rho_cache.get(cap)
        if rho is None:
            if math.isinf(cap):
                thetas = self._theta_hats.copy()
            else:
                thetas = np.minimum(self._theta_hats, cap)
            demands = self.population.demands_at(thetas)
            rho = demands * thetas
            if len(self._rho_cache) >= 256:
                self._rho_cache.clear()
            self._rho_cache[cap] = rho
        return rho

    def _class_utilities(self, cap_ordinary: float, cap_premium: float
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-CP utilities of being in the ordinary / premium class.

        Both are evaluated under the throughput-taking estimate (condition 8):
        ``u_O = v_i rho_i(cap_O)`` and ``u_P = (v_i - c) rho_i(cap_P)``.
        """
        rho_ordinary = self._rho_at_cap(cap_ordinary)
        rho_premium = self._rho_at_cap(cap_premium)
        ordinary_utility = self._revenues * rho_ordinary
        premium_utility = (self._revenues - self.strategy.price) * rho_premium
        return ordinary_utility, premium_utility

    def _impact_tolerance(self, destination_nu: float) -> np.ndarray:
        """Per-CP relative slack when evaluating a move into a class.

        A CP's move shifts the destination class's congestion by roughly its
        own unconstrained load divided by the class capacity; its
        throughput-taking utility estimate carries an error of that order,
        so requiring a gain larger than it is the natural epsilon for the
        competitive equilibrium with finitely many, possibly heavy, CPs.
        """
        own_load = self._alphas * self._theta_hats
        if destination_nu <= 0.0:
            impact = np.ones_like(own_load)
        else:
            # Clip before dividing: ``own_load / destination_nu`` overflows
            # at a subnormal class capacity, and the quotient is the same.
            impact = np.minimum(own_load, destination_nu) / destination_nu
        return np.maximum(self.switching_tolerance, impact)

    def _violators(self, mask: np.ndarray, cap_ordinary: float,
                   cap_premium: float) -> np.ndarray:
        """CPs that want to switch classes (with the impact-scaled tolerance).

        A CP in the ordinary class switches only if the premium class is
        strictly better by more than its tolerance; a CP in the premium class
        switches only if the ordinary class is at least as good up to its
        tolerance (the paper's tie-break sends indifferent CPs to the
        ordinary class).
        """
        ordinary_utility, premium_utility = self._class_utilities(
            cap_ordinary, cap_premium)
        return self._violators_from(mask, ordinary_utility, premium_utility)

    def _violators_from(self, mask: np.ndarray, ordinary_utility: np.ndarray,
                        premium_utility: np.ndarray) -> np.ndarray:
        """:meth:`_violators` from precomputed class utilities.

        The best-response loops need both the violator set and the utility
        gap (for damping), so they evaluate :meth:`_class_utilities` once per
        iteration and share the arrays between the two.
        """
        scale = np.maximum(_UTILITY_SCALE_FLOOR,
                           np.maximum(np.abs(ordinary_utility),
                                      np.abs(premium_utility)))
        margin_into_premium = self._impact_tolerance(self.premium_nu) * scale
        margin_into_ordinary = self._impact_tolerance(self.ordinary_nu) * scale
        wants_premium = premium_utility > ordinary_utility + margin_into_premium
        wants_ordinary = premium_utility <= ordinary_utility - margin_into_ordinary
        # Exact ties break towards the ordinary class (the paper's rule), even
        # though near-ties inside the hysteresis band stay put.
        exactly_tied = (np.abs(premium_utility - ordinary_utility)
                        <= self._utility_tolerance * np.maximum(1.0, scale))
        wants_ordinary = wants_ordinary | exactly_tied
        return np.where(mask, wants_ordinary, wants_premium)

    def _preferences(self, cap_ordinary: float, cap_premium: float) -> np.ndarray:
        """Boolean mask of CPs that strictly prefer the premium class.

        Implements condition (8) without hysteresis: a CP prefers the premium
        class only when ``(v_i - c) rho_i(premium) > v_i rho_i(ordinary)``;
        ties go to the ordinary class.  Used for the initial guess.
        """
        ordinary_utility, premium_utility = self._class_utilities(
            cap_ordinary, cap_premium)
        margin = self._utility_tolerance * np.maximum(
            1.0, np.maximum(np.abs(ordinary_utility), np.abs(premium_utility)))
        return premium_utility > ordinary_utility + margin

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

    # ------------------------------------------------------------------ #
    # Outcome memoisation
    # ------------------------------------------------------------------ #
    def _outcome_key(self, kind: str, extra: tuple[Any, ...]) -> tuple[Any, ...]:
        """Cache key identifying this game instance and solver configuration.

        Everything that can influence the computed outcome is included, so a
        cache hit is exact: population (immutable), capacity, strategy,
        mechanism (by value), estimator and tolerances, solution concept and
        the solver's iteration limits / warm start.
        """
        return (self.population, self.nu, self.strategy.kappa,
                self.strategy.price, mechanism_cache_key(self.mechanism),
                self.throughput_estimator, self.switching_tolerance,
                self.config.cache_key(), kind) + extra

    def _initial_key(self, initial_premium: Optional[Iterable[int]]
                     ) -> Optional[tuple[int, ...]]:
        """Sorted, de-duplicated warm-start indices, each in ``[0, n)``."""
        if initial_premium is None:
            return None
        indices = tuple(sorted({int(i) for i in initial_premium}))
        size = len(self.population)
        if indices and (indices[0] < 0 or indices[-1] >= size):
            raise ModelValidationError(
                f"initial_premium indices must lie in [0, {size}), got "
                f"{indices[0] if indices[0] < 0 else indices[-1]}")
        return indices

    # ------------------------------------------------------------------ #
    # Competitive (throughput-taking) equilibrium — Definition 3
    # ------------------------------------------------------------------ #
    def competitive_equilibrium(self, max_iterations: int = 80,
                                repair_budget: Optional[int] = None,
                                initial_premium: Optional[Iterable[int]] = None
                                ) -> PartitionOutcome:
        """Compute a competitive equilibrium partition (Definition 3).

        The solver iterates synchronous best responses against the current
        class congestion caps; if the iteration cycles (which can happen for
        marginal CPs), it falls back to a sequential repair phase that moves
        one violating CP at a time, which terminates at a partition where at
        most a numerically negligible set of CPs would still want to switch.

        ``initial_premium`` warm-starts the iteration from a known partition
        (e.g. the equilibrium at a nearby capacity).  The consumer-migration
        solver no longer passes one — repeated solves are served by the
        outcome cache below instead — but the parameter remains for callers
        that want to select a specific equilibrium.

        Outcomes are memoised in a shared LRU cache: the game is
        deterministic, so identical queries (including the warm start, which
        can select a different equilibrium) return the identical outcome.
        """
        initial_key = self._initial_key(initial_premium)
        if self.config.cache_policy == "bypass":
            return self._competitive_equilibrium_uncached(
                max_iterations, repair_budget, initial_key)
        key = self._outcome_key(
            "competitive", (max_iterations, repair_budget, initial_key))
        return _PARTITION_CACHE.get_or_compute(
            key, lambda: self._competitive_equilibrium_uncached(
                max_iterations, repair_budget, initial_key)
        )  # type: ignore[return-value]

    def _competitive_equilibrium_uncached(
            self, max_iterations: int, repair_budget: Optional[int],
            initial_premium: Optional[tuple[int, ...]]) -> PartitionOutcome:
        size = len(self.population)
        if size == 0 or self.nu == 0.0:
            return self._build_outcome(np.zeros(size, dtype=bool),
                                       "competitive", True, 0)
        if self.strategy.kappa == 0.0:
            # Trivial profile: there is no premium capacity to sell.
            return self._build_outcome(np.zeros(size, dtype=bool),
                                       "competitive", True, 0)

        if initial_premium is not None:
            mask = np.zeros(size, dtype=bool)
            mask[list(initial_premium)] = True
            # CPs that cannot afford the price never belong to the premium
            # class; dropping them keeps the warm start consistent.
            mask &= self._revenues > self.strategy.price
        else:
            mask = self._revenues > self.strategy.price
        seen: dict[bytes, int] = {}
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            premium_count = int(np.count_nonzero(mask))
            cap_ordinary = self._class_cap_for_mask(
                ~mask, size - premium_count, self.ordinary_nu)
            cap_premium = self._class_cap_for_mask(
                mask, premium_count, self.premium_nu)
            ordinary_utility, premium_utility = self._class_utilities(
                cap_ordinary, cap_premium)
            violators = self._violators_from(mask, ordinary_utility,
                                             premium_utility)
            if not np.any(violators):
                return self._build_outcome(mask, "competitive", True, iterations)
            # Damped tatonnement: switch only the half of the violators with
            # the largest gains.  Switching everyone at once tends to
            # overshoot (the premium class empties and refills), whereas the
            # damped update converges in a handful of rounds.
            violator_indices = np.nonzero(violators)[0]
            gains = np.abs(premium_utility - ordinary_utility)[violator_indices]
            keep = max(1, (len(violator_indices) + 1) // 2)
            movers = violator_indices[np.argsort(gains)[::-1][:keep]]
            updated = mask.copy()
            updated[movers] = ~updated[movers]
            key = updated.tobytes()
            if key in seen:
                mask = updated
                break
            seen[key] = iterations
            mask = updated
        # Cycle (or iteration cap): repair sequentially.
        budget = repair_budget if repair_budget is not None else 4 * size
        mask, converged, extra = self._sequential_repair(mask, budget)
        return self._build_outcome(mask, "competitive", converged,
                                   iterations + extra)

    def _sequential_repair(self, mask: np.ndarray, budget: int
                           ) -> Tuple[np.ndarray, bool, int]:
        """Move one violating CP at a time until no violations remain.

        Each CP is allowed at most two moves during the repair phase; a
        marginal CP that keeps regretting its last move therefore settles
        after bouncing once, which (together with the hysteresis tolerance)
        guarantees termination.
        """
        moves = 0
        mask = mask.copy()
        size = len(mask)
        move_counts = np.zeros(size, dtype=int)
        while moves < budget:
            premium_count = int(np.count_nonzero(mask))
            cap_ordinary = self._class_cap_for_mask(
                ~mask, size - premium_count, self.ordinary_nu)
            cap_premium = self._class_cap_for_mask(
                mask, premium_count, self.premium_nu)
            ordinary_utility, premium_utility = self._class_utilities(
                cap_ordinary, cap_premium)
            violators = np.nonzero(self._violators_from(
                mask, ordinary_utility, premium_utility))[0]
            if len(violators) == 0:
                return mask, True, moves
            eligible = violators[move_counts[violators] < 2]
            if len(eligible) == 0:
                # Only bouncing marginal CPs remain: they sit inside the
                # O(1/N) band of the throughput-taking approximation.
                return mask, True, moves
            gains = np.abs(premium_utility - ordinary_utility)
            mover = eligible[int(np.argmax(gains[eligible]))]
            mask[mover] = ~mask[mover]
            move_counts[mover] += 1
            moves += 1
        return mask, False, moves

    def verify_competitive(self, outcome: PartitionOutcome) -> list[str]:
        """Names of CPs violating condition (8) beyond the solver tolerance."""
        mask = outcome.premium_mask
        premium_count = int(np.count_nonzero(mask))
        cap_ordinary = self._class_cap_for_mask(
            ~mask, len(mask) - premium_count, self.ordinary_nu)
        cap_premium = self._class_cap_for_mask(mask, premium_count,
                                               self.premium_nu)
        violators = np.nonzero(self._violators(mask, cap_ordinary, cap_premium))[0]
        return [self.population.names[i] for i in violators]

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
        premium_set = set(outcome.premium_indices)
        price = self.strategy.price
        gains: dict[str, float] = {}
        for name in names:
            index = self.population.index_of(name)
            provider = self.population[index]
            in_premium = index in premium_set
            ordinary_members = [i for i in outcome.ordinary_indices if i != index]
            premium_members = [i for i in outcome.premium_indices if i != index]
            rho_ordinary = self._exact_rho(index, ordinary_members, self.ordinary_nu)
            rho_premium = self._exact_rho(index, premium_members, self.premium_nu)
            utility_ordinary = provider.revenue_rate * rho_ordinary
            utility_premium = (provider.revenue_rate - price) * rho_premium
            current = utility_premium if in_premium else utility_ordinary
            alternative = utility_ordinary if in_premium else utility_premium
            scale = max(abs(current), abs(alternative), _UTILITY_SCALE_FLOOR)
            gains[name] = (alternative - current) / scale
        return gains

    # ------------------------------------------------------------------ #
    # Nash equilibrium — Definition 2
    # ------------------------------------------------------------------ #
    def _exact_rho(self, index: int, class_indices: Iterable[int],
                   class_nu: float) -> float:
        """Exact ex-post ``rho_i`` if CP ``index`` belongs to the given class."""
        mask = np.zeros(len(self.population), dtype=bool)
        mask[list(class_indices)] = True
        mask[index] = True
        position = int(np.count_nonzero(mask[:index]))
        return float(self._class_rhos(mask, class_nu)[position])

    def nash_equilibrium(self, max_passes: int = 50,
                         initial_premium: Optional[Iterable[int]] = None
                         ) -> PartitionOutcome:
        """Compute a Nash equilibrium partition by sequential best response.

        Every CP in turn evaluates its exact ex-post utility in both classes
        (recomputing the class equilibrium with itself included) and moves if
        strictly better off, ties breaking to the ordinary class.  The
        procedure stops when a full pass produces no move.  Intended for
        small populations (tests, illustrations); the competitive equilibrium
        is the work-horse for the paper's 1000-CP experiments.  Under max-min
        fairness the class cap of every candidate deviation runs through the
        shared class-cap cache, and the outcome itself is memoised.
        """
        initial_key = self._initial_key(initial_premium)
        if self.config.cache_policy == "bypass":
            return self._nash_equilibrium_uncached(max_passes, initial_key)
        key = self._outcome_key("nash", (max_passes, initial_key))
        return _PARTITION_CACHE.get_or_compute(
            key, lambda: self._nash_equilibrium_uncached(max_passes, initial_key)
        )  # type: ignore[return-value]

    def _nash_equilibrium_uncached(self, max_passes: int,
                                   initial_premium: Optional[tuple[int, ...]]
                                   ) -> PartitionOutcome:
        size = len(self.population)
        mask = np.zeros(size, dtype=bool)
        if initial_premium is not None:
            mask[list(initial_premium)] = True
        if size == 0 or self.nu == 0.0 or self.strategy.kappa == 0.0:
            return self._build_outcome(np.zeros(size, dtype=bool), "nash", True, 0)
        price = self.strategy.price
        passes = 0
        for passes in range(1, max_passes + 1):
            moved = False
            for i in range(size):
                provider = self.population[i]
                others_premium = [j for j in np.nonzero(mask)[0] if j != i]
                others_ordinary = [j for j in np.nonzero(~mask)[0] if j != i]
                rho_premium = self._exact_rho(i, others_premium, self.premium_nu)
                rho_ordinary = self._exact_rho(i, others_ordinary, self.ordinary_nu)
                premium_utility = (provider.revenue_rate - price) * rho_premium
                ordinary_utility = provider.revenue_rate * rho_ordinary
                margin = self._utility_tolerance * max(
                    1.0, abs(premium_utility), abs(ordinary_utility))
                wants_premium = premium_utility > ordinary_utility + margin
                if wants_premium != mask[i]:
                    mask[i] = wants_premium
                    moved = True
            if not moved:
                return self._build_outcome(mask, "nash", True, passes)
        return self._build_outcome(mask, "nash", False, passes)

    def verify_nash(self, outcome: PartitionOutcome) -> list[str]:
        """Names of CPs violating the Nash condition (7) at the given outcome."""
        violators: list[str] = []
        price = self.strategy.price
        premium_set = set(outcome.premium_indices)
        for i, provider in enumerate(self.population):
            in_premium = i in premium_set
            others_premium = [j for j in premium_set if j != i]
            others_ordinary = [j for j in range(len(self.population))
                               if j not in premium_set and j != i]
            rho_premium = self._exact_rho(i, others_premium, self.premium_nu)
            rho_ordinary = self._exact_rho(i, others_ordinary, self.ordinary_nu)
            premium_utility = (provider.revenue_rate - price) * rho_premium
            ordinary_utility = provider.revenue_rate * rho_ordinary
            margin = self._utility_tolerance * max(
                1.0, abs(premium_utility), abs(ordinary_utility))
            wants_premium = premium_utility > ordinary_utility + margin
            if wants_premium != in_premium:
                violators.append(provider.name)
        return violators


def competitive_equilibrium(population: Population, nu: float,
                            strategy: ISPStrategy,
                            mechanism: Optional[RateAllocationMechanism] = None,
                            config: Optional[SolverConfig] = None,
                            **kwargs: Any) -> PartitionOutcome:
    """Convenience wrapper: competitive equilibrium of ``(M, mu, N, s_I)``."""
    game = CPPartitionGame(population, nu, strategy, mechanism, config=config)
    return game.competitive_equilibrium(**kwargs)


def nash_equilibrium(population: Population, nu: float, strategy: ISPStrategy,
                     mechanism: Optional[RateAllocationMechanism] = None,
                     config: Optional[SolverConfig] = None,
                     **kwargs: Any) -> PartitionOutcome:
    """Convenience wrapper: Nash equilibrium of ``(M, mu, N, s_I)``."""
    game = CPPartitionGame(population, nu, strategy, mechanism, config=config)
    return game.nash_equilibrium(**kwargs)

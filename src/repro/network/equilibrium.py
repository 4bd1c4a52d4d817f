"""Rate equilibrium of a system ``(M, mu, N)`` (Theorem 1, Lemma 1).

The demand functions map achievable throughput to demand; the rate-allocation
mechanism maps fixed demands back to achievable throughput.  Their interplay
has a unique fixed point — the *rate equilibrium* — under Assumption 1 and
Axioms 1-3 (Theorem 1 of the paper).  By Axiom 4 the equilibrium depends on
consumers and capacity only through the per-capita capacity ``nu = mu / M``
(Lemma 1), so the solver works entirely in per-capita terms.

Every mechanism is a :class:`~repro.network.allocation.CommonCapAllocation`,
so the equilibrium is characterised by a scalar congestion level (the cap),
the root of the work-conservation equation of Axiom 2.  One bracketed
Illinois secant (:meth:`CommonCapProfile.solve_cap`) finds that root for
every mechanism from a per-profile scalar carried-load evaluation; for the
paper's workload (max-min fairness with Equation-(3) demand) that
evaluation is a sorted-prefix lookup plus a tail pass and the root takes
about ten of them.  A capacity grid (:func:`solve_common_caps`) runs the
same solver once per point, so the batched engine of
:mod:`repro.simulation.batch` and the scalar path agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.cache import LRUCache
from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    RateAllocationMechanism,
)
from repro.network.provider import Population

__all__ = [
    "RateEquilibrium",
    "solve_rate_equilibrium",
    "solve_common_caps",
    "common_cap_row",
    "CommonCapProfile",
    "ExponentialMaxMinProfile",
    "common_cap_profile",
    "exponential_profile",
    "population_surplus_weights",
    "class_cap",
    "cached_class_cap",
    "mechanism_cache_key",
    "clear_equilibrium_caches",
]

_BISECTION_ITERATIONS = 200
#: Steps the secant cap solver may take before its bracket must start
#: halving once per two steps.  On the paper's 1000-CP population the
#: secant converges within 8-15 evaluations, so the budget almost never
#: forces a bisection step; it bounds the worst case at about twice the
#: ~47 steps of plain bisection.
_SECANT_GRACE_STEPS = 10
_SQRT_HALF = math.sqrt(0.5)
#: Bracket-width stopping rule (relative to the bracket's upper end).
_CAP_WIDTH_TOLERANCE = 1e-14
#: Carried-load residual stopping rule (relative to the target): the cap
#: solvers exit as soon as the work-conservation equation is satisfied to
#: this tolerance, instead of always burning the full iteration budget.
_RESIDUAL_TOLERANCE = 1e-13
#: Slack below the unconstrained load, relative to it, within which a
#: capacity counts as uncongested (the solver would otherwise chase a root
#: at the bracket edge that rounding already erased).
_UNCONGESTED_SLACK = 1e-15
#: Caps below this fraction of the largest ``theta_hat`` (or below the
#: smallest normal float) take the overflow-safe exponential tail pass.
#: There ``theta_hat / cap`` or ``1 / cap`` may overflow to ``inf``, and a
#: ``beta = 0`` column would then give ``exp(-0 * inf) = NaN``; the safe
#: pass sets those terms to their exact value ``alpha * cap``.  Above the
#: threshold the ratio stays below 1e200 and ``1 / cap`` is finite, so the
#: fast passes need no floating-point error guard.
_TINY_CAP = 1e-200
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class RateEquilibrium:
    """The unique rate equilibrium of a (sub)system at per-capita capacity ``nu``.

    Attributes
    ----------
    population:
        Providers sharing the capacity.
    nu:
        Per-capita capacity of the (sub)system.
    thetas:
        Equilibrium per-user achievable throughput ``theta_i``.
    demands:
        Equilibrium demand fractions ``d_i(theta_i)``.
    """

    population: Population
    nu: float
    thetas: np.ndarray
    demands: np.ndarray
    mechanism_name: str = "MaxMinFairAllocation"
    #: The mechanism's congestion level (Theorem-1 cap) at equilibrium
    #: (``+inf`` when the class is uncongested, ``0`` when it has no
    #: capacity).  Used by the competitive-equilibrium "throughput-taking"
    #: estimator of Definition 3.
    common_cap: float = float("inf")

    # ---------------------------------------------------------------- #
    # Derived per-capita quantities (all per consumer, i.e. divided by M).
    # ---------------------------------------------------------------- #
    @property
    def rhos(self) -> np.ndarray:
        """Per capita throughput over each CP's own user base (Equation 5)."""
        return self.demands * self.thetas

    @property
    def per_capita_rates(self) -> np.ndarray:
        """Per-consumer rate contribution ``alpha_i d_i theta_i`` of each CP."""
        return self.population.alphas * self.rhos

    @property
    def aggregate_rate(self) -> float:
        """Per-capita aggregate carried rate ``lambda_N / M``."""
        return float(np.sum(self.per_capita_rates))

    @property
    def utilization(self) -> float:
        """Fraction of the per-capita capacity carried (1.0 when congested)."""
        if self.nu <= 0.0:
            return 0.0
        return min(1.0, self.aggregate_rate / self.nu)

    @property
    def is_congested(self) -> bool:
        """True when the capacity cannot serve all unconstrained demand:
        the solved congestion level (Theorem-1 cap) is finite."""
        return self.common_cap < float("inf")

    @property
    def omegas(self) -> np.ndarray:
        """Fraction of unconstrained throughput achieved, ``theta_i/theta_hat_i``."""
        return self.thetas / self.population.theta_hats

    def consumer_surplus(self) -> float:
        """Per-capita consumer surplus ``Phi = sum_i phi_i alpha_i d_i theta_i``."""
        return float(np.sum(self.population.utility_rates * self.per_capita_rates))

    def provider_rate(self, index: int) -> float:
        """Per-capita rate of a single provider (by index in ``population``)."""
        return float(self.per_capita_rates[index])

    def provider_rho(self, index: int) -> float:
        """Per-user-base throughput ``rho_i`` of a single provider."""
        return float(self.rhos[index])

    def premium_revenue(self, price: float) -> float:
        """Per-capita ISP revenue if every provider here paid ``price``/unit."""
        if price < 0.0:
            raise ModelValidationError("price must be non-negative")
        return price * self.aggregate_rate

    def throughput_by_name(self) -> dict[str, float]:
        """Mapping from provider name to equilibrium ``theta_i``."""
        return dict(zip(self.population.names, map(float, self.thetas)))

    def scaled(self, consumers: float) -> dict[str, float]:
        """Absolute aggregate rates ``lambda_i`` for a consumer size ``M``."""
        if consumers < 0.0:
            raise ModelValidationError("consumer size must be non-negative")
        return {
            name: consumers * float(rate)
            for name, rate in zip(self.population.names, self.per_capita_rates)
        }


# --------------------------------------------------------------------------- #
# Carried-load profiles and the cap solvers
# --------------------------------------------------------------------------- #
class CommonCapProfile:
    """The work-conservation LHS of a cap-parameterised mechanism, and its root.

    For a cap-parameterised mechanism the equilibrium cap at per-capita
    capacity ``nu`` solves ``carried(cap) = min(nu, unconstrained_load)``
    where ``carried`` is continuous and non-decreasing (Assumption 1).
    Subclasses provide the fields below and :meth:`carried_scalar`;
    :meth:`solve_cap` is the one root finder for every mechanism, and
    :meth:`solve_caps` runs it once per grid point, so every grid entry is
    bit-identical to its single-point solve.
    """

    #: Number of providers covered by the profile.
    size: int = 0
    #: Cap at which every provider reaches its unconstrained throughput.
    upper: float = 0.0
    #: ``sum_i alpha_i theta_hat_i`` for the covered providers.
    unconstrained_load: float = 0.0

    def carried_scalar(self, cap: float) -> float:
        """Per-capita carried load at one cap ``> 0``."""
        raise NotImplementedError

    def carried_at_upper(self) -> float:
        """Carried load at the saturation cap, computed once per profile."""
        cached = getattr(self, "_carried_at_upper", None)
        if cached is None:
            cached = self.carried_scalar(self.upper)
            self._carried_at_upper = cached
        return cached

    def solve_cap(self, nu: float,
                  residual_tolerance: float = _RESIDUAL_TOLERANCE) -> float:
        """Equilibrium cap at one capacity, by a bracketed Illinois secant.

        ``0.0`` for ``nu <= 0``, ``+inf`` when ``nu`` is uncongested (or the
        profile is empty), and the root of ``carried(cap) = target``
        otherwise.  The root stays bracketed in ``[low, high]``, starting
        from ``[0, upper]`` whose residuals ``-target`` and
        ``carried_at_upper() - target`` need no new evaluation.  Each step
        evaluates the secant (regula falsi) point of the bracket; when the
        same endpoint survives two steps in a row its residual is halved —
        the Illinois modification (Dowell & Jarratt, BIT 1971), which makes
        the iteration converge superlinearly.  A bisection step replaces the
        secant point whenever that point is not strictly inside the
        bracket, or the bracket is wider than a budget that allows
        ``_SECANT_GRACE_STEPS`` free steps and then one halving per two
        steps; the worst case thus stays within about twice the step count
        of plain bisection.  (A budget rather than a sliding two-step
        window: the secant approaches the root from one side before the
        bracket collapses, and a window forced bisections into that
        approach, undoing the Illinois halvings.)

        The iteration exits when ``|carried(cap) - target|`` falls to
        ``residual_tolerance * target`` (relative: a fixed absolute bound
        would accept any tiny cap for a tiny target), when the bracket is
        narrower than ``_CAP_WIDTH_TOLERANCE * high`` (relative too: caps
        far below 1 are resolved to the same precision), or after
        ``_BISECTION_ITERATIONS`` steps.  The result depends only on the
        profile and the arguments: it is never warm-started from an earlier
        cap, so cached caps do not depend on the order they were computed in.
        """
        if self.size == 0:
            return math.inf
        if nu <= 0.0:
            return 0.0
        target = min(nu, self.unconstrained_load)
        slack = _UNCONGESTED_SLACK * self.unconstrained_load
        if (nu >= self.unconstrained_load - slack
                or self.carried_at_upper() <= target + slack):
            return math.inf
        residual_tol = residual_tolerance * target
        low, high = 0.0, self.upper
        low_residual = -target
        high_residual = self.carried_at_upper() - target
        # Widest bracket allowed at this step: ``upper`` after the grace
        # steps, then halved every two steps.
        allowed_width = self.upper * 2.0 ** (0.5 * _SECANT_GRACE_STEPS)
        moved = 0  # the endpoint the last step moved: -1 low, +1 high
        for _ in range(_BISECTION_ITERATIONS):
            width = high - low
            cap = low - low_residual * width / (high_residual - low_residual)
            if not low < cap < high or width > allowed_width:
                cap = 0.5 * (low + high)
            allowed_width *= _SQRT_HALF
            residual = self.carried_scalar(cap) - target
            if abs(residual) <= residual_tol:
                return cap
            if residual < 0.0:
                low, low_residual = cap, residual
                if moved < 0:
                    high_residual *= 0.5
                moved = -1
            else:
                high, high_residual = cap, residual
                if moved > 0:
                    low_residual *= 0.5
                moved = 1
            if high - low <= _CAP_WIDTH_TOLERANCE * high:
                return high
        return high

    def solve_caps(self, nus: np.ndarray,
                   residual_tolerance: float = _RESIDUAL_TOLERANCE
                   ) -> np.ndarray:
        """Equilibrium caps for a vector of per-capita capacities.

        One :meth:`solve_cap` per entry of ``nus``: a grid entry never
        depends on the rest of the grid, so batched and scalar solves agree
        bit for bit by construction, and memory stays flat in the grid size.
        """
        nus = np.asarray(nus, dtype=float)
        return np.array([self.solve_cap(nu, residual_tolerance)
                         for nu in nus.tolist()], dtype=float)


class GenericCapProfile(CommonCapProfile):
    """Profile for any :class:`CommonCapAllocation` over a full population.

    Its carried load has no sorted-prefix shortcut: each evaluation is one
    ``O(n)`` :meth:`~repro.network.allocation.CommonCapAllocation.carried_at_cap`
    pass, the demands at the mechanism's throughput profile or, for
    alpha-fair and strict priority, a closed form that needs no inversion
    of ``rho``.
    """

    def __init__(self, population: Population,
                 mechanism: CommonCapAllocation) -> None:
        self._population = population
        self._mechanism = mechanism
        self.size = len(population)
        self.upper = mechanism.cap_upper_bound(population)
        self.unconstrained_load = population.unconstrained_per_capita_load

    def carried_scalar(self, cap: float) -> float:
        return self._mechanism.carried_at_cap(self._population, cap)


class ExponentialMaxMinProfile(CommonCapProfile):
    """Sorted-``theta_hat`` prefix structure for max-min + exponential demand.

    Under max-min fairness a provider with ``theta_hat_i <= cap`` is served
    at exactly ``theta_hat_i`` with demand exactly 1, so its contribution to
    the carried load is the constant ``alpha_i theta_hat_i``.  Sorting by
    ``theta_hat`` turns the saturated part of the work-conservation sum into
    a prefix-sum lookup (``searchsorted`` + ``cumsum``); only the congested
    tail needs the exponential demand of Equation (3).  One carried-load
    evaluation is therefore one cheap scalar pass, and :meth:`solve_cap`
    needs fewer than ten of them per capacity on the paper's workload.

    The tail's rates ``alpha_i d_i(cap) cap`` are evaluated as
    ``cap * exp(log_w_i + nbt_i / cap)`` from two columns fixed at
    construction, ``log_w = log(alpha) + beta`` and ``nbt = -beta *
    theta_hat``: a multiply, an add and ``exp`` through ``out=`` kernels
    into one buffer, then one ``np.add.reduce`` (the pairwise summation
    ``ndarray.sum`` dispatches to).  ``log_w`` stays finite where ``alpha
    e^beta`` would overflow.  A profile is never written after
    construction, so one profile may be solved from several threads at
    once.

    :meth:`carried_and_surplus` also returns the consumer surplus from the
    same tail pass, given the utility-rate columns of
    :meth:`surplus_weights`.  Those are built by the caller (once per
    batch) and never stored here: most profiles (the CP-game classes) are
    never asked for a surplus.
    """

    def __init__(self, alphas: np.ndarray, theta_hats: np.ndarray,
                 betas: np.ndarray) -> None:
        order, theta_hats = _stable_order(theta_hats)
        order.flags.writeable = False
        alphas = alphas[order]
        betas = betas[order]
        neg_betas = -betas
        self._init_sorted(order, alphas, theta_hats, neg_betas,
                          np.log(alphas) + betas, neg_betas * theta_hats)

    @classmethod
    def from_sorted(cls, order: np.ndarray, alphas: np.ndarray,
                    theta_hats: np.ndarray, neg_betas: np.ndarray,
                    log_weights: np.ndarray, neg_beta_thetas: np.ndarray
                    ) -> "ExponentialMaxMinProfile":
        """Profile from contiguous columns already in stable ``theta_hat``
        order: ``order[k]`` is the population index of sorted position
        ``k``, and the last three columns are ``-beta``, ``log(alpha) +
        beta`` and ``-beta * theta_hat``."""
        self = object.__new__(cls)
        self._init_sorted(order, alphas, theta_hats, neg_betas, log_weights,
                          neg_beta_thetas)
        return self

    def _init_sorted(self, order: np.ndarray, alphas: np.ndarray,
                     theta_hats: np.ndarray, neg_betas: np.ndarray,
                     log_weights: np.ndarray, neg_beta_thetas: np.ndarray
                     ) -> None:
        #: Population index of each sorted position.
        self.order = order
        self._alphas = alphas
        self._theta_hats = theta_hats
        self._neg_betas = neg_betas
        self._log_weights = log_weights
        self._neg_beta_thetas = neg_beta_thetas
        self._prefix = np.concatenate(([0.0], np.cumsum(alphas * theta_hats)))
        self.size = len(theta_hats)
        self.upper = float(theta_hats[-1]) if self.size else 0.0
        self.unconstrained_load = float(self._prefix[-1])
        self._tiny_cap = max(self.upper * _TINY_CAP, _SMALLEST_NORMAL)

    def restricted(self, mask: np.ndarray) -> "ExponentialMaxMinProfile":
        """Profile of the providers a population-length ``mask`` selects.

        Filtering the sorted columns keeps the stable ``theta_hat`` order (a
        class's indices are ascending, so ties resolve as in a fresh stable
        sort): the result equals the constructor's profile of the class,
        float for float, without building a ``Population``, re-sorting or
        taking a logarithm.
        """
        keep = mask[self.order]
        return self.from_sorted(self.order[keep], self._alphas[keep],
                                self._theta_hats[keep], self._neg_betas[keep],
                                self._log_weights[keep],
                                self._neg_beta_thetas[keep])

    def carried_at_upper(self) -> float:
        # At the saturation cap every provider is saturated: the tail is
        # empty and the carried load is exactly ``prefix[-1]``.
        return self.unconstrained_load

    def _tail_demands(self, cap: float, count: int) -> np.ndarray:
        """Equation-(3) demands ``d_i(cap)`` of the congested tail.

        The tail is every provider from sorted position ``count`` on (those
        with ``theta_hat > cap``).  Same arithmetic as the expression form
        ``exp(-beta * (theta/cap - 1))``, evaluated through ``out=`` kernels
        into the one buffer the division allocates, so :meth:`rhos_at`
        equals ``demands_at`` bit for bit.  Below the profile's
        ``_tiny_cap`` the ratio ``theta / cap`` may overflow:
        ``exp(-beta * inf)`` is 0 for ``beta > 0``, and ``beta = 0`` terms
        get their exact demand 1 instead of ``NaN``.  The carried-load
        passes use the fused columns instead, above ``_tiny_cap``.
        """
        neg_betas = self._neg_betas[count:]
        if cap >= self._tiny_cap:
            buffer = np.divide(self._theta_hats[count:], cap)
            np.subtract(buffer, 1.0, out=buffer)
            return np.exp(np.multiply(neg_betas, buffer, out=buffer), out=buffer)
        with np.errstate(over="ignore", invalid="ignore"):
            buffer = neg_betas * (self._theta_hats[count:] / cap - 1.0)
        buffer[neg_betas == 0.0] = 0.0
        return np.exp(buffer, out=buffer)

    def _tail_weights(self, cap: float, count: int) -> np.ndarray:
        """``alpha_i d_i(cap)`` of the congested tail, whose rates are
        ``cap`` times these: ``exp(log_w + nbt / cap)`` in four passes, or
        the guarded :meth:`_tail_demands` below ``_tiny_cap`` (where
        ``1 / cap`` may overflow)."""
        if cap >= self._tiny_cap:
            buffer = np.multiply(self._neg_beta_thetas[count:], 1.0 / cap)
            np.add(buffer, self._log_weights[count:], out=buffer)
            return np.exp(buffer, out=buffer)
        buffer = self._tail_demands(cap, count)
        return np.multiply(self._alphas[count:], buffer, out=buffer)

    def rhos_at(self, cap: float) -> np.ndarray:
        """``rho_i = d_i(t_i) t_i`` at ``t = min(theta_hat, cap)``, in
        population order, for a cap ``>= 0``: ``theta_hat_i`` exactly where
        saturated, so the row equals ``demands_at(t) * t`` bit for bit."""
        rhos = np.zeros(self.size)
        if cap <= 0.0:
            return rhos
        count = self._theta_hats.searchsorted(cap, side="right")
        order = self.order
        rhos[order[:count]] = self._theta_hats[:count]
        if count < self.size:
            tail = self._tail_demands(cap, count)
            rhos[order[count:]] = np.multiply(tail, cap, out=tail)
        return rhos

    def carried_scalar(self, cap: float) -> float:
        """Carried load at one cap: prefix lookup plus the exponential tail.

        Finite for every cap; ``0.0`` for ``cap <= 0``.  The congestion tail
        (``theta > cap``) cannot overflow ``exp`` (exponents are
        non-positive up to rounding; underflow is ignored by default), and
        only caps below the profile's ``_tiny_cap`` can overflow ``1 /
        cap``; those take a separate guarded pass.  The tail buffer is
        allocated per call, so concurrent calls on one profile never share
        memory.
        """
        if cap <= 0.0:
            return 0.0
        count = self._theta_hats.searchsorted(cap, side="right")
        saturated = self._prefix[count]
        if count == self.size:
            return float(saturated)
        return float(saturated
                     + cap * np.add.reduce(self._tail_weights(cap, count)))

    def surplus_weights(self, sorted_utility_rates: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(phis, phi_prefix)`` columns for :meth:`carried_and_surplus`.

        ``sorted_utility_rates`` are the providers' ``phi`` in this
        profile's stable ``theta_hat`` order; ``phi_prefix`` is the prefix
        sum of ``phi * alpha * theta_hat``, the surplus of the saturated
        providers.
        """
        phis = np.ascontiguousarray(sorted_utility_rates, dtype=float)
        # ``phi`` weights the rate ``alpha * theta_hat``: one rounding per
        # product.  ``(phi * alpha) * theta_hat`` would round a subnormal
        # ``phi * alpha`` and then scale that error by ``theta_hat``.
        return phis, np.concatenate(
            ([0.0], np.cumsum(phis * (self._alphas * self._theta_hats))))

    def carried_and_surplus(self, cap: float,
                            weights: tuple[np.ndarray, np.ndarray]
                            ) -> tuple[float, float]:
        """Carried load and consumer surplus ``Phi`` at one cap, in one pass.

        ``weights`` comes from :meth:`surplus_weights`.  The carried load is
        computed exactly as :meth:`carried_scalar` computes it (bit for bit);
        the surplus adds the saturated providers' ``phi``-weighted prefix to
        ``dot(phi_tail, cap * tail)`` over the same tail weights: each
        provider's rate is weighted once, so a subnormal product is rounded
        once rather than rounded and then scaled by ``cap``.
        """
        phis, phi_prefix = weights
        if cap <= 0.0:
            return 0.0, 0.0
        count = self._theta_hats.searchsorted(cap, side="right")
        saturated = self._prefix[count]
        if count == self.size:
            return float(saturated), float(phi_prefix[count])
        tail = self._tail_weights(cap, count)
        carried = float(saturated + cap * np.add.reduce(tail))
        np.multiply(tail, cap, out=tail)
        return carried, float(phi_prefix[count] + np.dot(phis[count:], tail))

    def carried(self, caps: np.ndarray) -> np.ndarray:
        caps = np.asarray(caps, dtype=float)
        return np.array([self.carried_scalar(cap) for cap in caps.tolist()],
                        dtype=float)

    # Looked up in this class's own namespace, so it can be wrapped here
    # without touching the generic profiles.
    solve_cap = CommonCapProfile.solve_cap


def _stable_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(values, kind="stable")`` and ``values`` in that order.

    The default (SIMD) argsort is several times faster than the stable
    merge sort but orders equal values arbitrarily.  One vectorised repair
    then sorts the positions of every run of equal values by population
    index, which is exactly the stable order.  Real populations do have
    ties (the ``theta_hat`` floor of ``random_population``).
    """
    order = np.argsort(values)
    ordered = values[order]
    # ``ordered`` ascends, so ``<=`` between neighbours means equal.
    tied = ordered[1:] <= ordered[:-1]
    in_run = np.zeros(len(ordered), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    runs = np.flatnonzero(in_run)
    order[runs] = order[runs][np.lexsort((order[runs], ordered[runs]))]
    # Equal values are identical floats (``theta_hat > 0`` has no -0.0),
    # so ``ordered`` is already the repaired order's values.
    return order, ordered


def common_cap_profile(population: Population,
                       mechanism: CommonCapAllocation) -> CommonCapProfile:
    """The fastest applicable carried-load profile for a population.

    The max-min + all-exponential fast path (the paper's workload) is cached
    on the population; everything else gets the generic profile.  The
    choice is a function of (population, mechanism) only, so the scalar and
    batched solvers always agree on the numerics.  Every solver reaches its
    mechanism through here, so a mechanism without a Theorem-1 level (a
    plain :class:`~repro.network.allocation.RateAllocationMechanism`) is
    rejected here with :class:`ModelValidationError`.
    """
    if not isinstance(mechanism, CommonCapAllocation):
        raise ModelValidationError(
            f"{type(mechanism).__name__} is not a CommonCapAllocation: "
            "only a mechanism with a Theorem-1 level can be solved")
    if type(mechanism) is MaxMinFairAllocation:
        profile = exponential_profile(population)
        if profile is not None:
            return profile
    return GenericCapProfile(population, mechanism)


def exponential_profile(population: Population
                        ) -> Optional[ExponentialMaxMinProfile]:
    """The population's sorted profile, or ``None`` unless every provider
    has Equation-(3) demand; built once and kept on the population."""
    profile: Optional[ExponentialMaxMinProfile] = getattr(
        population, "_exp_maxmin_profile", None)
    if profile is None:
        parameters = population.exponential_parameters
        if parameters is None:
            return None
        profile = ExponentialMaxMinProfile(population.alphas, *parameters)
        population._exp_maxmin_profile = profile  # type: ignore[attr-defined]
    return profile


def solve_common_caps(population: Population, nus: Sequence[float],
                      mechanism: CommonCapAllocation,
                      config: Optional[SolverConfig] = None) -> np.ndarray:
    """Equilibrium caps of a cap-parameterised mechanism on a capacity grid.

    Returns the ``(G,)`` cap vector: ``+inf`` at uncongested points (and
    for an empty population), ``0`` where ``nu <= 0``, and otherwise the
    exact Theorem-1 root computed by the profile's
    :meth:`~CommonCapProfile.solve_caps`.  The cap determines the whole
    equilibrium: :func:`common_cap_row` rebuilds any grid point's
    per-provider profile from it.
    """
    config = resolve_config(config)
    profile = common_cap_profile(population, mechanism)
    return profile.solve_caps(np.asarray(nus, dtype=float),
                              residual_tolerance=config.bisection_tolerance)


def common_cap_row(population: Population, mechanism: CommonCapAllocation,
                   cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium ``(thetas, demands)`` of the providers at one cap.

    The one per-row function behind every per-provider view of a
    cap-defined equilibrium (scalar solves, batch rows and matrices,
    streamed service rows), so they all agree bit for bit.  An infinite
    (uncongested) cap gives every provider exactly ``theta_hat``.
    """
    if len(population) == 0:
        return np.zeros(0), np.zeros(0)
    thetas = mechanism.theta_at_cap(population, cap)
    return thetas, population.demands_at(thetas)


def solve_rate_equilibrium(population: Population, nu: float,
                           mechanism: Optional[CommonCapAllocation] = None,
                           config: Optional[SolverConfig] = None,
                           ) -> RateEquilibrium:
    """Compute the unique rate equilibrium of ``(M, mu, N)`` at ``nu = mu/M``.

    Parameters
    ----------
    population:
        Content providers sharing the capacity (the set ``N`` or one of the
        two service classes).
    nu:
        Per-capita capacity.  Passing the capacity of a service class (e.g.
        ``kappa * nu`` for the premium class) yields that class's internal
        equilibrium, exactly as in the paper's two-class analysis.
    mechanism:
        The rate-allocation mechanism; defaults to the paper's max-min fair
        mechanism.
    config:
        Solver configuration (cap residual tolerance, cache policy);
        ``None`` uses the ambient/default config.

    Returns
    -------
    RateEquilibrium
        Equilibrium throughput/demand profile and derived surplus accessors.

    The equilibrium profile is ``theta_i = theta_i(cap)`` where the cap solves
    the work-conservation equation
    ``sum_i alpha_i d_i(theta_i(cap)) theta_i(cap) = min(nu, sum_i alpha_i theta_hat_i)``.
    The left side is continuous and non-decreasing in the cap (demands are
    non-decreasing in throughput by Assumption 1), so a bracketed root
    search finds the unique solution of Theorem 1.  The cap comes from the
    grid solver with a one-element grid and the profile from
    :func:`common_cap_row`, so a scalar solve equals its batch row.
    """
    if not math.isfinite(nu) or nu < 0.0:
        raise ModelValidationError(f"per-capita capacity must be >= 0, got {nu!r}")
    if mechanism is None:
        mechanism = MaxMinFairAllocation()
    cap = float(solve_common_caps(population, (nu,), mechanism, config)[0])
    thetas, demands = common_cap_row(population, mechanism, cap)
    return RateEquilibrium(population, nu, thetas, demands,
                           mechanism_name=type(mechanism).__name__,
                           common_cap=cap)


# --------------------------------------------------------------------------- #
# Class caps and the full-population cap cache
# --------------------------------------------------------------------------- #
# Populations are immutable and mechanisms are keyed by value
# (``RateAllocationMechanism.cache_key``), so a cached cap can never go
# stale: entries are only ever dropped by LRU eviction or an explicit
# ``clear_equilibrium_caches()``.  The batch engine, the service and every
# CP game whose class holds the whole population share these caps; a
# proper class's cap is memoised by its own game instead, since almost no
# other game ever asks for the same class.
_DEFAULT_MECHANISM = MaxMinFairAllocation()
_CLASS_CAP_CACHE = LRUCache(maxsize=16384, name="class_caps")


def mechanism_cache_key(mechanism: Optional[RateAllocationMechanism],
                        ) -> tuple[Any, ...]:
    """Cache key of ``mechanism`` (``None`` means the default max-min)."""
    if mechanism is None:
        return _DEFAULT_MECHANISM.cache_key()
    return mechanism.cache_key()


def population_surplus_weights(population: Population,
                               profile: ExponentialMaxMinProfile
                               ) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`ExponentialMaxMinProfile.surplus_weights` of the population's
    own profile (``common_cap_profile``), its utility rates taken in the
    profile's stable ``theta_hat`` order."""
    return profile.surplus_weights(population.utility_rates[profile.order])


def class_cap(population: Population, mask: np.ndarray, nu: float,
              mechanism: Optional[CommonCapAllocation] = None,
              config: Optional[SolverConfig] = None) -> float:
    """Equilibrium common throughput cap of the class ``mask`` selects.

    ``mask`` is a boolean array over ``population``.  The value equals
    ``solve_rate_equilibrium(...).common_cap`` of the class exactly.  For
    the paper's workload (max-min fairness, exponential demand) the class
    is solved on :meth:`ExponentialMaxMinProfile.restricted` of the
    population's profile, with no ``Population`` object, index tuple or
    argsort; other classes are solved on their own sub-population.  Nothing
    is cached here: a caller that asks again memoises the cap itself.
    """
    resolved = mechanism if mechanism is not None else _DEFAULT_MECHANISM
    config = resolve_config(config)
    profile = common_cap_profile(population, resolved)
    if isinstance(profile, ExponentialMaxMinProfile):
        profile = profile.restricted(mask)
    else:
        profile = common_cap_profile(
            population.subset(np.flatnonzero(mask)), resolved)
    return profile.solve_cap(float(nu),
                             residual_tolerance=config.bisection_tolerance)


def cached_class_cap(population: Population, nu: float,
                     mechanism: Optional[CommonCapAllocation] = None,
                     config: Optional[SolverConfig] = None) -> float:
    """Equilibrium common throughput cap of the full population, memoised.

    The one function that builds a ``class_caps`` key and puts a cap into
    that cache.  The key is ``(population, nu, mechanism.cache_key(),
    config.cache_key())``, so entries computed under different tolerances
    never alias.  The value equals ``solve_rate_equilibrium(...).common_cap``
    exactly.  ``cache_policy="bypass"`` solves without touching the cache.
    """
    resolved = mechanism if mechanism is not None else _DEFAULT_MECHANISM
    config = resolve_config(config)

    def solve() -> float:
        return common_cap_profile(population, resolved).solve_cap(
            float(nu), residual_tolerance=config.bisection_tolerance)

    if config.cache_policy == "bypass":
        return solve()
    key = (population, float(nu), resolved.cache_key(), config.cache_key())
    return _CLASS_CAP_CACHE.get_or_compute(  # type: ignore[return-value]
        key, solve)


def clear_equilibrium_caches() -> None:
    """Drop every cached class cap (frees memory)."""
    _CLASS_CAP_CACHE.clear()

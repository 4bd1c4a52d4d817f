"""Rate-allocation mechanisms (Section II-B, Definition 1, Axioms 1-4).

A rate-allocation mechanism maps a *fixed* demand profile ``{d_i}`` to an
achievable per-user throughput profile ``{theta_i}`` subject to the link's
per-capita capacity ``nu``.  The paper requires four axioms:

* Axiom 1 (feasibility): ``theta_i <= theta_hat_i``;
* Axiom 2 (work conservation): the aggregate per-capita rate equals
  ``min(nu, sum_i alpha_i d_i theta_hat_i)`` — capacity is fully used
  whenever demand exceeds it;
* Axiom 3 (monotonicity): more capacity never reduces any ``theta_i``;
* Axiom 4 (independence of scale): only the per-capita capacity
  ``nu = mu / M`` matters.

All mechanisms in this module operate directly on per-capita quantities so
Axiom 4 holds by construction.  The paper's numerical work uses the max-min
fair mechanism (the first-order model of TCP's AIMD behaviour, following
Mo & Walrand); we additionally provide weighted-fair, alpha-proportional
fair, proportional-to-demand and strict-priority mechanisms, both as
alternative substrates and as counter-examples for the axiom checker (strict
priority is work-conserving and monotone but decidedly not neutral).  Every
shipped mechanism is a :class:`CommonCapAllocation`: its rate equilibrium is
one point of a scalar congestion level, which the Theorem-1 cap solver of
:mod:`repro.network.equilibrium` finds.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ModelValidationError
from repro.network.provider import Population

__all__ = [
    "RateAllocationMechanism",
    "CommonCapAllocation",
    "MaxMinFairAllocation",
    "WeightedFairAllocation",
    "ProportionalToDemandAllocation",
    "ProportionalFairAllocation",
    "AlphaFairAllocation",
    "StrictPriorityAllocation",
]

#: Halvings that take any bracket ``[0, theta_hat]`` of doubles down to
#: adjacent doubles: 2098 binades from the largest double to the smallest
#: subnormal, plus the 53 bits of one binade.
_INVERSION_ITERATIONS = 2151

#: Slack allowed on the demand-profile range check (rounding noise from the
#: demand kernels may leave values epsilon outside [0, 1]).
_DEMAND_RANGE_SLACK = 1e-12

#: Slack below the offered load, relative to it, within which a capacity
#: counts as uncongested (every provider then gets its unconstrained
#: throughput).
_UNCONGESTED_SLACK = 1e-15


def _validate_inputs(population: Population, demands: Sequence[float],
                     nu: float) -> np.ndarray:
    """Common validation for ``allocate`` implementations."""
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.shape != (len(population),):
        raise ModelValidationError(
            f"demand profile has shape {demands_arr.shape}, expected ({len(population)},)"
        )
    if (np.any(demands_arr < -_DEMAND_RANGE_SLACK)
            or np.any(demands_arr > 1.0 + _DEMAND_RANGE_SLACK)):
        raise ModelValidationError("demands must lie in [0, 1]")
    if not math.isfinite(nu) or nu < 0.0:
        raise ModelValidationError(f"per-capita capacity must be >= 0, got {nu!r}")
    return np.clip(demands_arr, 0.0, 1.0)


class RateAllocationMechanism(ABC):
    """Base class for rate-allocation mechanisms (Definition 1)."""

    def cache_key(self) -> tuple[Any, ...]:
        """Hashable value identifying this mechanism's behaviour.

        Used by the solver caches (class caps, partition outcomes) to key
        solved equilibria.  Two mechanisms with equal cache keys must produce
        identical allocations for every input.  The conservative default
        keys on the instance itself (identity equality, and the key retains
        the reference so a recycled ``id`` can never alias two mechanisms);
        stateless or value-parameterised mechanisms override it so equal
        configurations share cache entries.  The instance therefore must be
        hashable — a subclass that defines ``__eq__`` without ``__hash__``
        (e.g. a non-frozen dataclass) must override ``cache_key`` with a
        hashable value key.
        """
        return (type(self).__qualname__, self)

    @abstractmethod
    def allocate(self, population: Population, demands: Sequence[float],
                 nu: float) -> np.ndarray:
        """Per-user throughput profile for a fixed demand profile.

        Parameters
        ----------
        population:
            The content providers sharing the link (or service class).
        demands:
            Fixed demand fractions ``d_i`` in ``[0, 1]``, one per provider.
        nu:
            Per-capita capacity of the link (``mu / M``).

        Returns
        -------
        numpy.ndarray
            Achievable throughput ``theta_i`` for each provider, satisfying
            Axioms 1 and 2 for the given (fixed) demands.
        """


def _throughputs_at_rhos(population: Population,
                         rhos: np.ndarray) -> np.ndarray:
    """Each provider's smallest ``theta_i`` with ``d_i(theta_i) theta_i >=
    rhos_i``: the generalised inverse of ``rho_i(theta) = d_i(theta) theta``.

    ``rho_i`` is continuous and non-decreasing (Assumption 1), from
    ``rho_i(0) = 0`` to ``rho_i(theta_hat_i) = theta_hat_i``, so a target
    ``<= 0`` gives 0, one ``>= theta_hat_i`` gives ``theta_hat_i``, and the
    rest come from one bisection over :meth:`Population.demands_at`, run
    until no bracket can shrink.  An entry depends only on its own
    provider's column values, so a class's row equals the population's row
    restricted to the class.
    """
    theta_hats = population.theta_hats
    low = np.where(rhos >= theta_hats, theta_hats, 0.0)
    high = np.where(rhos > 0.0, theta_hats, 0.0)
    for _ in range(_INVERSION_ITERATIONS):
        mid = 0.5 * (low + high)
        if not np.any((low < mid) & (mid < high)):
            break
        reached = population.demands_at(mid) * mid >= rhos
        high = np.where(reached, mid, high)
        low = np.where(reached, low, mid)
    return high


def _water_level(breakpoints: np.ndarray, weights: np.ndarray,
                 target: float) -> float:
    """The level ``ell`` with ``sum_i weights_i * min(breakpoints_i, ell) ==
    target`` (inputs ``>= 0``, ``target > 0``), exact up to rounding.

    The sum is linear between sorted breakpoints, so the load at each
    breakpoint (saturated loads below it plus the breakpoint times the
    weight above it, which is summed from the top so no difference of
    totals cancels), one ``searchsorted`` and one linear solve give the
    level at any scale.  A target at or above the total load gives the
    largest breakpoint.
    """
    order = np.argsort(breakpoints)
    levels = breakpoints[order]
    slopes = weights[order]
    saturated = np.cumsum(slopes * levels)
    above = np.cumsum(slopes[::-1])[::-1]
    loads = saturated + levels * np.append(above[1:], 0.0)
    k = int(np.searchsorted(loads, target))
    if k == len(levels):
        return float(levels[-1])
    # On segment k the load is ``saturated[k - 1] + ell * above[k]``, and
    # ``loads[k - 1] < target <= loads[k]`` keeps ``above[k] > 0``.
    below, floor = ((float(saturated[k - 1]), float(levels[k - 1])) if k
                    else (0.0, 0.0))
    level = (target - below) / float(above[k])
    return min(max(level, floor), float(levels[k]))


class CommonCapAllocation(RateAllocationMechanism):
    """Mechanisms whose rate equilibrium is a function of one congestion level.

    :meth:`theta_at_cap` returns the equilibrium throughputs at a scalar
    level ``cap >= 0`` (``+inf`` means uncongested): continuous and
    non-decreasing in ``cap``, reaching every ``theta_hat`` at
    :meth:`cap_upper_bound`, and free to use the providers' demand
    functions.  The equilibrium at capacity ``nu`` is then the profile at
    the level whose carried load (:meth:`carried_at_cap`) is ``min(nu,
    unconstrained load)`` — the Theorem-1 cap, which the solver of
    :mod:`repro.network.equilibrium` finds.

    Max-min, weighted-fair and proportional-to-demand have the level form
    ``theta_i = min(theta_hat_i, k_i * cap)``, and each states only its
    slope ``k_i`` (:meth:`cap_slopes`); :meth:`theta_at_cap`,
    :meth:`cap_upper_bound` and the Definition-1 :meth:`allocate` (one
    exact water-fill of ``sum_i alpha_i d_i k_i min(theta_hat_i / k_i,
    cap)``) follow from it.  Alpha-fair and strict priority, whose levels
    use the demand functions, override all three.
    """

    def cap_slopes(self, population: Population) -> Union[float, np.ndarray]:
        """Slopes ``k_i > 0`` of the level form; max-min's scalar ``1.0``
        (one ``np.minimum`` pass in :meth:`theta_at_cap`) by default."""
        return 1.0

    def theta_at_cap(self, population: Population, cap: float) -> np.ndarray:
        """Equilibrium throughput profile at congestion level ``cap >= 0``."""
        return np.minimum(population.theta_hats,
                          self.cap_slopes(population) * cap)

    def cap_upper_bound(self, population: Population) -> float:
        """A cap value at which every provider reaches ``theta_hat``."""
        if len(population) == 0:
            return 0.0
        return float(np.max(population.theta_hats / self.cap_slopes(population)))

    def carried_at_cap(self, population: Population, cap: float) -> float:
        """Per-capita carried load ``sum_i alpha_i d_i(theta_i) theta_i`` of
        the equilibrium profile at level ``cap``."""
        thetas = self.theta_at_cap(population, cap)
        demands = population.demands_at(thetas)
        return float(np.sum(population.alphas * demands * thetas))

    def allocate(self, population: Population, demands: Sequence[float],
                 nu: float) -> np.ndarray:
        demands_arr = _validate_inputs(population, demands, nu)
        weights = population.alphas * demands_arr
        offered = float(np.sum(weights * population.theta_hats))
        target = min(nu, offered)
        if offered - target <= _UNCONGESTED_SLACK * offered:
            return population.theta_hats.copy()
        if target <= 0.0:
            # No capacity: only providers with zero active users can be
            # given their unconstrained rate without carrying load.
            return np.where(weights > 0.0, 0.0, population.theta_hats)
        return self._allocate_congested(population, weights, target)

    def _allocate_congested(self, population: Population,
                            weights: np.ndarray, target: float) -> np.ndarray:
        """Throughputs carrying ``0 < target < sum_i weights_i theta_hat_i``."""
        slopes = self.cap_slopes(population)
        level = _water_level(population.theta_hats / slopes,
                             weights * slopes, target)
        return self.theta_at_cap(population, level)


class MaxMinFairAllocation(CommonCapAllocation):
    """Max-min fair sharing among *users* — the paper's default mechanism.

    Every active user receives the same throughput cap, truncated at the
    application's unconstrained throughput: ``theta_i = min(theta_hat_i, t)``,
    the base class's level form with slope 1.
    This is the ``alpha = infinity`` member of the alpha-proportional-fair
    family and the first-order behaviour of TCP AIMD over a shared
    bottleneck.
    """

    def cache_key(self) -> tuple[Any, ...]:
        return ("MaxMinFairAllocation",)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MaxMinFairAllocation()"


class WeightedFairAllocation(CommonCapAllocation):
    """Weighted max-min fairness: ``theta_i = min(theta_hat_i, w_i * t)``.

    Weights model per-class scheduling (e.g. WFQ) or persistent differences
    in round-trip time between providers.  Weights must be positive; they are
    matched to providers by name so a weight map can be reused across
    sub-populations (service classes).
    """

    def __init__(self, weights: dict[str, float], default_weight: float = 1.0) -> None:
        for name, weight in weights.items():
            if weight <= 0.0 or not math.isfinite(weight):
                raise ModelValidationError(
                    f"weight for {name!r} must be positive, got {weight!r}"
                )
        if default_weight <= 0.0 or not math.isfinite(default_weight):
            raise ModelValidationError(
                f"default_weight must be positive, got {default_weight!r}"
            )
        self.weights = dict(weights)
        self.default_weight = float(default_weight)

    def cap_slopes(self, population: Population) -> np.ndarray:
        return np.array(
            [self.weights.get(name, self.default_weight) for name in population.names],
            dtype=float,
        )

    def cache_key(self) -> tuple[Any, ...]:
        return ("WeightedFairAllocation",
                tuple(sorted(self.weights.items())), self.default_weight)


class ProportionalToDemandAllocation(CommonCapAllocation):
    """Every provider gets the same *fraction* of its unconstrained throughput.

    ``theta_i = min(1, omega) * theta_hat_i``: the cap is the common
    fraction ``omega`` itself, so a provider's throughput at a level does
    not depend on which providers share the link.  Under congestion heavy
    applications are squeezed proportionally harder in absolute terms.
    This mimics a fair-queueing discipline that weights flows by their
    offered rate.
    """

    def cap_slopes(self, population: Population) -> np.ndarray:
        return population.theta_hats

    def cache_key(self) -> tuple[Any, ...]:
        return ("ProportionalToDemandAllocation",)


class AlphaFairAllocation(CommonCapAllocation):
    """Alpha-proportional fairness over provider *aggregates* (Mo & Walrand).

    The mechanism maximises ``sum_i U_alpha(Lambda_i)`` over the per-capita
    aggregate rates ``Lambda_i = alpha_i d_i theta_i`` subject to the capacity
    constraint, where ``U_alpha`` is the standard alpha-fair utility.  The KKT
    conditions give a common cap on the *aggregate* rate,
    ``Lambda_i = min(alpha_i d_i theta_hat_i, ell)``, independent of the value
    of ``alpha > 0`` (the family differs only through dynamics, not through
    the static optimum, when each aggregate is treated as one flow).

    At equilibrium a provider whose unconstrained aggregate ``alpha_i
    theta_hat_i`` is at most the water level ``ell`` is saturated, and
    every other one carries ``alpha_i rho_i(theta_i) = ell``: the level is
    the cap, :meth:`theta_at_cap` inverts ``rho_i`` there, and
    :meth:`cap_upper_bound` is the largest unconstrained aggregate.

    Note the contrast with :class:`MaxMinFairAllocation`: there fairness is
    applied per *user*, so popular providers receive proportionally more
    aggregate capacity; here fairness is applied per *provider aggregate*, so
    a provider's popularity does not help it.  When fairness per user is
    requested (``per_user=True``) the mechanism simply defers to max-min
    fairness, the base class's level form, which is the exact static
    optimum in that case.
    """

    def __init__(self, alpha: float = 1.0, per_user: bool = False) -> None:
        if alpha <= 0.0 or not math.isfinite(alpha):
            raise ModelValidationError(f"alpha must be positive, got {alpha!r}")
        self.alpha = float(alpha)
        self.per_user = bool(per_user)

    def cache_key(self) -> tuple[Any, ...]:
        # The static optimum is independent of alpha (see the class docstring),
        # but keep it in the key so the identification stays conservative.
        return ("AlphaFairAllocation", self.alpha, self.per_user)

    def theta_at_cap(self, population: Population, cap: float) -> np.ndarray:
        if self.per_user:
            return super().theta_at_cap(population, cap)
        return _throughputs_at_rhos(population, cap / population.alphas)

    def cap_upper_bound(self, population: Population) -> float:
        if self.per_user or len(population) == 0:
            return super().cap_upper_bound(population)
        return float(np.max(population.alphas * population.theta_hats))

    def carried_at_cap(self, population: Population, cap: float) -> float:
        # Saturated aggregates carry alpha_i theta_hat_i, the rest the level.
        if self.per_user:
            return super().carried_at_cap(population, cap)
        return float(np.sum(np.minimum(population.alphas
                                       * population.theta_hats, cap)))

    def _allocate_congested(self, population: Population,
                            weights: np.ndarray, target: float) -> np.ndarray:
        if self.per_user:
            return super()._allocate_congested(population, weights, target)
        # Water-fill a common cap ell over the aggregates.
        unconstrained = weights * population.theta_hats
        level = _water_level(unconstrained, np.ones(len(population)), target)
        thetas = np.divide(level, weights, out=population.theta_hats.copy(),
                           where=unconstrained > level)
        return np.minimum(thetas, population.theta_hats)


class ProportionalFairAllocation(AlphaFairAllocation):
    """Proportional fairness (``alpha = 1``) over provider aggregates."""

    def __init__(self, per_user: bool = False) -> None:
        super().__init__(alpha=1.0, per_user=per_user)


class StrictPriorityAllocation(CommonCapAllocation):
    """Strict priority among providers, in a caller-supplied order.

    Providers earlier in ``priority_order`` are served to their unconstrained
    throughput before later providers receive anything.  The mechanism is
    work-conserving, monotone and scale independent — it satisfies the
    paper's axioms — but it is the canonical example of a *non-neutral*
    discipline, and is used in tests and ablation benchmarks to show how the
    substrate changes the games' conclusions.

    The cap is a position ``s`` in ``[0, n]`` along the population's own
    priority order: the providers ranked below ``floor(s)`` are saturated,
    the next one carries the fraction ``s - floor(s)`` of its
    unconstrained load, and the rest get nothing.  A position only has a
    meaning for one population, so the CP partition game, which reads
    every class's level against the whole population, rejects it.
    """

    def __init__(self, priority_order: Optional[Sequence[str]] = None) -> None:
        self.priority_order = list(priority_order) if priority_order else None

    def cache_key(self) -> tuple[Any, ...]:
        order = tuple(self.priority_order) if self.priority_order else None
        return ("StrictPriorityAllocation", order)

    def _order(self, population: Population) -> np.ndarray:
        """Provider indices in priority order: listed names by their place
        in ``priority_order``, then the rest in index order."""
        if self.priority_order is None:
            return np.arange(len(population))
        position = {name: rank for rank, name in enumerate(self.priority_order)}
        return np.argsort([position.get(name, len(position))
                           for name in population.names], kind="stable")

    def _fills(self, population: Population, cap: float) -> np.ndarray:
        """Fraction of its unconstrained load each provider carries at ``cap``."""
        ranks = np.empty(len(population))
        ranks[self._order(population)] = np.arange(len(population))
        return np.clip(cap - ranks, 0.0, 1.0)

    def theta_at_cap(self, population: Population, cap: float) -> np.ndarray:
        return _throughputs_at_rhos(
            population, self._fills(population, cap) * population.theta_hats)

    def cap_upper_bound(self, population: Population) -> float:
        return float(len(population))

    def carried_at_cap(self, population: Population, cap: float) -> float:
        return float(np.sum(population.alphas * self._fills(population, cap)
                            * population.theta_hats))

    def allocate(self, population: Population, demands: Sequence[float],
                 nu: float) -> np.ndarray:
        demands_arr = _validate_inputs(population, demands, nu)
        thetas = np.zeros(len(population))
        remaining = float(nu)
        alphas = population.alphas
        theta_hats = population.theta_hats
        for i in self._order(population).tolist():
            weight = alphas[i] * demands_arr[i]
            if weight <= 0.0:
                # A provider with no active users carries no load; it can be
                # granted unconstrained throughput when capacity remains, and
                # nothing when the higher-priority classes already exhausted
                # the link (keeping the allocation continuous in the demand).
                thetas[i] = theta_hats[i] if remaining > 0.0 else 0.0
                continue
            full_load = weight * theta_hats[i]
            if remaining >= full_load:
                thetas[i] = theta_hats[i]
                remaining -= full_load
            else:
                thetas[i] = remaining / weight
                remaining = 0.0
        return thetas

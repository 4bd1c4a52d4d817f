"""Batched equilibrium engine: whole sweep grids from one cap vector.

The paper's headline figures are parameter sweeps — price × capacity × kappa
grids over the 1000-CP workload — and each grid point needs the rate
equilibrium of Theorem 1 at some per-capita capacity.  Under a
cap-parameterised mechanism that equilibrium is a function of one number,
the Theorem-1 cap.  This module:

* solves *all* capacities of a grid in one call to
  :func:`repro.network.equilibrium.solve_common_caps`
  (:func:`solve_rate_equilibria`, returning a :class:`BatchRateEquilibrium`
  that holds only the ``(G,)`` cap vector).  Its aggregate series (carried
  rate, utilisation, consumer surplus, premium revenue) come from the caps
  in ``O(G + n)`` memory; the per-provider ``(G, n)`` matrices are built
  only when asked for;
* reads a grid through the full-population cap cache
  (:func:`warm_equilibrium_cache`, one
  :func:`repro.network.equilibrium.cached_class_cap` per point), so the
  service's repeated grids and any CP game whose class holds every CP share
  their caps.

The scalar :func:`repro.network.equilibrium.solve_rate_equilibrium` runs
the same cap solver and builds its profile with the same row function
(:func:`repro.network.equilibrium.common_cap_row`), so batch and scalar
results are bit-for-bit identical — a property the test suite asserts
across mechanisms and demand families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Hashable, Iterator, Optional, Sequence,
                    TypeVar)

import numpy as np

from repro.config import SolverConfig
from repro.errors import ModelValidationError
from repro.network.allocation import CommonCapAllocation, MaxMinFairAllocation
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    RateEquilibrium,
    cached_class_cap,
    common_cap_profile,
    common_cap_row,
    population_surplus_weights,
    solve_common_caps,
)
from repro.network.provider import Population

__all__ = [
    "BatchRateEquilibrium",
    "solve_rate_equilibria",
    "warm_equilibrium_cache",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class BatchRateEquilibrium:
    """Rate equilibria of one population at a whole grid of capacities.

    A cap-parameterised equilibrium is defined by its grid of Theorem-1
    caps alone: ``common_caps[g]`` is the cap at per-capita capacity
    ``nus[g]``.  The aggregate accessors (:attr:`aggregate_rates`,
    :attr:`utilizations`, :meth:`consumer_surpluses`,
    :meth:`premium_revenues`) are computed from the caps in ``O(G + n)``
    memory — on the paper's path one fused tail pass per grid point
    (:meth:`ExponentialMaxMinProfile.carried_and_surplus`), otherwise one
    grid row at a time — and each is computed at most once per batch.

    The per-provider arrays (``thetas[g, i]`` is provider ``i``'s
    equilibrium throughput at ``nus[g]``) are stacked on first access from
    :meth:`provider_row`, the row function that :meth:`equilibrium_at` and
    the scalar solver use too, so rows are bit-identical to the scalar
    solver's output at the same ``nu``.
    """

    population: Population
    nus: np.ndarray
    common_caps: np.ndarray
    mechanism: CommonCapAllocation = field(
        default_factory=MaxMinFairAllocation)
    # Lazily computed values.  Every value is a pure function of the fields
    # above and its key, so threads racing on one key store equal values.
    _memo: dict[Hashable, Any] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nus)

    def __iter__(self) -> Iterator[RateEquilibrium]:
        for index in range(len(self.nus)):
            yield self.equilibrium_at(index)

    @property
    def mechanism_name(self) -> str:
        """Class name of the rate-allocation mechanism."""
        return type(self.mechanism).__name__

    # ---------------------------------------------------------------- #
    # Per-provider data, built on request (grid axis first).
    # ---------------------------------------------------------------- #
    def provider_row(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Equilibrium ``(thetas, demands)`` at grid point ``index``."""
        return common_cap_row(self.population, self.mechanism,
                              float(self.common_caps[index]))

    def memoised(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()`` (a function of this batch and ``key``), at most once."""
        value: Optional[_T] = self._memo.get(key)
        if value is None:
            value = compute()
            self._memo[key] = value
        return value

    def _stack_rows(self) -> tuple[np.ndarray, np.ndarray]:
        shape = (len(self.nus), len(self.population))
        thetas, demands = np.empty(shape), np.empty(shape)
        for index in range(shape[0]):
            thetas[index], demands[index] = self.provider_row(index)
        return _read_only(thetas), _read_only(demands)

    @property
    def thetas(self) -> np.ndarray:
        """Equilibrium throughputs ``theta_i``, shape ``(G, n)``."""
        return self.memoised("matrices", self._stack_rows)[0]

    @property
    def demands(self) -> np.ndarray:
        """Equilibrium demand fractions ``d_i(theta_i)``, shape ``(G, n)``."""
        return self.memoised("matrices", self._stack_rows)[1]

    @property
    def rhos(self) -> np.ndarray:
        """Per-user-base throughput ``d_i theta_i``, shape ``(G, n)``."""
        return self.demands * self.thetas

    @property
    def per_capita_rates(self) -> np.ndarray:
        """Per-consumer rates ``alpha_i d_i theta_i``, shape ``(G, n)``."""
        return self.population.alphas[np.newaxis, :] * self.rhos

    def equilibrium_at(self, index: int) -> RateEquilibrium:
        """One grid row as a scalar :class:`RateEquilibrium`."""
        thetas, demands = self.provider_row(index)
        return RateEquilibrium(
            population=self.population,
            nu=float(self.nus[index]),
            thetas=thetas,
            demands=demands,
            mechanism_name=self.mechanism_name,
            common_cap=float(self.common_caps[index]),
        )

    def take(self, indices: Sequence[int]) -> "BatchRateEquilibrium":
        """The batch restricted to (and reordered by) grid ``indices``."""
        picked = np.asarray(indices, dtype=np.intp)
        return BatchRateEquilibrium(
            population=self.population, nus=self.nus[picked],
            common_caps=self.common_caps[picked], mechanism=self.mechanism)

    # ---------------------------------------------------------------- #
    # Aggregate series from the caps, ``(G,)`` each.
    # ---------------------------------------------------------------- #
    def _cap_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate carried rate and consumer surplus at every grid point."""
        count = len(self.nus)
        rates, surpluses = np.zeros(count), np.zeros(count)
        profile = (common_cap_profile(self.population, self.mechanism)
                   if len(self.population) else None)
        if isinstance(profile, ExponentialMaxMinProfile):
            weights = population_surplus_weights(self.population, profile)
            for index, cap in enumerate(self.common_caps.tolist()):
                rates[index], surpluses[index] = \
                    profile.carried_and_surplus(cap, weights)
        else:
            alphas = self.population.alphas
            utility_rates = self.population.utility_rates
            for index in range(count):
                thetas, demands = self.provider_row(index)
                per_capita = alphas * (demands * thetas)
                rates[index] = np.sum(per_capita)
                surpluses[index] = np.sum(utility_rates * per_capita)
        return _read_only(rates), _read_only(surpluses)

    def _utilizations(self) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = self.aggregate_rates / self.nus
        return _read_only(np.where(self.nus > 0.0, np.minimum(1.0, ratio),
                                   0.0))

    @property
    def aggregate_rates(self) -> np.ndarray:
        """Per-capita aggregate carried rate at each grid point, ``(G,)``."""
        return self.memoised("sums", self._cap_sums)[0]

    @property
    def utilizations(self) -> np.ndarray:
        """Fraction of each capacity actually carried, ``(G,)``."""
        return self.memoised("utilizations", self._utilizations)

    def consumer_surpluses(self) -> np.ndarray:
        """Per-capita consumer surplus ``Phi`` at each grid point, ``(G,)``."""
        return self.memoised("sums", self._cap_sums)[1]

    def premium_revenues(self, price: float) -> np.ndarray:
        """Per-capita ISP revenue at each grid point if all paid ``price``."""
        if price < 0.0:
            raise ModelValidationError("price must be non-negative")
        return price * self.aggregate_rates


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only: memoised arrays are shared by readers."""
    array.flags.writeable = False
    return array


def _checked_grid(nus: Sequence[float],
                  mechanism: Optional[CommonCapAllocation],
                  ) -> tuple[np.ndarray, CommonCapAllocation]:
    """The capacity grid as an array, and the (default max-min) mechanism.

    Raises :class:`ModelValidationError` for an invalid grid.
    """
    nus_arr = np.asarray([float(nu) for nu in nus], dtype=float)
    if nus_arr.ndim != 1:
        raise ModelValidationError("nus must be a 1-D sequence of capacities")
    if np.any(~np.isfinite(nus_arr)) or np.any(nus_arr < 0.0):
        raise ModelValidationError(
            "per-capita capacities must all be finite and >= 0")
    return nus_arr, mechanism if mechanism is not None else MaxMinFairAllocation()


def solve_rate_equilibria(population: Population, nus: Sequence[float],
                          mechanism: Optional[CommonCapAllocation] = None,
                          config: Optional[SolverConfig] = None,
                          ) -> BatchRateEquilibrium:
    """Rate equilibria of ``population`` at every capacity in ``nus`` at once.

    The batched counterpart of
    :func:`~repro.network.equilibrium.solve_rate_equilibrium`: the grid's
    caps come from one ``solve_caps`` call and are all the batch stores.
    Degenerate grid points (``nu = 0``, uncongested capacities, empty
    populations) are handled exactly like the scalar path.
    """
    nus_arr, mechanism = _checked_grid(nus, mechanism)
    caps = solve_common_caps(population, nus_arr, mechanism, config)
    return BatchRateEquilibrium(population=population, nus=nus_arr,
                                common_caps=caps, mechanism=mechanism)


def warm_equilibrium_cache(population: Population, nus: Sequence[float],
                           mechanism: Optional[CommonCapAllocation] = None,
                           config: Optional[SolverConfig] = None,
                           ) -> BatchRateEquilibrium:
    """:func:`solve_rate_equilibria` read through the class-cap cache.

    Each grid point is one :func:`cached_class_cap` of the full population,
    so a point some earlier solve or game already needed is a lookup, and
    every point solved here is one for later callers.  The caps equal
    :func:`solve_rate_equilibria`'s bit for bit.
    """
    nus_arr, mechanism = _checked_grid(nus, mechanism)
    caps = np.array([cached_class_cap(population, nu, mechanism, config)
                     for nu in nus_arr.tolist()], dtype=float)
    return BatchRateEquilibrium(population=population, nus=nus_arr,
                                common_caps=caps, mechanism=mechanism)

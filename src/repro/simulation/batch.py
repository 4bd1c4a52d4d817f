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
* re-exports the class-cap cache
  (:func:`repro.network.equilibrium.cached_class_cap`), which memoises the
  Theorem-1 cap of each (class, capacity) so the monopoly, duopoly and
  CP-partition games stop re-solving identical sub-problems during
  best-response passes;
* pre-seeds that cache with the full population's caps over an upcoming
  sweep grid (:func:`warm_equilibrium_cache`), turning the per-point solves
  of the sweep layer into lookups.

The scalar path (:func:`repro.network.equilibrium.solve_rate_equilibrium`)
runs the same cap solver and builds its profile with the same row function
(:func:`repro.network.equilibrium.common_cap_row`), so batch and scalar
results are bit-for-bit identical — a property the test suite asserts
across mechanisms and demand families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.cache import LRUCache
from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    RateAllocationMechanism,
)
from repro.network.equilibrium import (
    CommonCapProfile,
    ExponentialMaxMinProfile,
    RateEquilibrium,
    cached_class_cap,
    clear_equilibrium_caches,
    common_cap_profile,
    common_cap_row,
    default_class_cap_cache,
    equilibrium_cache_stats,
    mechanism_cache_key,
    population_surplus_weights,
    solve_common_caps,
    solve_rate_equilibrium,
)
from repro.network.provider import Population

__all__ = [
    "BatchRateEquilibrium",
    "solve_rate_equilibria",
    "warm_equilibrium_cache",
    "cached_class_cap",
    "equilibrium_cache_stats",
    "clear_equilibrium_caches",
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
    solver's output at the same ``nu``.  Only mechanisms without a cap (the
    fixed-point fallback) carry explicit ``fixed_point_rows``.
    """

    population: Population
    nus: np.ndarray
    common_caps: np.ndarray
    mechanism: RateAllocationMechanism = field(
        default_factory=MaxMinFairAllocation)
    #: ``(thetas, demands)`` matrices, only for mechanisms without a cap.
    fixed_point_rows: Optional[tuple[np.ndarray, np.ndarray]] = None
    # Lazily computed arrays by name.  Every value is a pure function of the
    # fields above, so threads racing on one key store equal arrays.
    _memo: dict[str, Any] = field(default_factory=dict, init=False,
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
        if self.fixed_point_rows is not None:
            thetas, demands = self.fixed_point_rows
            return thetas[index], demands[index]
        assert isinstance(self.mechanism, CommonCapAllocation)
        return common_cap_row(self.population, self.mechanism,
                              float(self.common_caps[index]))

    def _memoised(self, name: str, compute: Callable[[], _T]) -> _T:
        """``compute()``, evaluated at most once per batch (idempotent)."""
        value: Optional[_T] = self._memo.get(name)
        if value is None:
            value = compute()
            self._memo[name] = value
        return value

    def _stack_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self.fixed_point_rows is not None:
            return self.fixed_point_rows
        shape = (len(self.nus), len(self.population))
        thetas, demands = np.empty(shape), np.empty(shape)
        for index in range(shape[0]):
            thetas[index], demands[index] = self.provider_row(index)
        return _read_only(thetas), _read_only(demands)

    @property
    def thetas(self) -> np.ndarray:
        """Equilibrium throughputs ``theta_i``, shape ``(G, n)``."""
        return self._memoised("matrices", self._stack_rows)[0]

    @property
    def demands(self) -> np.ndarray:
        """Equilibrium demand fractions ``d_i(theta_i)``, shape ``(G, n)``."""
        return self._memoised("matrices", self._stack_rows)[1]

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
        rows = self.fixed_point_rows
        if rows is not None:
            rows = (rows[0][picked], rows[1][picked])
        return BatchRateEquilibrium(
            population=self.population, nus=self.nus[picked],
            common_caps=self.common_caps[picked], mechanism=self.mechanism,
            fixed_point_rows=rows)

    # ---------------------------------------------------------------- #
    # Aggregate series from the caps, ``(G,)`` each.
    # ---------------------------------------------------------------- #
    def _cap_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate carried rate and consumer surplus at every grid point."""
        count = len(self.nus)
        rates, surpluses = np.zeros(count), np.zeros(count)
        profile: Optional[CommonCapProfile] = None
        if self.fixed_point_rows is None and len(self.population):
            assert isinstance(self.mechanism, CommonCapAllocation)
            profile = common_cap_profile(self.population, self.mechanism)
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
        return self._memoised("sums", self._cap_sums)[0]

    @property
    def utilizations(self) -> np.ndarray:
        """Fraction of each capacity actually carried, ``(G,)``."""
        return self._memoised("utilizations", self._utilizations)

    def consumer_surpluses(self) -> np.ndarray:
        """Per-capita consumer surplus ``Phi`` at each grid point, ``(G,)``."""
        return self._memoised("sums", self._cap_sums)[1]

    def premium_revenues(self, price: float) -> np.ndarray:
        """Per-capita ISP revenue at each grid point if all paid ``price``."""
        if price < 0.0:
            raise ModelValidationError("price must be non-negative")
        return price * self.aggregate_rates


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only: memoised arrays are shared by readers."""
    array.flags.writeable = False
    return array


def _capacity_grid(nus: Sequence[float]) -> np.ndarray:
    return np.asarray([float(nu) for nu in nus], dtype=float)


def solve_rate_equilibria(population: Population, nus: Sequence[float],
                          mechanism: Optional[RateAllocationMechanism] = None,
                          config: Optional[SolverConfig] = None,
                          ) -> BatchRateEquilibrium:
    """Rate equilibria of ``population`` at every capacity in ``nus`` at once.

    The batched counterpart of
    :func:`~repro.network.equilibrium.solve_rate_equilibrium`.  For
    cap-parameterised mechanisms (the paper's max-min fair mechanism
    included) the grid's caps come from one ``solve_caps`` call and are all
    the batch stores; other mechanisms fall back to per-point scalar solves
    and keep their ``(G, n)`` rows.  Degenerate grid points (``nu = 0``,
    uncongested capacities, empty populations) are handled exactly like the
    scalar path.
    """
    nus_arr = _capacity_grid(nus)
    if nus_arr.ndim != 1:
        raise ModelValidationError("nus must be a 1-D sequence of capacities")
    if np.any(~np.isfinite(nus_arr)) or np.any(nus_arr < 0.0):
        raise ModelValidationError(
            "per-capita capacities must all be finite and >= 0")
    if mechanism is None:
        mechanism = MaxMinFairAllocation()
    config = resolve_config(config)
    if isinstance(mechanism, CommonCapAllocation):
        caps = solve_common_caps(population, nus_arr, mechanism, config)
        return BatchRateEquilibrium(population=population, nus=nus_arr,
                                    common_caps=caps, mechanism=mechanism)
    # Scalar fallback for arbitrary mechanisms (fixed-point iteration): no
    # cap describes the equilibrium, so solve per point and stack.
    rows = [solve_rate_equilibrium(population, float(nu), mechanism, config)
            for nu in nus_arr]
    return _fixed_point_batch(population, nus_arr, rows, mechanism)


def _fixed_point_batch(population: Population, nus: np.ndarray,
                       rows: Sequence[RateEquilibrium],
                       mechanism: RateAllocationMechanism
                       ) -> BatchRateEquilibrium:
    """A batch of explicit equilibrium rows (mechanisms without a cap)."""
    shape = (len(nus), len(population))
    thetas, demands = np.empty(shape), np.empty(shape)
    for index, row in enumerate(rows):
        thetas[index] = row.thetas
        demands[index] = row.demands
    return BatchRateEquilibrium(
        population=population, nus=nus,
        common_caps=np.array([row.common_cap for row in rows], dtype=float),
        mechanism=mechanism, fixed_point_rows=(thetas, demands))


def warm_equilibrium_cache(population: Population, nus: Sequence[float],
                           mechanism: Optional[RateAllocationMechanism] = None,
                           cache: Optional[LRUCache] = None,
                           config: Optional[SolverConfig] = None,
                           ) -> BatchRateEquilibrium:
    """Solve a capacity grid in one pass and seed the class-cap cache.

    After this call, ``cached_class_cap(population, None, nu, ...)`` (and
    therefore the game layer's full-population class caps) is a lookup for
    every ``nu`` in the grid.  Only grid points not already cached are
    solved, so re-warming the same grid (e.g. repeated sweeps over one
    population) costs a handful of dictionary lookups.  Returns the batch,
    so callers can also read the grid directly; a warmed grid holds one
    float per point.  The cache keys mirror :func:`cached_class_cap`
    exactly (including the config's ``cache_key()``); ``cache`` replaces
    the shared class-cap cache.  A ``bypass`` cache policy, or a mechanism
    without a cap, just solves the grid.
    """
    config = resolve_config(config)
    if mechanism is None:
        mechanism = MaxMinFairAllocation()
    if (config.cache_policy == "bypass"
            or not isinstance(mechanism, CommonCapAllocation)):
        return solve_rate_equilibria(population, nus, mechanism, config)
    if cache is None:
        cache = default_class_cap_cache()
    mechanism_key = mechanism_cache_key(mechanism)
    config_key = config.cache_key()
    nus_arr = _capacity_grid(nus)
    keys = [(population, None, float(nu), mechanism_key, config_key)
            for nu in nus_arr]
    # Read hits up front and keep local copies: the seeding puts below may
    # LRU-evict earlier grid keys, so the cache must not be re-read during
    # assembly.
    caps = np.empty(len(nus_arr))
    missing = []
    for index, key in enumerate(keys):
        cap = cache.get(key)
        if cap is None:
            missing.append(index)
        else:
            caps[index] = cap
    if missing:
        solved = solve_rate_equilibria(population, nus_arr[missing], mechanism,
                                       config)
        for batch_index, grid_index in enumerate(missing):
            caps[grid_index] = solved.common_caps[batch_index]
            cache.put(keys[grid_index], float(caps[grid_index]))
    return BatchRateEquilibrium(population=population, nus=nus_arr,
                                common_caps=caps, mechanism=mechanism)

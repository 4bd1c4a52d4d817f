"""Batched equilibrium engine: whole sweep grids in one vectorised pass.

The paper's headline figures are parameter sweeps — price × capacity × kappa
grids over the 1000-CP workload — and each grid point needs the rate
equilibrium of Theorem 1 at some per-capita capacity.  Solving the points
one by one costs a full equilibrium construction each; this module instead:

* solves *all* capacities of a grid in one call to
  :func:`repro.network.equilibrium.solve_common_caps`
  (:func:`solve_rate_equilibria`, returning a :class:`BatchRateEquilibrium`
  with array-shaped throughput/demand/surplus accessors);
* memoises (class, capacity) equilibria in shared LRU caches
  (:func:`repro.network.equilibrium.cached_subset_equilibrium` /
  :func:`cached_class_cap`) so the monopoly, duopoly and CP-partition games
  stop re-solving identical sub-problems during best-response passes;
* pre-seeds those caches for an upcoming sweep grid
  (:func:`warm_equilibrium_cache`), turning the per-point solves of the
  sweep layer into lookups.

The scalar path (:func:`repro.network.equilibrium.solve_rate_equilibrium`)
is retained and delegates to the same kernel, so batch and scalar results
are bit-for-bit identical — a property the test suite asserts across
mechanisms and demand families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.backends.config import SolverConfig, resolve_config
from repro.cache import LRUCache
from repro.errors import ModelValidationError
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    RateAllocationMechanism,
)
from repro.network.equilibrium import (
    RateEquilibrium,
    cached_class_cap,
    cached_subset_equilibrium,
    clear_equilibrium_caches,
    default_equilibrium_cache,
    equilibrium_cache_stats,
    frozen_equilibrium,
    mechanism_cache_key,
    solve_common_caps,
    solve_rate_equilibrium,
)
from repro.network.provider import Population

__all__ = [
    "BatchRateEquilibrium",
    "solve_rate_equilibria",
    "warm_equilibrium_cache",
    "cached_subset_equilibrium",
    "cached_class_cap",
    "equilibrium_cache_stats",
    "clear_equilibrium_caches",
]


@dataclass(frozen=True)
class BatchRateEquilibrium:
    """Rate equilibria of one population at a whole grid of capacities.

    The arrays are stacked along the grid axis: ``thetas[g, i]`` is provider
    ``i``'s equilibrium throughput at per-capita capacity ``nus[g]``.  Rows
    are bit-identical to the scalar solver's output at the same ``nu``;
    :meth:`equilibrium_at` materialises one row as a scalar
    :class:`~repro.network.equilibrium.RateEquilibrium`.
    """

    population: Population
    nus: np.ndarray
    thetas: np.ndarray
    demands: np.ndarray
    common_caps: np.ndarray
    mechanism_name: str = "MaxMinFairAllocation"

    def __len__(self) -> int:
        return len(self.nus)

    def __iter__(self) -> Iterator[RateEquilibrium]:
        for index in range(len(self.nus)):
            yield self.equilibrium_at(index)

    # ---------------------------------------------------------------- #
    # Array-shaped derived quantities (grid axis first).
    # ---------------------------------------------------------------- #
    @property
    def rhos(self) -> np.ndarray:
        """Per-user-base throughput ``d_i theta_i``, shape ``(G, n)``."""
        return self.demands * self.thetas

    @property
    def per_capita_rates(self) -> np.ndarray:
        """Per-consumer rates ``alpha_i d_i theta_i``, shape ``(G, n)``."""
        return self.population.alphas[np.newaxis, :] * self.rhos

    @property
    def aggregate_rates(self) -> np.ndarray:
        """Per-capita aggregate carried rate at each grid point, ``(G,)``."""
        return np.sum(self.per_capita_rates, axis=-1)

    @property
    def utilizations(self) -> np.ndarray:
        """Fraction of each capacity actually carried, ``(G,)``."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self.aggregate_rates / self.nus
        return np.where(self.nus > 0.0, np.minimum(1.0, ratio), 0.0)

    def consumer_surpluses(self) -> np.ndarray:
        """Per-capita consumer surplus ``Phi`` at each grid point, ``(G,)``."""
        utility_rates = self.population.utility_rates[np.newaxis, :]
        return np.sum(utility_rates * self.per_capita_rates, axis=-1)

    def premium_revenues(self, price: float) -> np.ndarray:
        """Per-capita ISP revenue at each grid point if all paid ``price``."""
        if price < 0.0:
            raise ModelValidationError("price must be non-negative")
        return price * self.aggregate_rates

    def equilibrium_at(self, index: int) -> RateEquilibrium:
        """One grid row as a scalar :class:`RateEquilibrium`."""
        return RateEquilibrium(
            population=self.population,
            nu=float(self.nus[index]),
            thetas=self.thetas[index],
            demands=self.demands[index],
            mechanism_name=self.mechanism_name,
            common_cap=float(self.common_caps[index]),
        )


def solve_rate_equilibria(population: Population, nus: Sequence[float],
                          mechanism: Optional[RateAllocationMechanism] = None,
                          config: Optional[SolverConfig] = None,
                          ) -> BatchRateEquilibrium:
    """Rate equilibria of ``population`` at every capacity in ``nus`` at once.

    The batched counterpart of
    :func:`~repro.network.equilibrium.solve_rate_equilibrium`.  For
    cap-parameterised mechanisms (the paper's max-min fair mechanism
    included) the grid's caps come from one ``solve_caps`` call;
    other mechanisms fall back to per-point scalar solves but still return
    the batched container.  Degenerate grid points (``nu = 0``, uncongested
    capacities, empty populations) are handled exactly like the scalar path.
    """
    nus_arr = np.asarray([float(nu) for nu in nus], dtype=float)
    if nus_arr.ndim != 1:
        raise ModelValidationError("nus must be a 1-D sequence of capacities")
    if np.any(~np.isfinite(nus_arr)) or np.any(nus_arr < 0.0):
        raise ModelValidationError(
            "per-capita capacities must all be finite and >= 0")
    if mechanism is None:
        mechanism = MaxMinFairAllocation()
    if isinstance(mechanism, CommonCapAllocation):
        caps, thetas, demands = solve_common_caps(population, nus_arr, mechanism,
                                                  config)
        return BatchRateEquilibrium(
            population=population, nus=nus_arr, thetas=thetas, demands=demands,
            common_caps=caps, mechanism_name=type(mechanism).__name__)
    # Scalar fallback for arbitrary mechanisms (fixed-point iteration): no
    # batched kernel exists, so solve per point and stack.
    size = len(population)
    thetas = np.empty((len(nus_arr), size))
    demands = np.empty((len(nus_arr), size))
    caps = np.empty(len(nus_arr))
    for index, nu in enumerate(nus_arr):
        equilibrium = solve_rate_equilibrium(population, float(nu), mechanism,
                                             config)
        thetas[index] = equilibrium.thetas
        demands[index] = equilibrium.demands
        caps[index] = equilibrium.common_cap
    return BatchRateEquilibrium(
        population=population, nus=nus_arr, thetas=thetas, demands=demands,
        common_caps=caps, mechanism_name=type(mechanism).__name__)


def warm_equilibrium_cache(population: Population, nus: Sequence[float],
                           mechanism: Optional[RateAllocationMechanism] = None,
                           cache: Optional[LRUCache] = None,
                           config: Optional[SolverConfig] = None
                           ) -> BatchRateEquilibrium:
    """Solve a capacity grid in one pass and seed the equilibrium cache.

    After this call, ``cached_subset_equilibrium(population, None, nu, ...)``
    (and therefore the game layer's full-population solves) is a lookup for
    every ``nu`` in the grid.  Only grid points not already cached are
    solved, so re-warming the same grid (e.g. repeated sweeps over one
    population) costs a handful of dictionary lookups.  Returns the batch,
    so callers can also read the grid directly.  The cache keys mirror
    :func:`cached_subset_equilibrium` exactly (including the config's
    ``cache_key()``); a ``bypass`` cache policy skips seeding entirely.
    """
    config = resolve_config(config)
    if config.cache_policy == "bypass":
        return solve_rate_equilibria(population, nus, mechanism, config)
    cache = default_equilibrium_cache() if cache is None else cache
    mechanism_key = mechanism_cache_key(mechanism)
    config_key = config.cache_key()
    nus_arr = np.asarray([float(nu) for nu in nus], dtype=float)
    keys = [(population, None, float(nu), mechanism_key, config_key)
            for nu in nus_arr]
    # Read hits up front and keep local references: the seeding puts below
    # may LRU-evict earlier grid keys, so the cache must not be re-read
    # during assembly.
    rows: dict[int, RateEquilibrium] = {}
    missing = []
    for index, key in enumerate(keys):
        equilibrium = cache.get(key)
        if equilibrium is None:
            missing.append(index)
        else:
            rows[index] = equilibrium
    if missing:
        solved = solve_rate_equilibria(population, nus_arr[missing], mechanism,
                                       config)
        for batch_index, grid_index in enumerate(missing):
            # Frozen copies: cache entries must not alias the writable
            # (G, n) grid matrices (mutation and memory-pinning hazards).
            equilibrium = frozen_equilibrium(solved.equilibrium_at(batch_index))
            cache.put(keys[grid_index], equilibrium)
            rows[grid_index] = equilibrium
        if len(missing) == len(nus_arr):
            return solved
    size = len(population)
    thetas = np.empty((len(nus_arr), size))
    demands = np.empty((len(nus_arr), size))
    caps = np.empty(len(nus_arr))
    mechanism_name = (type(mechanism).__name__ if mechanism is not None
                      else "MaxMinFairAllocation")
    for index in range(len(nus_arr)):
        equilibrium = rows[index]
        thetas[index] = equilibrium.thetas
        demands[index] = equilibrium.demands
        caps[index] = equilibrium.common_cap
    return BatchRateEquilibrium(
        population=population, nus=nus_arr, thetas=thetas, demands=demands,
        common_caps=caps, mechanism_name=mechanism_name)

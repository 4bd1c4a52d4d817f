"""Cap-defined batches: aggregates from the caps alone, checked by oracle.

``BatchRateEquilibrium`` stores only the grid and its Theorem-1 caps.  Its
aggregate series come from one fused tail pass per grid point on the
paper's path (max-min + Equation-(3) demand) and from one grid row at a
time otherwise.  These tests recompute every series by explicit sums over
the per-provider ``thetas``/``demands`` rows and bound the memory the
non-detail path allocates.
"""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cache import all_cache_stats, clear_all_caches
from repro.network.allocation import (
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
    WeightedFairAllocation,
)
from repro.network.demand import LinearDemand
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    cached_class_cap,
    common_cap_profile,
    solve_rate_equilibrium,
)
from repro.network.provider import ContentProvider, Population
from repro.simulation.batch import (
    BatchRateEquilibrium,
    solve_rate_equilibria,
    warm_equilibrium_cache,
)
from repro.workloads.populations import PopulationSpec, random_population

#: Agreement required between cap-based and explicit sums (relative).
REL = 1e-12

#: Absolute slack per summed provider: the smallest subnormal double.
#: Below 2**-1022 a double has fewer than 52 significant bits, so REL
#: cannot hold there; one unit in the last place per summand is what the
#: format allows.  In the normal range this slack is far below REL.
SUBNORMAL = 2.0 ** -1074


def provider_st(index: int, mixed: bool) -> st.SearchStrategy[ContentProvider]:
    """One provider; ties in ``theta_hat`` and ``beta = 0`` are common."""
    demand = (st.builds(LinearDemand, st.just(1.0),
                        floor=st.floats(min_value=0.0, max_value=0.5))
              if mixed and index == 0 else st.none())
    return st.builds(
        lambda alpha, theta_hat, beta, phi, demand: ContentProvider(
            name=f"cp{index}", alpha=alpha,
            theta_hat=1.0 if demand is not None else theta_hat, beta=beta,
            revenue_rate=0.5, utility_rate=phi, demand=demand),
        st.floats(min_value=0.01, max_value=1.0),
        st.sampled_from([0.5, 1.0, 2.0]) | st.floats(min_value=0.05,
                                                      max_value=10.0),
        st.just(0.0) | st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=5.0),
        demand)


def population_st(mixed: bool) -> st.SearchStrategy[Population]:
    return st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(*[provider_st(i, mixed) for i in range(n)])
    ).map(lambda providers: Population(list(providers)))


#: Capacity fractions of the unconstrained load: zero, congested, exactly
#: saturated and uncongested points.
fractions_st = st.lists(
    st.sampled_from([0.0, 1.0, 1.5]) | st.floats(min_value=0.0,
                                                  max_value=1.2),
    min_size=1, max_size=6)

MECHANISMS = {
    "maxmin": MaxMinFairAllocation(),
    "prop-to-demand": ProportionalToDemandAllocation(),
    "weighted": WeightedFairAllocation({"cp0": 2.0, "cp2": 0.5}),
}


def explicit_sums(batch: BatchRateEquilibrium) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Carried rate and surplus summed over the explicit per-CP matrices."""
    population = batch.population
    rates = population.alphas * batch.demands * batch.thetas
    return (rates.sum(axis=1),
            (population.utility_rates * rates).sum(axis=1))


def assert_relative(actual: np.ndarray, expected: np.ndarray,
                    atol: float = 0.0) -> None:
    np.testing.assert_allclose(actual, expected, rtol=REL, atol=atol)


def assert_matches_oracle(population: Population, nus: list[float],
                          mechanism) -> BatchRateEquilibrium:
    batch = solve_rate_equilibria(population, nus, mechanism)
    rates, surpluses = explicit_sums(batch)
    atol = len(population) * SUBNORMAL
    assert_relative(batch.aggregate_rates, rates, atol)
    # A rate one unit off is phi_i units off in the surplus, plus the
    # rounding of each product.
    assert_relative(batch.consumer_surpluses(), surpluses,
                    float(np.sum(population.utility_rates + 1.0)) * SUBNORMAL)
    assert_relative(batch.premium_revenues(0.7), 0.7 * rates, atol)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expected = np.where(batch.nus > 0.0,
                            np.minimum(1.0, rates / batch.nus), 0.0)
    for actual, wanted, nu in zip(batch.utilizations, expected, batch.nus):
        # The rates' slack, carried through the division by nu.
        assert_relative(actual, wanted, atol / nu if nu > 0.0 else 0.0)
    return batch


class TestAggregatesMatchExplicitSums:
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @given(population=population_st(mixed=False), fractions=fractions_st)
    @example(population=Population([ContentProvider(
        "cp0", alpha=0.5, theta_hat=1.0, beta=1.0, revenue_rate=0.5,
        utility_rate=5.0)]), fractions=[1e-323])  # surplus 5 ulps off
    @example(population=Population([ContentProvider(
        "cp0", alpha=0.3, theta_hat=10.0, beta=0.0, revenue_rate=0.5,
        utility_rate=7.77e-315)]), fractions=[1.0, 0.9])  # 4 ulps off
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exponential_populations(self, name, population, fractions):
        load = population.unconstrained_per_capita_load
        nus = [fraction * load for fraction in fractions]
        mechanism = MECHANISMS[name]
        batch = assert_matches_oracle(population, nus, mechanism)
        if name != "maxmin":
            return
        # The paper's path: every congested aggregate is the profile's own
        # carried load at the cap, bit for bit.
        profile = common_cap_profile(population, mechanism)
        assert isinstance(profile, ExponentialMaxMinProfile)
        for cap, rate in zip(batch.common_caps, batch.aggregate_rates):
            if 0.0 < cap < math.inf:
                assert rate == profile.carried_scalar(float(cap))

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    @given(population=population_st(mixed=True), fractions=fractions_st)
    @example(population=Population([
        ContentProvider("cp0", alpha=0.5, theta_hat=1.0, beta=0.0,
                        revenue_rate=0.5, utility_rate=1.0,
                        demand=LinearDemand(1.0, floor=0.25)),
        ContentProvider("cp1", alpha=0.5, theta_hat=2.0, beta=0.0,
                        revenue_rate=0.5, utility_rate=1.0)]),
        fractions=[2.2250738585e-313])  # subnormal: off by one ulp
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mixed_demand_families(self, name, population, fractions):
        # A LinearDemand provider rules out the sorted-prefix profile, so
        # every mechanism sums one grid row at a time.
        assert population.exponential_parameters is None
        load = population.unconstrained_per_capita_load
        nus = [fraction * load for fraction in fractions]
        assert_matches_oracle(population, nus, MECHANISMS[name])

    def test_single_provider_and_degenerate_points(self):
        population = Population([ContentProvider(
            "solo", alpha=0.4, theta_hat=2.0, beta=0.0, revenue_rate=0.5,
            utility_rate=3.0)])
        load = population.unconstrained_per_capita_load
        batch = assert_matches_oracle(
            population, [0.0, 0.5 * load, load, 2.0 * load],
            MaxMinFairAllocation())
        assert batch.aggregate_rates[0] == 0.0
        assert batch.utilizations.tolist()[1:] == [1.0, 1.0, 0.5]

    def test_empty_population(self):
        batch = solve_rate_equilibria(Population([]), (0.0, 1.0))
        assert batch.aggregate_rates.tolist() == [0.0, 0.0]
        assert batch.consumer_surpluses().tolist() == [0.0, 0.0]


class TestCapDefinedBatch:
    def setup_method(self):
        clear_all_caches()

    def test_each_aggregate_is_computed_once(self, monkeypatch):
        population = random_population(PopulationSpec(count=40), seed=2)
        load = population.unconstrained_per_capita_load
        calls = []
        fused = ExponentialMaxMinProfile.carried_and_surplus

        def counted(self, cap, weights):
            calls.append(cap)
            return fused(self, cap, weights)

        monkeypatch.setattr(ExponentialMaxMinProfile, "carried_and_surplus",
                            counted)
        batch = solve_rate_equilibria(population, (0.2 * load, 0.6 * load))
        for _ in range(3):
            batch.aggregate_rates
            batch.utilizations
            batch.consumer_surpluses()
            batch.premium_revenues(0.5)
        assert len(calls) == 2
        assert batch.utilizations is batch.utilizations

    def test_memo_is_safe_under_concurrent_readers(self):
        population = random_population(PopulationSpec(count=200), seed=6)
        load = population.unconstrained_per_capita_load
        nus = tuple(np.linspace(0.05, 1.2, 16) * load)
        expected = solve_rate_equilibria(population, nus)
        reference = (expected.aggregate_rates.tolist(),
                     expected.consumer_surpluses().tolist(),
                     expected.utilizations.tolist(),
                     expected.thetas.tolist())
        batch = solve_rate_equilibria(population, nus)
        seen = []

        def read() -> None:
            seen.append((batch.aggregate_rates.tolist(),
                         batch.consumer_surpluses().tolist(),
                         batch.utilizations.tolist(),
                         batch.thetas.tolist()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [reference] * len(threads)

    def test_tracing_hooks_stay_plain_class_attributes(self):
        # Outside-in tracers wrap ``property.fget`` and plain functions
        # found in the class body.
        members = vars(BatchRateEquilibrium)
        for name in ("aggregate_rates", "utilizations"):
            assert type(members[name]) is property
        for name in ("consumer_surpluses", "premium_revenues"):
            assert callable(members[name])
            assert not isinstance(members[name], property)

    def test_rows_match_scalar_solves_exactly(self):
        population = random_population(PopulationSpec(count=30), seed=8)
        load = population.unconstrained_per_capita_load
        nus = (0.0, 0.3 * load, 0.9 * load, 1.2 * load)
        batch = solve_rate_equilibria(population, nus)
        for index, nu in enumerate(nus):
            scalar = solve_rate_equilibrium(population, nu)
            thetas, demands = batch.provider_row(index)
            np.testing.assert_array_equal(thetas, scalar.thetas)
            np.testing.assert_array_equal(demands, scalar.demands)
            np.testing.assert_array_equal(batch.thetas[index], thetas)

    def test_caps_only_warming_seeds_class_caps(self):
        population = random_population(PopulationSpec(count=30), seed=4)
        load = population.unconstrained_per_capita_load
        nus = (0.1 * load, 0.5 * load, 1.5 * load)
        cold = warm_equilibrium_cache(population, nus)
        assert all_cache_stats()["class_caps"]["size"] == len(nus)
        hits = all_cache_stats()["class_caps"]["hits"]
        warm = warm_equilibrium_cache(population, nus)
        assert all_cache_stats()["class_caps"]["hits"] == hits + len(nus)
        np.testing.assert_array_equal(warm.common_caps, cold.common_caps)
        assert warm.aggregate_rates.tolist() == cold.aggregate_rates.tolist()
        # The game layer's cap lookups hit the seeded entries.
        for nu, cap in zip(nus, cold.common_caps):
            assert cached_class_cap(population, nu) == cap
        assert all_cache_stats()["class_caps"]["hits"] == hits + 2 * len(nus)


def test_non_detail_path_allocates_no_grid_matrix():
    """Solve plus all four aggregates stay far below one ``(G, n)`` matrix."""
    grid_points, size = 512, 20_000
    population = random_population(PopulationSpec(count=size), seed=5)
    load = population.unconstrained_per_capita_load
    nus = np.linspace(0.05, 1.2, grid_points) * load
    matrix_bytes = grid_points * size * np.dtype(float).itemsize
    clear_all_caches()
    tracemalloc.start()
    try:
        batch = solve_rate_equilibria(population, nus)
        batch.aggregate_rates
        batch.utilizations
        batch.consumer_surpluses()
        batch.premium_revenues(0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 8, (peak, matrix_bytes)

"""Batch-vs-scalar equivalence and cache-correctness tests.

The batched equilibrium engine promises that ``solve_rate_equilibria`` is
*exactly* the scalar ``solve_rate_equilibrium`` applied per grid point (they
share one cap solver), and that every cache layer is pure memoisation
(cached results identical to cold recomputation).  These tests pin both
claims across mechanisms, demand families and degenerate cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import all_cache_stats, clear_all_caches
from repro.core.cp_game import CPPartitionGame
from repro.core.duopoly import DuopolyGame
from repro.core.strategy import ISPStrategy
from repro.network.allocation import (
    AlphaFairAllocation,
    CommonCapAllocation,
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
    RateAllocationMechanism,
    StrictPriorityAllocation,
    WeightedFairAllocation,
)
from repro.network.demand import (
    ConstantElasticityDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    SigmoidDemand,
    StepDemand,
    UnitDemand,
)
from repro.errors import ModelValidationError
from repro.network.equilibrium import (
    cached_class_cap,
    class_cap,
    solve_rate_equilibrium,
)
from repro.network.provider import ContentProvider, Population
from repro.simulation.batch import (
    solve_rate_equilibria,
    warm_equilibrium_cache,
)
from repro.workloads.populations import PopulationSpec, random_population

#: Equivalence tolerance required by the engine's contract.
TOL = 1e-10


def heterogeneous_population() -> Population:
    """One provider per shipped demand family (the non-exponential path)."""
    return Population([
        ContentProvider("exp", alpha=0.8, theta_hat=1.0, beta=2.0,
                        revenue_rate=0.5, utility_rate=1.0),
        ContentProvider("linear", alpha=0.6, theta_hat=2.0, beta=0.0,
                        revenue_rate=0.7, utility_rate=0.5,
                        demand=LinearDemand(2.0, floor=0.2)),
        ContentProvider("unit", alpha=0.3, theta_hat=0.5, beta=0.0,
                        revenue_rate=0.9, utility_rate=2.0,
                        demand=UnitDemand(0.5)),
        ContentProvider("step", alpha=0.5, theta_hat=1.5, beta=0.0,
                        revenue_rate=0.4, utility_rate=0.8,
                        demand=StepDemand(1.5, threshold=0.6, width=0.1)),
        ContentProvider("sigmoid", alpha=0.9, theta_hat=3.0, beta=0.0,
                        revenue_rate=0.2, utility_rate=1.5,
                        demand=SigmoidDemand(3.0, midpoint=0.4, steepness=8.0)),
        ContentProvider("piecewise", alpha=0.4, theta_hat=1.2, beta=0.0,
                        revenue_rate=0.6, utility_rate=0.3,
                        demand=PiecewiseLinearDemand(
                            1.2, [(0.0, 0.1), (0.3, 0.5), (0.7, 0.8),
                                  (1.0, 1.0)])),
        ContentProvider("elastic", alpha=0.7, theta_hat=0.8, beta=0.0,
                        revenue_rate=0.3, utility_rate=0.9,
                        demand=ConstantElasticityDemand(0.8, elasticity=1.5)),
    ])


def exponential_population() -> Population:
    return random_population(PopulationSpec(count=60), seed=13)


def grid_for(population: Population) -> tuple[float, ...]:
    """A capacity grid spanning every regime, including degenerate points."""
    load = population.unconstrained_per_capita_load
    return (0.0, 1e-9, 0.05 * load, 0.3 * load, 0.8 * load,
            load, 1.5 * load, 10.0 * load)


MECHANISMS = [
    pytest.param(MaxMinFairAllocation(), id="maxmin"),
    pytest.param(ProportionalToDemandAllocation(), id="prop-to-demand"),
    pytest.param(WeightedFairAllocation({"cp-0001": 2.0, "linear": 3.0},
                                        default_weight=1.0), id="weighted"),
]

POPULATIONS = [
    pytest.param(exponential_population, id="exponential"),
    pytest.param(heterogeneous_population, id="heterogeneous"),
]


def assert_equilibria_match(batch, population, mechanism) -> None:
    for index in range(len(batch)):
        nu = float(batch.nus[index])
        scalar = solve_rate_equilibrium(population, nu, mechanism)
        np.testing.assert_allclose(batch.thetas[index], scalar.thetas,
                                   rtol=0.0, atol=TOL)
        np.testing.assert_allclose(batch.demands[index], scalar.demands,
                                   rtol=0.0, atol=TOL)
        row = batch.equilibrium_at(index)
        assert row.common_cap == scalar.common_cap or (
            abs(row.common_cap - scalar.common_cap) <= TOL)
        assert abs(row.aggregate_rate - scalar.aggregate_rate) <= TOL
        assert abs(row.consumer_surplus() - scalar.consumer_surplus()) <= TOL


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("make_population", POPULATIONS)
    def test_dense_grid(self, make_population, mechanism):
        population = make_population()
        batch = solve_rate_equilibria(population, grid_for(population),
                                      mechanism)
        assert_equilibria_match(batch, population, mechanism)

    def test_default_mechanism_is_maxmin(self):
        population = exponential_population()
        batch = solve_rate_equilibria(population, (5.0,))
        scalar = solve_rate_equilibrium(population, 5.0)
        np.testing.assert_array_equal(batch.thetas[0], scalar.thetas)
        assert batch.mechanism_name == "MaxMinFairAllocation"

    def test_empty_population(self):
        population = Population([])
        batch = solve_rate_equilibria(population, (0.0, 1.0, 2.0))
        assert batch.thetas.shape == (3, 0)
        assert np.all(np.isinf(batch.common_caps))
        scalar = solve_rate_equilibrium(population, 1.0)
        assert scalar.common_cap == batch.equilibrium_at(1).common_cap

    def test_zero_capacity_rows(self):
        population = exponential_population()
        batch = solve_rate_equilibria(population, (0.0,))
        scalar = solve_rate_equilibrium(population, 0.0)
        np.testing.assert_array_equal(batch.thetas[0], scalar.thetas)
        np.testing.assert_array_equal(batch.demands[0], scalar.demands)
        assert batch.equilibrium_at(0).common_cap == 0.0

    def test_uncongested_rows_have_infinite_cap(self):
        population = exponential_population()
        nu = 2.0 * population.unconstrained_per_capita_load
        batch = solve_rate_equilibria(population, (nu,))
        assert np.isinf(batch.common_caps[0])
        np.testing.assert_allclose(batch.thetas[0], population.theta_hats,
                                   rtol=0.0, atol=TOL)

    def test_accessor_shapes_and_consistency(self):
        population = exponential_population()
        nus = grid_for(population)
        batch = solve_rate_equilibria(population, nus)
        count = len(nus)
        size = len(population)
        assert batch.thetas.shape == (count, size)
        assert batch.rhos.shape == (count, size)
        assert batch.per_capita_rates.shape == (count, size)
        assert batch.aggregate_rates.shape == (count,)
        assert batch.consumer_surpluses().shape == (count,)
        assert batch.utilizations.shape == (count,)
        np.testing.assert_allclose(
            batch.premium_revenues(0.3), 0.3 * batch.aggregate_rates)
        for index, equilibrium in enumerate(batch):
            assert equilibrium.nu == float(batch.nus[index])

    def test_rejects_invalid_grid(self):
        population = exponential_population()
        with pytest.raises(ModelValidationError):
            solve_rate_equilibria(population, (-1.0,))
        with pytest.raises(ModelValidationError):
            solve_rate_equilibria(population, (float("nan"),))

    @pytest.mark.parametrize("solve", [
        solve_rate_equilibria,
        warm_equilibrium_cache,
        lambda population, nus, mechanism: solve_rate_equilibrium(
            population, nus[0], mechanism),
        lambda population, nus, mechanism: CPPartitionGame(
            population, nus[0], ISPStrategy(0.5, 0.3), mechanism),
    ], ids=["batch", "warm", "scalar", "cp-game"])
    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_rejects_mechanism_without_cap(self, solve, nu):
        # Every solver needs a Theorem-1 level; a plain Definition-1
        # mechanism is refused by name before any solve.
        class Truncating(RateAllocationMechanism):
            def allocate(self, population, demands, nu):
                return np.minimum(population.theta_hats, nu)

        population = exponential_population()
        with pytest.raises(ModelValidationError, match="Truncating"):
            solve(population, (nu,), Truncating())

    @pytest.mark.parametrize("solve", [solve_rate_equilibria,
                                       warm_equilibrium_cache])
    @pytest.mark.parametrize("mechanism", [
        pytest.param(AlphaFairAllocation(alpha=1.0), id="alpha-fair"),
        pytest.param(StrictPriorityAllocation(["linear", "cp-0007", "unit"]),
                     id="strict-priority"),
    ])
    @pytest.mark.parametrize("make_population", POPULATIONS)
    def test_demand_level_mechanisms_match_scalar(self, solve, mechanism,
                                                  make_population):
        # Their levels invert each provider's rho through its demand
        # function; a batch is still a cap vector equal to scalar solves.
        population = make_population()
        batch = solve(population, grid_for(population), mechanism)
        assert_equilibria_match(batch, population, mechanism)

    @given(count=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=10_000),
           fractions=st.lists(st.floats(min_value=0.0, max_value=3.0),
                              min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_random_populations(self, count, seed, fractions):
        population = random_population(PopulationSpec(count=count), seed=seed)
        load = population.unconstrained_per_capita_load
        nus = tuple(fraction * load for fraction in fractions)
        batch = solve_rate_equilibria(population, nus)
        assert_equilibria_match(batch, population, MaxMinFairAllocation())


class TestEquilibriumCaches:
    def setup_method(self):
        clear_all_caches()

    def test_class_cap_matches_equilibrium_cap(self):
        for make_population in (exponential_population,
                                heterogeneous_population):
            population = make_population()
            load = population.unconstrained_per_capita_load
            mask = np.ones(len(population), dtype=bool)
            mask[0] = False
            for nu in (0.1 * load, 0.5 * load, 2.0 * load):
                cap = class_cap(population, mask, nu)
                equilibrium = solve_rate_equilibrium(
                    population.subset(np.flatnonzero(mask)), nu)
                assert cap == equilibrium.common_cap

    def test_cached_class_cap_matches_equilibrium_cap(self):
        for make_population in (exponential_population,
                                heterogeneous_population):
            population = make_population()
            load = population.unconstrained_per_capita_load
            for nu in (0.1 * load, 0.5 * load, 2.0 * load):
                cap = cached_class_cap(population, nu)
                assert cap == solve_rate_equilibrium(population, nu).common_cap
                # A second lookup is a hit that returns the same cap.
                misses = all_cache_stats()["class_caps"]["misses"]
                assert cached_class_cap(population, nu) == cap
                assert all_cache_stats()["class_caps"]["misses"] == misses

    def test_cached_class_cap_full_population_key(self):
        population = exponential_population()
        nu = 0.4 * population.unconstrained_per_capita_load
        cap_by_mask = class_cap(
            population, np.ones(len(population), dtype=bool), nu)
        cap_full = cached_class_cap(population, nu)
        assert cap_by_mask == cap_full
        assert cap_full == solve_rate_equilibrium(population, nu).common_cap

    def test_default_mechanism_cache_key_cannot_alias_instances(self):
        """The default key must retain the instance, not a recyclable id().

        Two distinct (identity-keyed) mechanism instances with different
        behaviour must never share cached caps, even when one is
        garbage-collected before the other is created.
        """

        class ScaledMaxMin(CommonCapAllocation):
            def __init__(self, scale):
                self.scale = scale

            def allocate(self, population, demands, nu):  # pragma: no cover
                raise NotImplementedError

            def theta_at_cap(self, population, cap):
                return np.minimum(population.theta_hats, self.scale * cap)

        population = exponential_population()
        nu = 0.3 * population.unconstrained_per_capita_load
        mechanism = ScaledMaxMin(1.0)
        key = mechanism.cache_key()
        assert any(part is mechanism for part in key)
        caps = []
        for scale in (1.0, 0.5):
            instance = ScaledMaxMin(scale)
            caps.append(cached_class_cap(population, nu, instance))
            del instance
        assert caps[0] != caps[1]

    def test_empty_capacity_grid(self):
        population = exponential_population()
        batch = solve_rate_equilibria(population, ())
        assert len(batch) == 0
        assert batch.thetas.shape == (0, len(population))

        class PlainCap(CommonCapAllocation):
            def allocate(self, population, demands, nu):  # pragma: no cover
                raise NotImplementedError

            def theta_at_cap(self, population, cap):
                return np.minimum(population.theta_hats, cap)

        # A mechanism that only defines theta_at_cap takes the generic
        # profile, which must also accept an empty grid.
        batch = solve_rate_equilibria(population, (), PlainCap())
        assert batch.thetas.shape == (0, len(population))

    def test_warm_equilibrium_cache_seeds_exact_rows(self):
        population = exponential_population()
        load = population.unconstrained_per_capita_load
        nus = (0.1 * load, 0.5 * load, 1.5 * load)
        batch = warm_equilibrium_cache(population, nus)
        misses = all_cache_stats()["class_caps"]["misses"]
        for index, nu in enumerate(nus):
            direct = solve_rate_equilibrium(population, nu)
            np.testing.assert_array_equal(batch.thetas[index], direct.thetas)
            assert cached_class_cap(population, nu) == direct.common_cap
        # Every lookup hit a seeded cap.
        assert all_cache_stats()["class_caps"]["misses"] == misses

    def test_warm_equilibrium_cache_skips_already_cached_rows(self):
        population = exponential_population()
        load = population.unconstrained_per_capita_load
        nus = (0.2 * load, 0.8 * load)
        first = warm_equilibrium_cache(population, nus)
        before = all_cache_stats()["class_caps"]
        # Re-warming a partially overlapping grid only solves the new point:
        # the two already-warmed points hit, only 1.4*load misses.
        second = warm_equilibrium_cache(population, nus + (1.4 * load,))
        after = all_cache_stats()["class_caps"]
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2
        np.testing.assert_array_equal(first.thetas, second.thetas[:2])
        np.testing.assert_array_equal(
            second.thetas[2],
            solve_rate_equilibrium(population, 1.4 * load).thetas)


class TestCpGameCacheEquivalence:
    def _outcome_fields(self, outcome):
        """Outcome data, each class's rates checked against a direct solve
        of that class's sub-population (the independent oracle)."""
        kappa = outcome.strategy.kappa
        for mask, class_nu in ((~outcome.premium_mask,
                                (1.0 - kappa) * outcome.nu),
                               (outcome.premium_mask, kappa * outcome.nu)):
            members = outcome.population.subset(np.flatnonzero(mask))
            oracle = solve_rate_equilibrium(members, class_nu)
            assert (outcome.rates[mask].tolist()
                    == oracle.per_capita_rates.tolist())
        return (outcome.ordinary_indices, outcome.premium_indices,
                outcome.consumer_surplus, outcome.isp_surplus,
                tuple(outcome.rates.tolist()))

    def test_competitive_outcome_cold_vs_warm_caches(self):
        population = random_population(PopulationSpec(count=80), seed=3)
        nu = 0.4 * population.unconstrained_per_capita_load
        strategy = ISPStrategy(0.6, 0.35)

        clear_all_caches()
        cold = CPPartitionGame(population, nu, strategy).competitive_equilibrium()
        cold_fields = self._outcome_fields(cold)

        # Re-solve with caches fully populated by unrelated nearby queries.
        for other_price in (0.1, 0.2, 0.5, 0.8):
            CPPartitionGame(population, nu, ISPStrategy(0.6, other_price)
                            ).competitive_equilibrium()
        warm = CPPartitionGame(population, nu, strategy).competitive_equilibrium()
        assert self._outcome_fields(warm) == cold_fields

        clear_all_caches()
        recomputed = CPPartitionGame(population, nu, strategy
                                     ).competitive_equilibrium()
        assert self._outcome_fields(recomputed) == cold_fields

    def test_nash_outcome_cold_vs_warm_caches(self):
        population = random_population(PopulationSpec(count=12), seed=5)
        nu = 0.3 * population.unconstrained_per_capita_load
        strategy = ISPStrategy(0.5, 0.4)
        clear_all_caches()
        cold = CPPartitionGame(population, nu, strategy).nash_equilibrium()
        fields = self._outcome_fields(cold)
        warm = CPPartitionGame(population, nu, strategy).nash_equilibrium()
        assert warm is cold  # pure memoisation on identical queries
        clear_all_caches()
        recomputed = CPPartitionGame(population, nu, strategy).nash_equilibrium()
        assert self._outcome_fields(recomputed) == fields

    def test_duopoly_outcome_cold_vs_warm_caches(self):
        population = random_population(PopulationSpec(count=50), seed=9)
        nu = 0.5 * population.unconstrained_per_capita_load
        game = DuopolyGame(population, nu, 0.5)
        strategy = ISPStrategy(1.0, 0.3)
        clear_all_caches()
        cold = game.outcome(strategy)
        clear_all_caches()
        # Populate the caches with the whole price sweep, then re-ask.
        game.price_sweep((0.1, 0.3, 0.6))
        warm = game.outcome(strategy)
        assert warm.market_share == cold.market_share
        assert warm.consumer_surplus == cold.consumer_surplus
        assert warm.isp_surplus == cold.isp_surplus


class TestCapacityAxisBatching:
    """Columnar profile kernel: scalar ``solve_cap`` vs batched ``solve_caps``,
    mask-keyed class caps, restricted profiles and the duopoly capacity
    sweep — all must agree with the scalar path."""

    def setup_method(self):
        clear_all_caches()

    def test_solve_cap_matches_one_element_solve_caps_exactly(self):
        from repro.network.equilibrium import common_cap_profile

        population = exponential_population()
        profile = common_cap_profile(population, MaxMinFairAllocation())
        load = population.unconstrained_per_capita_load
        for nu in (0.0, 1e-9, 0.05 * load, 0.5 * load, load, 2.0 * load):
            vector = float(profile.solve_caps(np.array([nu]))[0])
            scalar = profile.solve_cap(nu)
            # Same solver, same carried kernel: exact equality.
            assert scalar == vector or (np.isinf(scalar) and np.isinf(vector))

    @given(count=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=10_000),
           fractions=st.lists(st.floats(min_value=0.0, max_value=2.0),
                              min_size=2, max_size=8),
           mechanism=st.sampled_from([
               MaxMinFairAllocation(), ProportionalToDemandAllocation(),
               WeightedFairAllocation({"cp-0001": 2.0, "cp-0003": 0.5})]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_grid_solve_matches_scalar(self, count, seed, fractions,
                                                mechanism):
        from repro.network.equilibrium import common_cap_profile

        population = random_population(PopulationSpec(count=count), seed=seed)
        # Max-min takes the sorted-prefix profile, the others the generic
        # one; both run the same solver, once per grid point.
        profile = common_cap_profile(population, mechanism)
        load = population.unconstrained_per_capita_load
        nus = np.array([fraction * load for fraction in fractions])
        grid = profile.solve_caps(nus)
        for nu, cap in zip(nus, grid):
            # A grid runs the scalar solver once per point: bit-identical.
            assert profile.solve_cap(float(nu)) == cap

    def test_class_cap_for_mask_matches_index_form_exactly(self):
        population = exponential_population()
        load = population.unconstrained_per_capita_load
        rng = np.random.default_rng(3)
        for nu in (0.1 * load, 0.6 * load):
            for _ in range(4):
                mask = rng.random(len(population)) < 0.5
                if not mask.any():
                    mask[0] = True
                indices = tuple(int(i) for i in np.nonzero(mask)[0])
                by_mask = class_cap(population, mask, nu)
                by_indices = solve_rate_equilibrium(
                    population.subset(indices), nu).common_cap
                assert by_mask == by_indices or (
                    np.isinf(by_mask) and np.isinf(by_indices))

    def test_equal_masks_share_cache_entries(self):
        from repro.cache import all_cache_stats
        from repro.core.cp_game import CPPartitionGame
        from repro.core.strategy import ISPStrategy

        population = exponential_population()
        nu = 0.3 * population.unconstrained_per_capita_load
        strategy = ISPStrategy(0.5, 0.2)
        first = CPPartitionGame(population, nu, strategy)
        full = np.ones(len(population), dtype=bool)
        mask = np.zeros(len(population), dtype=bool)
        mask[::2] = True
        caps = (first._class_cap(mask, nu), first._class_cap(full, nu))
        before = all_cache_stats()["class_caps"]
        # A second game over an equal (not identical) population hits the
        # first game's full-population entry; its masked cap is solved in
        # its own memo and never enters the shared cache.
        second = CPPartitionGame(exponential_population(), nu, strategy)
        assert second.population is not population
        assert (second._class_cap(full.copy(), nu),
                second._class_cap(mask.copy(), nu)) == (caps[1], caps[0])
        after = all_cache_stats()["class_caps"]
        assert after["misses"] == before["misses"]
        assert after["size"] == before["size"] == 1

    def test_equal_masks_share_game_memo_entries(self, monkeypatch):
        from repro.cache import all_cache_stats
        from repro.core.cp_game import CPPartitionGame
        from repro.core.strategy import ISPStrategy
        from repro.network.equilibrium import ExponentialMaxMinProfile

        population = exponential_population()
        nu = 0.3 * population.unconstrained_per_capita_load
        game = CPPartitionGame(population, nu, ISPStrategy(0.5, 0.2))
        mask = np.zeros(len(population), dtype=bool)
        mask[::2] = True
        full = np.ones(len(population), dtype=bool)
        caps = (game._class_cap(mask, nu), game._class_cap(full, nu))
        # Only the full population's cap enters the shared cache.
        assert all_cache_stats()["class_caps"]["size"] == 1
        assert caps[1] == cached_class_cap(population, nu)
        solves = []
        original = ExponentialMaxMinProfile.solve_cap

        def counted(self, *args, **kwargs):
            solves.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ExponentialMaxMinProfile, "solve_cap", counted)
        # Equal membership hits the game's packed-bitmask memo, whatever
        # the array.
        assert (game._class_cap(mask.copy(), nu),
                game._class_cap(full.copy(), nu)) == caps
        assert solves == []

    def test_subset_profile_matches_constructor_exactly(self):
        from repro.network.equilibrium import ExponentialMaxMinProfile

        population = exponential_population()
        theta_hats, betas = population.exponential_parameters
        rng = np.random.default_rng(11)
        mask = rng.random(len(population)) < 0.4
        mask[0] = True
        direct = ExponentialMaxMinProfile(
            population.alphas[mask], theta_hats[mask], betas[mask])
        order = np.argsort(theta_hats, kind="stable")
        sub_order = order[mask[order]]
        restricted = ExponentialMaxMinProfile(
            population.alphas, theta_hats, betas).restricted(mask)
        np.testing.assert_array_equal(restricted.order, sub_order)
        caps = np.array([0.1, 0.3, 0.7, 1.5]) * direct.upper
        load = direct.unconstrained_load
        for cap in caps:
            assert direct.carried_scalar(float(cap)) == \
                restricted.carried_scalar(float(cap))
        for nu in (0.2 * load, 0.8 * load):
            assert direct.solve_cap(nu) == restricted.solve_cap(nu)

    def test_capacity_sweep_matches_per_point_outcomes(self):
        population = random_population(PopulationSpec(count=50), seed=9)
        load = population.unconstrained_per_capita_load
        nus = (0.3 * load, 0.6 * load, 1.1 * load)
        strategy = ISPStrategy(1.0, 0.3)
        game = DuopolyGame(population, nus[0], 0.5)
        clear_all_caches()
        swept = game.capacity_sweep(strategy, nus)
        clear_all_caches()
        # Each sweep point solves its caps when first needed, exactly like
        # a cold per-point game: the outcomes agree bit for bit.
        for nu, warm in zip(nus, swept):
            cold = DuopolyGame(population, nu, 0.5).outcome(strategy)
            assert warm.market_share == cold.market_share
            assert warm.consumer_surplus == cold.consumer_surplus
            assert warm.isp_surplus == cold.isp_surplus

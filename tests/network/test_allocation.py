"""Tests for the rate-allocation mechanisms (Axioms 1-4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelValidationError
from repro.network.allocation import (
    AlphaFairAllocation,
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    ProportionalToDemandAllocation,
    StrictPriorityAllocation,
    WeightedFairAllocation,
)
from repro.network.provider import ContentProvider, Population
from repro.workloads.populations import paper_population

MECHANISMS = [
    MaxMinFairAllocation(),
    WeightedFairAllocation(weights={"elastic": 2.0}),
    ProportionalToDemandAllocation(),
    AlphaFairAllocation(alpha=1.0),
    AlphaFairAllocation(alpha=2.0, per_user=True),
    ProportionalFairAllocation(),
    StrictPriorityAllocation(priority_order=["streaming", "elastic"]),
]


def unit_demands(population):
    return np.ones(len(population))


class TestCommonBehaviour:
    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_feasibility_axiom1(self, mechanism, two_provider_population):
        thetas = mechanism.allocate(two_provider_population,
                                    unit_demands(two_provider_population), nu=1.0)
        assert np.all(thetas <= two_provider_population.theta_hats + 1e-9)
        assert np.all(thetas >= -1e-12)

    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_work_conservation_congested(self, mechanism, two_provider_population):
        nu = 1.0  # unconstrained load is 3.0, so the link is congested
        demands = unit_demands(two_provider_population)
        thetas = mechanism.allocate(two_provider_population, demands, nu)
        carried = float(np.sum(two_provider_population.alphas * demands * thetas))
        assert carried == pytest.approx(nu, rel=1e-6)

    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_work_conservation_uncongested(self, mechanism, two_provider_population):
        demands = unit_demands(two_provider_population)
        thetas = mechanism.allocate(two_provider_population, demands, nu=100.0)
        np.testing.assert_allclose(thetas, two_provider_population.theta_hats)

    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_monotone_in_capacity(self, mechanism, small_random_population):
        demands = unit_demands(small_random_population)
        previous = None
        for nu in (0.5, 1.0, 2.0, 5.0, 20.0):
            thetas = mechanism.allocate(small_random_population, demands, nu)
            if previous is not None:
                assert np.all(thetas >= previous - 1e-8)
            previous = thetas

    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_zero_capacity(self, mechanism, two_provider_population):
        demands = unit_demands(two_provider_population)
        thetas = mechanism.allocate(two_provider_population, demands, nu=0.0)
        carried = float(np.sum(two_provider_population.alphas * demands * thetas))
        assert carried == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: type(m).__name__)
    def test_empty_population(self, mechanism):
        thetas = mechanism.allocate(Population([]), [], nu=1.0)
        assert thetas.shape == (0,)

    def test_invalid_demand_shape(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            MaxMinFairAllocation().allocate(two_provider_population, [1.0], nu=1.0)

    def test_invalid_demand_values(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            MaxMinFairAllocation().allocate(two_provider_population, [1.5, 0.5], nu=1.0)

    def test_negative_capacity_rejected(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            MaxMinFairAllocation().allocate(
                two_provider_population, [1.0, 1.0], nu=-1.0)


class TestWorkConservationAtTinyCapacity:
    """Axiom 2 far below the load: the bisections stop on a bracket width
    relative to the cap, so a tiny cap is found as exactly as a large one
    (an absolute width let alpha-fair carry 3,299 nu at 1e-15 x load)."""

    @pytest.mark.parametrize("mechanism", [
        MaxMinFairAllocation(), ProportionalToDemandAllocation(),
        AlphaFairAllocation(alpha=1.0), AlphaFairAllocation(alpha=3.0),
        StrictPriorityAllocation(),
    ], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("fraction", [1e-15, 1e-13, 1e-6])
    def test_carried_load_equals_capacity(self, mechanism, fraction):
        population = paper_population(count=200)
        nu = fraction * population.unconstrained_per_capita_load
        demands = unit_demands(population)
        thetas = mechanism.allocate(population, demands, nu)
        carried = float(np.sum(population.alphas * demands * thetas))
        assert abs(carried / nu - 1.0) <= 1e-9


class TestMaxMinFair:
    def test_equal_caps_under_congestion(self, google_netflix_skype):
        demands = unit_demands(google_netflix_skype)
        thetas = MaxMinFairAllocation().allocate(google_netflix_skype, demands, nu=1.0)
        # Under heavy congestion no CP reaches theta_hat, so all get the cap.
        assert thetas[0] == pytest.approx(thetas[1], rel=1e-6)
        assert thetas[1] == pytest.approx(thetas[2], rel=1e-6)

    def test_small_flows_saturate_first(self, google_netflix_skype):
        demands = unit_demands(google_netflix_skype)
        thetas = MaxMinFairAllocation().allocate(google_netflix_skype, demands, nu=4.0)
        names = google_netflix_skype.names
        theta = dict(zip(names, thetas))
        # Google (theta_hat = 1) saturates, Netflix (theta_hat = 10) does not.
        assert theta["google"] == pytest.approx(1.0, rel=1e-6)
        assert theta["netflix"] < 10.0

    def test_partial_demand_reduces_carried_load(self, two_provider_population):
        mechanism = MaxMinFairAllocation()
        full = mechanism.allocate(two_provider_population, [1.0, 1.0], nu=1.0)
        half = mechanism.allocate(two_provider_population, [0.5, 0.5], nu=1.0)
        # With only half the users active each active user gets more.
        assert np.all(half >= full - 1e-9)


class TestWeightedFair:
    def test_weights_bias_allocation(self, two_provider_population):
        favour_elastic = WeightedFairAllocation(weights={"elastic": 4.0})
        thetas = favour_elastic.allocate(two_provider_population, [1.0, 1.0], nu=1.0)
        neutral = MaxMinFairAllocation().allocate(
            two_provider_population, [1.0, 1.0], nu=1.0)
        elastic_index = two_provider_population.index_of("elastic")
        streaming_index = two_provider_population.index_of("streaming")
        assert thetas[elastic_index] >= neutral[elastic_index] - 1e-9
        assert thetas[streaming_index] <= neutral[streaming_index] + 1e-9

    def test_invalid_weight_rejected(self):
        with pytest.raises(ModelValidationError):
            WeightedFairAllocation(weights={"a": 0.0})
        with pytest.raises(ModelValidationError):
            WeightedFairAllocation(weights={}, default_weight=-1.0)


class TestProportionalToDemand:
    def test_common_fraction(self, two_provider_population):
        thetas = ProportionalToDemandAllocation().allocate(
            two_provider_population, [1.0, 1.0], nu=1.5)
        omegas = thetas / two_provider_population.theta_hats
        assert omegas[0] == pytest.approx(omegas[1], rel=1e-6)


class TestAlphaFair:
    def test_per_user_matches_maxmin(self, small_random_population):
        demands = unit_demands(small_random_population)
        per_user = AlphaFairAllocation(alpha=2.0, per_user=True).allocate(
            small_random_population, demands, nu=2.0)
        maxmin = MaxMinFairAllocation().allocate(
            small_random_population, demands, nu=2.0)
        np.testing.assert_allclose(per_user, maxmin, rtol=1e-9)

    def test_aggregate_fairness_ignores_popularity(self):
        population = Population([
            ContentProvider(name="popular", alpha=1.0, theta_hat=1.0, beta=0.0),
            ContentProvider(name="niche", alpha=0.1, theta_hat=1.0, beta=0.0),
        ])
        thetas = AlphaFairAllocation(alpha=1.0).allocate(population, [1.0, 1.0], nu=0.2)
        aggregates = population.alphas * thetas
        # Aggregate-level fairness splits capacity equally across providers.
        assert aggregates[0] == pytest.approx(aggregates[1], rel=1e-6)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ModelValidationError):
            AlphaFairAllocation(alpha=0.0)


class TestStrictPriority:
    def test_priority_order_respected(self, two_provider_population):
        mechanism = StrictPriorityAllocation(priority_order=["streaming", "elastic"])
        thetas = mechanism.allocate(two_provider_population, [1.0, 1.0], nu=1.0)
        streaming_index = two_provider_population.index_of("streaming")
        elastic_index = two_provider_population.index_of("elastic")
        # Streaming's unconstrained per-capita load is 2.0 > nu, so it takes
        # everything and the elastic provider is starved.
        assert thetas[elastic_index] == pytest.approx(0.0, abs=1e-9)
        assert thetas[streaming_index] == pytest.approx(2.0, rel=1e-6)

    def test_default_order_is_population_order(self, two_provider_population):
        mechanism = StrictPriorityAllocation()
        thetas = mechanism.allocate(two_provider_population, [1.0, 1.0], nu=1.0)
        # elastic comes first in the population, load 1.0 == nu -> it saturates.
        assert thetas[0] == pytest.approx(1.0, rel=1e-6)
        assert thetas[1] == pytest.approx(0.0, abs=1e-9)

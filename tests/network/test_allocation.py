"""Tests for the rate-allocation mechanisms (Axioms 1-4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import ModelValidationError
from repro.network.allocation import (
    AlphaFairAllocation,
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    ProportionalToDemandAllocation,
    StrictPriorityAllocation,
    WeightedFairAllocation,
    _water_level,
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


def mixed_demands(population):
    """Every fourth provider idle, the rest at demands spread over (0, 1]."""
    demands = np.linspace(0.05, 1.0, len(population))
    demands[::4] = 0.0
    return demands


class TestWorkConservationAtTinyCapacity:
    """Axiom 2 far below the load: every ``allocate`` finds its level by an
    exact water-fill (or, for strict priority, in sequence), so a tiny level
    is found as exactly as a large one.  A bracket width absolute in the
    cap let alpha-fair carry 3,299 nu at 1e-15 x load, and a bisection
    budget of 200 halvings let max-min carry 1.2e40 nu at 1e-100 x load."""

    @pytest.mark.parametrize("mechanism", MECHANISMS + [
        WeightedFairAllocation(weights={f"cp-{index:04d}": 1.0 + index % 7
                                        for index in range(0, 200, 3)}),
        AlphaFairAllocation(alpha=3.0), StrictPriorityAllocation(),
    ], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("fraction", [1e-300, 1e-100, 1e-15, 1e-13, 1e-6])
    @pytest.mark.parametrize("demand_profile", [unit_demands, mixed_demands],
                             ids=["unit", "mixed"])
    def test_carried_load_equals_capacity(self, mechanism, fraction,
                                          demand_profile):
        population = paper_population(count=200)
        demands = demand_profile(population)
        nu = fraction * float(np.sum(population.alphas * demands
                                     * population.theta_hats))
        thetas = mechanism.allocate(population, demands, nu)
        carried = float(np.sum(population.alphas * demands * thetas))
        assert abs(carried / nu - 1.0) <= 1e-9


def brute_load(breakpoints, weights, level):
    return math.fsum(w * min(b, level) for b, w in zip(breakpoints, weights))


water_columns = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                           st.floats(min_value=1e-6, max_value=100.0)),
                 min_size=n, max_size=n),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(min_value=1e-6, max_value=10.0)),
                 min_size=n, max_size=n)))


@given(columns=water_columns,
       fraction=st.floats(min_value=1e-12, max_value=1.0),
       on_breakpoint=st.integers(min_value=-1, max_value=19))
# Zero weights, equal breakpoints, and a target exactly on a breakpoint's
# load (``on_breakpoint`` picks the breakpoint whose load is the target).
@example(columns=([1.0, 2.0, 3.0], [0.0, 0.0, 1.0]), fraction=0.5,
         on_breakpoint=-1)
@example(columns=([2.0, 2.0, 2.0, 0.5], [1.0, 3.0, 0.5, 2.0]), fraction=0.3,
         on_breakpoint=-1)
@example(columns=([0.5, 1.0, 2.0], [1.0, 1.0, 1.0]), fraction=1.0,
         on_breakpoint=1)
@example(columns=([0.0, 1.0, 1.0, 4.0], [5.0, 0.0, 2.0, 0.0]), fraction=1.0,
         on_breakpoint=2)
@settings(max_examples=200, deadline=None)
def test_water_level_is_exact_between_its_bracketing_breakpoints(
        columns, fraction, on_breakpoint):
    breakpoints, weights = (np.asarray(column, dtype=float)
                            for column in columns)
    total = brute_load(breakpoints, weights, math.inf)
    target = (brute_load(breakpoints, weights, breakpoints[on_breakpoint])
              if 0 <= on_breakpoint < len(breakpoints) else fraction * total)
    assume(target > 0.0)
    level = _water_level(breakpoints, weights, target)
    assert 0.0 <= level <= breakpoints.max()
    # The sum is linear between the breakpoints that bracket the level, so
    # the brute-force loads there bracket the target and the level hits it.
    below = max([b for b in breakpoints if b <= level], default=0.0)
    above = min(b for b in breakpoints if b >= level)
    slack = 1e-12 * target
    assert brute_load(breakpoints, weights, below) <= target + slack
    assert brute_load(breakpoints, weights, above) >= target - slack
    assert abs(brute_load(breakpoints, weights, level) - target) <= slack


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

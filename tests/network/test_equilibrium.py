"""Tests for the rate-equilibrium solver (Theorem 1, Lemma 1, Theorem 2)."""

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
from repro.network.equilibrium import solve_rate_equilibrium
from repro.network.provider import ContentProvider, Population
from repro.workloads.populations import paper_population

#: Every shipped mechanism, built for a given population.
DEFINITION_1_MECHANISMS = [
    pytest.param(lambda population: MaxMinFairAllocation(), id="maxmin"),
    pytest.param(lambda population: WeightedFairAllocation(
        {name: 3.0 for name in population.names[::3]}), id="weighted-fair"),
    pytest.param(lambda population: ProportionalToDemandAllocation(),
                 id="proportional-to-demand"),
    pytest.param(lambda population: AlphaFairAllocation(alpha=2.0),
                 id="alpha-fair"),
    pytest.param(lambda population: AlphaFairAllocation(per_user=True),
                 id="alpha-fair-per-user"),
    pytest.param(lambda population: ProportionalFairAllocation(),
                 id="proportional-fair"),
    pytest.param(lambda population: StrictPriorityAllocation(
        population.names[1::2]), id="strict-priority"),
]


class TestBasicProperties:
    def test_uncongested_gives_unconstrained_throughput(self, google_netflix_skype):
        load = google_netflix_skype.unconstrained_per_capita_load
        equilibrium = solve_rate_equilibrium(google_netflix_skype, load * 2)
        np.testing.assert_allclose(equilibrium.thetas,
                                   google_netflix_skype.theta_hats)
        np.testing.assert_allclose(equilibrium.demands, 1.0)
        assert not equilibrium.is_congested
        assert equilibrium.common_cap == float("inf")

    def test_congested_carries_exactly_capacity(self, google_netflix_skype):
        nu = 2.0
        equilibrium = solve_rate_equilibrium(google_netflix_skype, nu)
        assert equilibrium.aggregate_rate == pytest.approx(nu, rel=1e-6)
        assert equilibrium.is_congested
        assert equilibrium.utilization == pytest.approx(1.0, rel=1e-6)

    def test_zero_capacity(self, google_netflix_skype):
        equilibrium = solve_rate_equilibrium(google_netflix_skype, 0.0)
        np.testing.assert_allclose(equilibrium.thetas, 0.0)
        assert equilibrium.aggregate_rate == 0.0
        assert equilibrium.utilization == 0.0
        assert equilibrium.common_cap == 0.0

    def test_empty_population(self):
        equilibrium = solve_rate_equilibrium(Population([]), 1.0)
        assert equilibrium.aggregate_rate == 0.0
        assert equilibrium.consumer_surplus() == 0.0

    def test_negative_capacity_rejected(self, google_netflix_skype):
        with pytest.raises(ModelValidationError):
            solve_rate_equilibrium(google_netflix_skype, -1.0)

    def test_default_mechanism_is_maxmin(self, google_netflix_skype):
        equilibrium = solve_rate_equilibrium(google_netflix_skype, 2.0)
        assert equilibrium.mechanism_name == "MaxMinFairAllocation"

    def test_feasibility(self, small_random_population):
        equilibrium = solve_rate_equilibrium(small_random_population, 1.0)
        assert np.all(equilibrium.thetas
                      <= small_random_population.theta_hats + 1e-9)
        assert np.all(equilibrium.demands >= 0.0)
        assert np.all(equilibrium.demands <= 1.0)


class TestTheorem1Uniqueness:
    """The equilibrium is a true fixed point and is insensitive to the solver path."""

    @pytest.mark.parametrize("make_mechanism", DEFINITION_1_MECHANISMS)
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.8])
    def test_fixed_point_property(self, small_random_population,
                                  make_mechanism, fraction):
        """Definition 1 as the oracle: each mechanism's own ``allocate``,
        fed the equilibrium demands, reproduces the equilibrium thetas."""
        population = small_random_population
        mechanism = make_mechanism(population)
        nu = fraction * population.unconstrained_per_capita_load
        equilibrium = solve_rate_equilibrium(population, nu, mechanism)
        reallocated = mechanism.allocate(population, equilibrium.demands, nu)
        np.testing.assert_allclose(reallocated, equilibrium.thetas,
                                   rtol=1e-6, atol=1e-9)

    def test_demands_consistent_with_thetas(self, small_random_population):
        equilibrium = solve_rate_equilibrium(small_random_population, 2.0)
        recomputed = small_random_population.demands_at(equilibrium.thetas)
        np.testing.assert_allclose(recomputed, equilibrium.demands,
                                   rtol=1e-9, atol=1e-12)

    def test_generic_solver_agrees_with_cap_solver(self, google_netflix_skype):
        """Per-user alpha-fairness takes the generic profile and reaches the
        same (unique) equilibrium as the sorted max-min profile."""
        nu = 2.5
        cap_based = solve_rate_equilibrium(google_netflix_skype, nu,
                                           MaxMinFairAllocation())
        generic = solve_rate_equilibrium(google_netflix_skype, nu,
                                         AlphaFairAllocation(per_user=True))
        np.testing.assert_allclose(generic.thetas, cap_based.thetas,
                                   rtol=1e-9, atol=1e-12)


class TestLemma1Monotonicity:
    def test_thetas_monotone_in_nu(self, small_random_population):
        previous = None
        for nu in np.linspace(0.1, 15.0, 12):
            equilibrium = solve_rate_equilibrium(small_random_population, float(nu))
            if previous is not None:
                assert np.all(equilibrium.thetas >= previous - 1e-8)
            previous = equilibrium.thetas

    def test_aggregate_rate_equals_min_rule(self, small_random_population):
        """Axiom 2 at equilibrium: lambda_N = min(nu, sum lambda_hat)."""
        load = small_random_population.unconstrained_per_capita_load
        for nu in (0.5, load / 2, load, load * 2):
            equilibrium = solve_rate_equilibrium(small_random_population, float(nu))
            assert equilibrium.aggregate_rate == pytest.approx(
                min(nu, load), rel=1e-6)


class TestTheorem2Surplus:
    def test_surplus_non_decreasing_in_nu(self, small_random_population):
        previous = -1.0
        for nu in np.linspace(0.1, 15.0, 12):
            phi = solve_rate_equilibrium(small_random_population,
                                         float(nu)).consumer_surplus()
            assert phi >= previous - 1e-9
            previous = phi

    def test_surplus_strictly_increasing_while_congested(self,
                                                         small_random_population):
        load = small_random_population.unconstrained_per_capita_load
        phi_low = solve_rate_equilibrium(small_random_population,
                                         load * 0.2).consumer_surplus()
        phi_high = solve_rate_equilibrium(small_random_population,
                                          load * 0.8).consumer_surplus()
        assert phi_high > phi_low

    def test_surplus_saturates_at_unconstrained_load(self, small_random_population):
        load = small_random_population.unconstrained_per_capita_load
        phi_exact = solve_rate_equilibrium(small_random_population,
                                           load).consumer_surplus()
        phi_more = solve_rate_equilibrium(small_random_population,
                                          load * 3).consumer_surplus()
        assert phi_more == pytest.approx(phi_exact, rel=1e-6)

    def test_surplus_matches_definition(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        manual = float(np.sum(two_provider_population.utility_rates
                              * equilibrium.per_capita_rates))
        assert equilibrium.consumer_surplus() == pytest.approx(manual)


class TestDerivedAccessors:
    def test_rhos_and_per_capita_rates(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        np.testing.assert_allclose(equilibrium.rhos,
                                   equilibrium.demands * equilibrium.thetas)
        np.testing.assert_allclose(
            equilibrium.per_capita_rates,
            two_provider_population.alphas * equilibrium.rhos)
        assert equilibrium.provider_rate(0) == pytest.approx(
            float(equilibrium.per_capita_rates[0]))
        assert equilibrium.provider_rho(1) == pytest.approx(
            float(equilibrium.rhos[1]))

    def test_omegas(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        np.testing.assert_allclose(
            equilibrium.omegas,
            equilibrium.thetas / two_provider_population.theta_hats)

    def test_premium_revenue(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        assert equilibrium.premium_revenue(0.5) == pytest.approx(
            0.5 * equilibrium.aggregate_rate)
        with pytest.raises(ModelValidationError):
            equilibrium.premium_revenue(-0.1)

    def test_throughput_by_name(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        by_name = equilibrium.throughput_by_name()
        assert set(by_name) == {"elastic", "streaming"}

    def test_scaled_recovers_absolute_rates(self, two_provider_population):
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0)
        absolute = equilibrium.scaled(consumers=200.0)
        assert absolute["elastic"] == pytest.approx(
            200.0 * equilibrium.per_capita_rates[0])
        with pytest.raises(ModelValidationError):
            equilibrium.scaled(consumers=-1.0)


class TestAlternativeMechanisms:
    def test_weighted_fair_equilibrium(self, two_provider_population):
        mechanism = WeightedFairAllocation(weights={"streaming": 3.0})
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0, mechanism)
        assert equilibrium.aggregate_rate == pytest.approx(1.0, rel=1e-6)
        assert equilibrium.mechanism_name == "WeightedFairAllocation"

    @pytest.mark.parametrize("make_mechanism", [
        lambda population: ProportionalToDemandAllocation(),
        lambda population: WeightedFairAllocation(
            {name: 2.0 for name in population.names[::2]}),
        lambda population: AlphaFairAllocation(alpha=2.0),
        lambda population: StrictPriorityAllocation(population.names[::-3]),
    ], ids=["proportional-to-demand", "weighted-fair", "alpha-fair",
            "strict-priority"])
    # Alpha-fair and strict-priority levels invert rho_i down to targets
    # hundreds of halvings below theta_hat at 1e-100.
    @pytest.mark.parametrize("fraction", [1e-100, 1e-15, 1e-13, 1e-6, 0.3])
    def test_work_conservation_at_tiny_capacity(self, make_mechanism,
                                                fraction):
        # Axiom 2: a congested equilibrium carries exactly nu, however
        # small nu is relative to the load.
        population = paper_population(count=200)
        nu = fraction * population.unconstrained_per_capita_load
        equilibrium = solve_rate_equilibrium(population, nu,
                                             make_mechanism(population))
        assert abs(equilibrium.aggregate_rate / nu - 1.0) <= 1e-9

    @pytest.mark.parametrize("make_mechanism", DEFINITION_1_MECHANISMS)
    def test_load_below_the_old_absolute_slack_is_congested(self,
                                                            make_mechanism):
        # The whole load (1e-300) is far below 1e-15, so an absolute
        # uncongested slack of that size would call every capacity
        # uncongested; half the load is congested and carries exactly nu.
        population = Population([ContentProvider(
            "tiny", alpha=1e-300, theta_hat=1.0, beta=0.0)])
        mechanism = make_mechanism(population)
        nu = 0.5 * population.unconstrained_per_capita_load
        equilibrium = solve_rate_equilibrium(population, nu, mechanism)
        assert 0.0 < equilibrium.common_cap < float("inf")
        assert equilibrium.is_congested
        assert equilibrium.aggregate_rate == pytest.approx(nu, rel=1e-12)
        reallocated = mechanism.allocate(population, equilibrium.demands, nu)
        np.testing.assert_allclose(reallocated, equilibrium.thetas,
                                   rtol=1e-9)

    def test_strict_priority_equilibrium(self, two_provider_population):
        mechanism = StrictPriorityAllocation(priority_order=["elastic", "streaming"])
        equilibrium = solve_rate_equilibrium(two_provider_population, 1.0, mechanism)
        # elastic (priority, load 1.0) takes everything at nu = 1.0.
        assert equilibrium.thetas[0] == pytest.approx(1.0, rel=1e-4)
        assert equilibrium.aggregate_rate == pytest.approx(1.0, rel=1e-4)

    def test_figure3_ordering(self, google_netflix_skype):
        """Google's demand saturates first, then Skype, then Netflix (Figure 3)."""

        def capacity_for_demand(name: str, level: float) -> float:
            index = google_netflix_skype.index_of(name)
            for nu in np.linspace(0.05, 6.0, 120):
                equilibrium = solve_rate_equilibrium(google_netflix_skype, float(nu))
                if equilibrium.demands[index] >= level:
                    return float(nu)
            return float("inf")

        google = capacity_for_demand("google", 0.9)
        skype = capacity_for_demand("skype", 0.9)
        netflix = capacity_for_demand("netflix", 0.9)
        assert google <= skype <= netflix

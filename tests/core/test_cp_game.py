"""Tests for the second-stage CP class-selection game (Definitions 2-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelValidationError
from repro.core.cp_game import (
    CPPartitionGame,
    competitive_equilibrium,
    nash_equilibrium,
)
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.provider import ContentProvider, Population


def rich_and_poor_population():
    """Two high-margin CPs and two that cannot afford any realistic price."""
    return Population([
        ContentProvider(name="rich-1", alpha=0.6, theta_hat=2.0, beta=2.0,
                        revenue_rate=0.9, utility_rate=2.0),
        ContentProvider(name="rich-2", alpha=0.4, theta_hat=3.0, beta=4.0,
                        revenue_rate=0.8, utility_rate=3.0),
        ContentProvider(name="poor-1", alpha=0.8, theta_hat=1.0, beta=0.5,
                        revenue_rate=0.1, utility_rate=1.0),
        ContentProvider(name="poor-2", alpha=0.5, theta_hat=1.5, beta=1.0,
                        revenue_rate=0.05, utility_rate=0.5),
    ])


class TestTrivialProfiles:
    def test_kappa_zero_everyone_ordinary(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, nu=5.0,
                                          strategy=ISPStrategy(0.0, 0.5))
        assert outcome.premium_indices == ()
        assert len(outcome.ordinary_indices) == len(medium_random_population)
        assert outcome.isp_surplus == 0.0
        assert outcome.converged

    def test_public_option_is_single_neutral_class(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, nu=5.0,
                                          strategy=PUBLIC_OPTION_STRATEGY)
        assert outcome.premium_indices == ()
        assert outcome.isp_surplus == 0.0
        # Consumer surplus equals the neutral single-class surplus.
        from repro.core.surplus import neutral_consumer_surplus
        assert outcome.consumer_surplus == pytest.approx(
            neutral_consumer_surplus(medium_random_population, 5.0), rel=1e-9)

    def test_kappa_one_affordability_split(self):
        population = rich_and_poor_population()
        outcome = competitive_equilibrium(population, nu=1.0,
                                          strategy=ISPStrategy(1.0, 0.5))
        premium_names = {population.names[i] for i in outcome.premium_indices}
        assert premium_names == {"rich-1", "rich-2"}
        ordinary_names = {population.names[i] for i in outcome.ordinary_indices}
        assert ordinary_names == {"poor-1", "poor-2"}
        # Ordinary class has zero capacity under kappa = 1.
        assert outcome.ordinary_capacity == 0.0
        assert outcome.ordinary_carried_rate == pytest.approx(0.0)

    def test_zero_capacity_system(self, two_provider_population):
        outcome = competitive_equilibrium(two_provider_population, nu=0.0,
                                          strategy=ISPStrategy(1.0, 0.2))
        assert outcome.aggregate_rate == 0.0
        assert outcome.consumer_surplus == 0.0

    @pytest.mark.filterwarnings("error")
    def test_subnormal_capacity_raises_no_warning(self):
        # A subnormal class capacity must not overflow the move-impact
        # tolerance (own load / class capacity).
        population = rich_and_poor_population()
        outcome = competitive_equilibrium(population, nu=1e-310,
                                          strategy=ISPStrategy(0.5, 0.3))
        assert (sorted(outcome.ordinary_indices + outcome.premium_indices)
                == list(range(len(population))))

    def test_empty_population(self):
        outcome = competitive_equilibrium(Population([]), nu=1.0,
                                          strategy=ISPStrategy(0.5, 0.5))
        assert outcome.ordinary_indices == ()
        assert outcome.premium_indices == ()


class TestCompetitiveEquilibrium:
    def test_partition_is_exhaustive_and_disjoint(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, nu=3.0,
                                          strategy=ISPStrategy(0.6, 0.4))
        ordinary = set(outcome.ordinary_indices)
        premium = set(outcome.premium_indices)
        assert ordinary.isdisjoint(premium)
        assert ordinary | premium == set(range(len(medium_random_population)))

    def test_equilibrium_certificate(self, medium_random_population):
        """The solver converges; any residual throughput-taking violators are
        a tiny minority of heavy CPs (the documented finite-N slack)."""
        game = CPPartitionGame(medium_random_population, nu=3.0,
                               strategy=ISPStrategy(0.6, 0.4))
        outcome = game.competitive_equilibrium()
        assert outcome.converged
        violators = game.verify_competitive(outcome)
        assert len(violators) <= max(2, len(medium_random_population) // 20)

    @pytest.mark.parametrize("kappa,price", [(1.0, 0.2), (1.0, 0.7), (0.5, 0.5),
                                             (0.3, 0.1), (0.8, 0.9)])
    def test_equilibrium_across_strategies(self, medium_random_population, kappa, price):
        game = CPPartitionGame(medium_random_population, nu=8.0,
                               strategy=ISPStrategy(kappa, price))
        outcome = game.competitive_equilibrium()
        assert outcome.converged
        violations = game.verify_competitive(outcome)
        assert len(violations) <= max(2, len(medium_random_population) // 20)

    def test_exact_equilibrium_when_premium_only(self, medium_random_population):
        """kappa = 1 with a clear price gives an exact (violation-free)
        competitive equilibrium: the affordability threshold decides."""
        game = CPPartitionGame(medium_random_population, nu=8.0,
                               strategy=ISPStrategy(1.0, 0.5))
        outcome = game.competitive_equilibrium()
        assert outcome.converged
        assert game.verify_competitive(outcome) == []

    def test_expost_switch_gains_accounting(self, medium_random_population):
        """The ex-post audit returns finite relative gains for any CP."""
        game = CPPartitionGame(medium_random_population, nu=5.0,
                               strategy=ISPStrategy(0.7, 0.4))
        outcome = game.competitive_equilibrium()
        names = list(medium_random_population.names[:5])
        gains = game.expost_switch_gains(outcome, names=names)
        assert set(gains) == set(names)
        assert all(np.isfinite(v) for v in gains.values())
        assert all(-2.0 - 1e-9 <= v <= 2.0 + 1e-9 for v in gains.values())

    def test_expensive_premium_is_empty(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, nu=3.0,
                                          strategy=ISPStrategy(0.5, 10.0))
        assert outcome.premium_indices == ()

    def test_premium_members_can_afford_price(self, medium_random_population):
        price = 0.6
        outcome = competitive_equilibrium(medium_random_population, nu=3.0,
                                          strategy=ISPStrategy(0.9, price))
        for index in outcome.premium_indices:
            assert medium_random_population[index].revenue_rate > price

    def test_capacity_accounting(self, medium_random_population):
        strategy = ISPStrategy(0.7, 0.3)
        nu = 4.0
        outcome = competitive_equilibrium(medium_random_population, nu, strategy)
        assert outcome.premium_capacity == pytest.approx(0.7 * nu)
        assert outcome.ordinary_capacity == pytest.approx(0.3 * nu)
        assert outcome.premium_carried_rate <= outcome.premium_capacity + 1e-9
        assert outcome.ordinary_carried_rate <= outcome.ordinary_capacity + 1e-9
        assert outcome.aggregate_rate == pytest.approx(
            outcome.premium_carried_rate + outcome.ordinary_carried_rate)
        assert 0.0 <= outcome.capacity_utilization <= 1.0

    def test_isp_surplus_formula(self, medium_random_population):
        strategy = ISPStrategy(1.0, 0.4)
        outcome = competitive_equilibrium(medium_random_population, 3.0, strategy)
        assert outcome.isp_surplus == pytest.approx(
            0.4 * outcome.premium_carried_rate)

    def test_assignment_by_name(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, 3.0,
                                          ISPStrategy(0.5, 0.5))
        assignment = outcome.assignment_by_name()
        assert len(assignment) == len(medium_random_population)
        assert set(assignment.values()) <= {"ordinary", "premium"}

    def test_premium_share_of_providers(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, 3.0,
                                          ISPStrategy(1.0, 0.5))
        expected = len(outcome.premium_indices) / len(medium_random_population)
        assert outcome.premium_share_of_providers == pytest.approx(expected)

    def test_cp_utilities_sign(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, 3.0,
                                          ISPStrategy(0.8, 0.4))
        utilities = outcome.cp_utilities()
        assert len(utilities) == len(medium_random_population)
        # Premium members pay c <= v, so every CP earns a non-negative profit.
        assert all(value >= -1e-12 for value in utilities.values())

    def test_throughput_estimator_validation(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            CPPartitionGame(two_provider_population, 1.0, ISPStrategy(0.5, 0.5),
                            throughput_estimator="bogus")

    def test_negative_nu_rejected(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            CPPartitionGame(two_provider_population, -1.0, ISPStrategy(0.5, 0.5))

    def test_max_member_estimator_also_converges(self, medium_random_population):
        game = CPPartitionGame(medium_random_population, 3.0, ISPStrategy(1.0, 0.4),
                               throughput_estimator="max_member")
        outcome = game.competitive_equilibrium()
        assert game.verify_competitive(outcome) == []


class TestNashEquilibrium:
    def test_nash_no_violations_small_population(self):
        population = rich_and_poor_population()
        game = CPPartitionGame(population, nu=1.5, strategy=ISPStrategy(0.6, 0.3))
        outcome = game.nash_equilibrium()
        assert outcome.converged
        assert game.verify_nash(outcome) == []
        assert outcome.equilibrium_kind == "nash"

    def test_nash_respects_affordability(self):
        population = rich_and_poor_population()
        outcome = nash_equilibrium(population, nu=1.5, strategy=ISPStrategy(1.0, 0.5))
        premium_names = {population.names[i] for i in outcome.premium_indices}
        assert premium_names <= {"rich-1", "rich-2"}

    def test_nash_with_kappa_zero(self):
        population = rich_and_poor_population()
        outcome = nash_equilibrium(population, nu=1.5, strategy=ISPStrategy(0.0, 0.5))
        assert outcome.premium_indices == ()

    def test_nash_and_competitive_agree_on_small_population(self):
        """With few CPs, the two equilibrium concepts usually coincide."""
        population = rich_and_poor_population()
        strategy = ISPStrategy(1.0, 0.4)
        nash = nash_equilibrium(population, nu=1.0, strategy=strategy)
        competitive = competitive_equilibrium(population, nu=1.0, strategy=strategy)
        assert set(nash.premium_indices) == set(competitive.premium_indices)

    def test_initial_premium_seed(self):
        population = rich_and_poor_population()
        game = CPPartitionGame(population, nu=1.5, strategy=ISPStrategy(0.7, 0.3))
        outcome = game.nash_equilibrium(initial_premium=[0, 1])
        assert game.verify_nash(outcome) == []


class TestTieBreaking:
    def test_equal_utility_goes_to_ordinary(self):
        """A CP indifferent between the classes joins the ordinary class."""
        population = Population([
            ContentProvider(name="indifferent", alpha=0.5, theta_hat=1.0, beta=0.0,
                            revenue_rate=0.5, utility_rate=1.0),
        ])
        # With beta=0 demand is always 1; a symmetric split (kappa=0.5) with a
        # free premium class gives identical throughput in both classes when
        # alone, so utilities tie exactly and the CP must pick ordinary.
        outcome = competitive_equilibrium(population, nu=2.0,
                                          strategy=ISPStrategy(0.5, 0.0))
        assert outcome.premium_indices == ()

    def test_revenue_below_price_never_premium(self):
        population = rich_and_poor_population()
        outcome = competitive_equilibrium(population, nu=1.0,
                                          strategy=ISPStrategy(1.0, 0.95))
        assert outcome.premium_indices == ()

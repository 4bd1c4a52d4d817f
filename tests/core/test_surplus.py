"""Tests for welfare accounting helpers."""

from __future__ import annotations

import pytest

from repro.core.cp_game import competitive_equilibrium
from repro.core.strategy import ISPStrategy
from repro.core.surplus import (
    SurplusBreakdown,
    max_consumer_surplus,
    neutral_consumer_surplus,
    welfare_report,
)
from repro.network.equilibrium import solve_rate_equilibrium


class TestSurplusBreakdown:
    def test_total_welfare(self):
        breakdown = SurplusBreakdown(consumer_surplus=2.0, isp_surplus=1.0,
                                     cp_surplus=0.5)
        assert breakdown.total_welfare == pytest.approx(3.5)

    def test_scaled(self):
        breakdown = SurplusBreakdown(2.0, 1.0, 0.5).scaled(100.0)
        assert breakdown.consumer_surplus == pytest.approx(200.0)
        assert breakdown.isp_surplus == pytest.approx(100.0)
        assert breakdown.cp_surplus == pytest.approx(50.0)


class TestWelfareReport:
    def test_matches_outcome(self, medium_random_population):
        outcome = competitive_equilibrium(medium_random_population, nu=5.0,
                                          strategy=ISPStrategy(0.8, 0.3))
        breakdown = welfare_report(outcome)
        assert breakdown.consumer_surplus == pytest.approx(outcome.consumer_surplus)
        assert breakdown.isp_surplus == pytest.approx(outcome.isp_surplus)
        assert breakdown.cp_surplus == pytest.approx(
            sum(outcome.cp_utilities().values()))

    def test_isp_plus_cp_equals_gross_cp_revenue(self, medium_random_population):
        """The premium charge is a transfer: ISP surplus plus net CP profit
        equals the CPs' gross revenue on carried traffic."""
        outcome = competitive_equilibrium(medium_random_population, nu=5.0,
                                          strategy=ISPStrategy(1.0, 0.4))
        breakdown = welfare_report(outcome)
        # Independent oracle: each class's rate equilibrium solved directly
        # on its sub-population at the class capacity.
        gross = 0.0
        for indices, class_nu in ((outcome.ordinary_indices, 0.0),
                                  (outcome.premium_indices, 5.0)):
            members = medium_random_population.subset(indices)
            equilibrium = solve_rate_equilibrium(members, class_nu)
            gross += sum(provider.revenue_rate * float(rate)
                         for provider, rate in zip(
                             members, equilibrium.per_capita_rates))
        assert breakdown.isp_surplus + breakdown.cp_surplus == pytest.approx(
            gross, rel=1e-9)


class TestNeutralAndMaxSurplus:
    def test_neutral_surplus_equals_single_class(self, small_random_population):
        direct = solve_rate_equilibrium(small_random_population, 2.0).consumer_surplus()
        assert neutral_consumer_surplus(small_random_population, 2.0) == pytest.approx(direct)

    def test_max_surplus_is_upper_bound(self, small_random_population):
        upper = max_consumer_surplus(small_random_population)
        for nu in (0.5, 2.0, 10.0, 50.0):
            assert neutral_consumer_surplus(small_random_population, nu) <= upper + 1e-9

    def test_max_surplus_attained_when_unconstrained(self, small_random_population):
        load = small_random_population.unconstrained_per_capita_load
        assert neutral_consumer_surplus(small_random_population, 2 * load) == pytest.approx(
            max_consumer_surplus(small_random_population), rel=1e-9)

"""Property-based tests (hypothesis) for the core invariants of the model.

These exercise the substrate and the game layer on randomly generated
populations and parameters, checking the paper's structural results:

* Assumption 1 on every shipped demand family;
* Axioms 1-2 of the rate allocation at the equilibrium (feasibility and work
  conservation), and Lemma 1 / Theorem 2 monotonicity in the capacity;
* the second-stage partition game's accounting identities;
* the migration equilibrium's market shares summing to one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cp_game import competitive_equilibrium
from repro.core.migration import IspConfig, solve_market_split
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.demand import (
    ExponentialSensitivityDemand,
    LinearDemand,
    SigmoidDemand,
    validate_demand_function,
)
from repro.network.equilibrium import solve_rate_equilibrium
from repro.network.provider import ContentProvider, Population

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
provider_st = st.builds(
    ContentProvider,
    name=st.uuids().map(str),
    alpha=st.floats(min_value=0.01, max_value=1.0),
    theta_hat=st.floats(min_value=0.05, max_value=10.0),
    beta=st.floats(min_value=0.0, max_value=10.0),
    revenue_rate=st.floats(min_value=0.0, max_value=1.0),
    utility_rate=st.floats(min_value=0.0, max_value=5.0),
)

population_st = st.lists(provider_st, min_size=1, max_size=12).map(Population)

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# Demand functions: Assumption 1
# --------------------------------------------------------------------------- #
class TestDemandProperties:
    @given(theta_hat=st.floats(min_value=0.05, max_value=50.0),
           beta=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_exponential_demand_satisfies_assumption1(self, theta_hat, beta):
        validate_demand_function(ExponentialSensitivityDemand(theta_hat, beta))

    @given(theta_hat=st.floats(min_value=0.05, max_value=50.0),
           floor=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_demand_satisfies_assumption1(self, theta_hat, floor):
        validate_demand_function(LinearDemand(theta_hat, floor))

    @given(theta_hat=st.floats(min_value=0.05, max_value=50.0),
           midpoint=st.floats(min_value=0.05, max_value=0.95),
           steepness=st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_demand_satisfies_assumption1(self, theta_hat, midpoint,
                                                  steepness):
        validate_demand_function(SigmoidDemand(theta_hat, midpoint, steepness))

    @given(beta_low=st.floats(min_value=0.0, max_value=5.0),
           beta_gap=st.floats(min_value=0.1, max_value=10.0),
           omega=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_higher_sensitivity_means_weakly_lower_demand(self, beta_low,
                                                          beta_gap, omega):
        low = ExponentialSensitivityDemand(1.0, beta_low)
        high = ExponentialSensitivityDemand(1.0, beta_low + beta_gap)
        assert high(omega) <= low(omega) + 1e-12


# --------------------------------------------------------------------------- #
# Rate equilibrium: Axioms and monotonicity
# --------------------------------------------------------------------------- #
class TestEquilibriumProperties:
    @given(population=population_st,
           nu_fraction=st.floats(min_value=0.01, max_value=3.0))
    @SLOW
    def test_axioms_at_equilibrium(self, population, nu_fraction):
        load = population.unconstrained_per_capita_load
        nu = nu_fraction * load
        equilibrium = solve_rate_equilibrium(population, nu)
        # Axiom 1 (feasibility)
        assert np.all(equilibrium.thetas <= population.theta_hats * (1 + 1e-9))
        assert np.all(equilibrium.thetas >= -1e-12)
        # Axiom 2 (work conservation)
        assert equilibrium.aggregate_rate == pytest.approx(min(nu, load), rel=1e-5)
        # Demands lie in [0, 1] and are consistent with the throughputs.
        assert np.all((equilibrium.demands >= 0.0) & (equilibrium.demands <= 1.0))

    @given(population=population_st,
           fractions=st.tuples(st.floats(min_value=0.05, max_value=3.0),
                               st.floats(min_value=0.05, max_value=3.0)))
    @SLOW
    def test_lemma1_monotone_in_capacity(self, population, fractions):
        load = population.unconstrained_per_capita_load
        low, high = sorted(fractions)
        eq_low = solve_rate_equilibrium(population, low * load)
        eq_high = solve_rate_equilibrium(population, high * load)
        assert np.all(eq_high.thetas >= eq_low.thetas - 1e-8)
        # Theorem 2: consumer surplus is non-decreasing in capacity.
        assert eq_high.consumer_surplus() >= eq_low.consumer_surplus() - 1e-8

    @given(population=population_st,
           nu_fraction=st.floats(min_value=0.05, max_value=2.0),
           scale=st.floats(min_value=0.1, max_value=100.0))
    @SLOW
    def test_axiom4_scale_independence(self, population, nu_fraction, scale):
        # Scaling the consumer count M and the capacity mu together leaves
        # the per-capita capacity, and so the equilibrium, unchanged.
        consumers = 100.0
        capacity = consumers * nu_fraction * population.unconstrained_per_capita_load
        base = solve_rate_equilibrium(population, capacity / consumers)
        scaled = solve_rate_equilibrium(population,
                                        (capacity * scale) / (consumers * scale))
        np.testing.assert_allclose(scaled.thetas, base.thetas, rtol=1e-7,
                                   atol=1e-10)


# --------------------------------------------------------------------------- #
# Second-stage game: accounting identities
# --------------------------------------------------------------------------- #
class TestPartitionProperties:
    @given(population=population_st,
           kappa=st.floats(min_value=0.0, max_value=1.0),
           price=st.floats(min_value=0.0, max_value=1.2),
           nu_fraction=st.floats(min_value=0.05, max_value=2.0))
    @SLOW
    def test_partition_accounting(self, population, kappa, price, nu_fraction):
        nu = nu_fraction * population.unconstrained_per_capita_load
        outcome = competitive_equilibrium(population, nu, ISPStrategy(kappa, price))
        ordinary = set(outcome.ordinary_indices)
        premium = set(outcome.premium_indices)
        # Partition covers everyone exactly once.
        assert ordinary.isdisjoint(premium)
        assert ordinary | premium == set(range(len(population)))
        # Premium members can afford the price.
        for index in premium:
            assert population[index].revenue_rate > price
        # Class capacities are respected and the surplus formulas hold.
        assert outcome.premium_carried_rate <= kappa * nu + 1e-7
        assert outcome.ordinary_carried_rate <= (1.0 - kappa) * nu + 1e-7
        assert outcome.isp_surplus == pytest.approx(
            price * outcome.premium_carried_rate, rel=1e-9, abs=1e-12)
        assert outcome.consumer_surplus >= -1e-12


# --------------------------------------------------------------------------- #
# Migration equilibrium
# --------------------------------------------------------------------------- #
class TestMigrationProperties:
    @given(population=st.lists(provider_st, min_size=4, max_size=10).map(Population),
           gamma=st.floats(min_value=0.2, max_value=0.8),
           kappa=st.floats(min_value=0.0, max_value=1.0),
           price=st.floats(min_value=0.0, max_value=1.0),
           nu_fraction=st.floats(min_value=0.1, max_value=1.5))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_market_shares_sum_to_one(self, population, gamma, kappa, price,
                                      nu_fraction):
        nu = nu_fraction * population.unconstrained_per_capita_load
        isps = [IspConfig("strategic", ISPStrategy(kappa, price), gamma),
                IspConfig("public", PUBLIC_OPTION_STRATEGY, 1.0 - gamma)]
        split = solve_market_split(population, nu, isps, max_iterations=25)
        assert sum(split.shares.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(-1e-9 <= share <= 1.0 + 1e-9 for share in split.shares.values())
        assert split.consumer_surplus >= -1e-9

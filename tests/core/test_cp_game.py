"""Tests for the second-stage CP class-selection game (Definitions 2-3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ModelValidationError
from repro.core.cp_game import (
    CPPartitionGame,
    competitive_equilibrium,
    nash_equilibrium,
)
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.network.allocation import (
    AlphaFairAllocation,
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
    StrictPriorityAllocation,
    WeightedFairAllocation,
)
from repro.network.demand import (
    ConstantElasticityDemand,
    LinearDemand,
    SigmoidDemand,
    UnitDemand,
)
from repro.cache import all_cache_stats, clear_all_caches
from repro.config import SolverConfig
from repro.network import equilibrium
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    solve_rate_equilibrium,
)
from repro.network.provider import ContentProvider, Population
from repro.workloads.populations import (
    PopulationSpec,
    paper_population,
    random_population,
)


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

    def test_negative_nu_rejected(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            CPPartitionGame(two_provider_population, -1.0, ISPStrategy(0.5, 0.5))

    def test_alpha_fair_game_converges(self, medium_random_population):
        """Under alpha-fairness a CP estimates its throughput at the class's
        water level, inverting its own ``rho``."""
        game = CPPartitionGame(medium_random_population, 3.0, ISPStrategy(0.6, 0.4),
                               AlphaFairAllocation(alpha=1.0))
        outcome = game.competitive_equilibrium()
        assert outcome.converged
        assert game.verify_competitive(outcome) == []

    def test_strict_priority_rejected(self, two_provider_population):
        # A priority position means something for one population only.
        with pytest.raises(ModelValidationError, match="strict priority"):
            CPPartitionGame(two_provider_population, 1.0, ISPStrategy(0.5, 0.5),
                            StrictPriorityAllocation())


#: Every cap mechanism a CP game accepts.
GAME_MECHANISMS = [
    pytest.param(MaxMinFairAllocation(), id="maxmin"),
    pytest.param(WeightedFairAllocation({"cp-0000": 3.0, "cp-0001": 0.2}),
                 id="weighted-fair"),
    pytest.param(ProportionalToDemandAllocation(), id="proportional-to-demand"),
    pytest.param(AlphaFairAllocation(alpha=1.0), id="alpha-fair"),
    pytest.param(AlphaFairAllocation(per_user=True), id="alpha-fair-per-user"),
]


@pytest.mark.parametrize("mechanism", GAME_MECHANISMS)
@pytest.mark.parametrize("premium_every", [0, 3])
def test_member_estimates_equal_class_equilibrium(mechanism, premium_every):
    """A member's throughput-taking estimate in its own class is exactly its
    rho at the class's rate equilibrium, whatever mechanism runs inside."""
    population = paper_population(50, seed=3)
    nu = 0.4 * population.unconstrained_per_capita_load
    game = CPPartitionGame(population, nu, ISPStrategy(0.5, 0.3), mechanism)
    premium = np.zeros(len(population), dtype=bool)
    if premium_every:
        premium[::premium_every] = True
    for members, class_nu in ((~premium, game.ordinary_nu),
                              (premium, game.premium_nu)):
        count = int(np.count_nonzero(members))
        if count == 0:
            continue
        cap = game._class_cap_for_mask(members, count, class_nu)
        estimates = game._rho_at_cap(cap)[members]
        oracle = solve_rate_equilibrium(
            population.subset(np.flatnonzero(members)), class_nu, mechanism)
        assert estimates.tolist() == oracle.rhos.tolist()


class TestClassCapMemo:
    """A game keeps its class caps; only full-population caps are shared."""

    def setup_method(self):
        clear_all_caches()

    def test_competitive_solve_leaves_no_masked_cap_in_shared_cache(
            self, medium_random_population):
        game = CPPartitionGame(medium_random_population, 3.0,
                               ISPStrategy(0.6, 0.4))
        game.competitive_equilibrium()
        # The game did solve proper classes, in its own memo ...
        size = len(medium_random_population)
        assert any(not np.unpackbits(np.frombuffer(bits, np.uint8))[:size].all()
                   for _, bits in game._caps)
        # ... and the shared cache holds no class mask.
        keys = list(equilibrium._CLASS_CAP_CACHE._data)
        assert all(len(key) == 4 and not isinstance(part, bytes)
                   for key in keys for part in key)
        assert all_cache_stats()["class_caps"]["size"] == len(keys) <= 2

    @pytest.mark.parametrize("cache_policy", ["shared", "bypass"])
    def test_repeated_best_responses_solve_no_cap(
            self, medium_random_population, monkeypatch, cache_policy):
        game = CPPartitionGame(medium_random_population, 3.0,
                               ISPStrategy(0.6, 0.4),
                               config=SolverConfig(cache_policy=cache_policy))
        mask = game._revenues > 0.6
        assert 0 < np.count_nonzero(mask) < len(mask)
        first = game._best_responses(mask)
        solves = []
        original = ExponentialMaxMinProfile.solve_cap

        def counted(self, *args, **kwargs):
            solves.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ExponentialMaxMinProfile, "solve_cap", counted)
        second = game._best_responses(mask.copy())
        assert solves == []
        for before, after in zip(first, second):
            np.testing.assert_array_equal(before, after)


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


# --------------------------------------------------------------------------- #
# Independent oracle: every class solved directly on its sub-population
# --------------------------------------------------------------------------- #
def assert_matches_class_oracle(outcome, mechanism=None):
    """Outcome data equal (``==``) to a direct solve of each class.

    The oracle builds each class's sub-population and solves its rate
    equilibrium at the class capacity with :func:`solve_rate_equilibrium`,
    the paper's two-class analysis taken literally; the game itself never
    builds a sub-population under max-min fairness.
    """
    population, strategy = outcome.population, outcome.strategy
    carried, surplus, utilities = {}, 0.0, {}
    for label, indices, class_nu, price in (
            ("ordinary", outcome.ordinary_indices,
             (1.0 - strategy.kappa) * outcome.nu, 0.0),
            ("premium", outcome.premium_indices,
             strategy.kappa * outcome.nu, strategy.price)):
        members = population.subset(indices)
        oracle = solve_rate_equilibrium(members, class_nu, mechanism)
        carried[label] = oracle.aggregate_rate
        surplus += oracle.consumer_surplus()
        for provider, rate in zip(members, oracle.per_capita_rates):
            utilities[provider.name] = (provider.revenue_rate - price) * float(rate)
    assert outcome.ordinary_carried_rate == carried["ordinary"]
    assert outcome.premium_carried_rate == carried["premium"]
    assert outcome.consumer_surplus == surplus
    assert outcome.isp_surplus == strategy.price * carried["premium"]
    assert list(outcome.cp_utilities().items()) == list(utilities.items())
    assert not outcome.rates.flags.writeable
    assert not outcome.premium_mask.flags.writeable


def mixed_family_population(count, seed):
    """Equation-(3) providers mixed with four other demand families."""
    rng = np.random.default_rng(seed)
    providers = []
    for index in range(count):
        theta_hat = float(rng.uniform(0.2, 3.0))
        family = index % 5
        demand = (None, LinearDemand(theta_hat, floor=0.2), UnitDemand(theta_hat),
                  SigmoidDemand(theta_hat, midpoint=0.4, steepness=8.0),
                  ConstantElasticityDemand(theta_hat, elasticity=1.5))[family]
        providers.append(ContentProvider(
            f"cp-{index}", alpha=float(rng.uniform(0.1, 1.0)),
            theta_hat=theta_hat, beta=float(rng.uniform(0.0, 4.0)),
            revenue_rate=float(rng.uniform(0.0, 1.0)),
            utility_rate=float(rng.uniform(0.0, 2.0)), demand=demand))
    return Population(providers)


class TestOutcomesMatchClassOracle:
    @given(count=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=10_000),
           mixed=st.booleans(),
           kappa=st.sampled_from([0.0, 0.35, 1.0]),
           price=st.sampled_from([0.0, 0.2, 0.6, 1.5]),
           load_fraction=st.sampled_from([0.0, 0.05, 0.4, 0.9, 2.0]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_competitive_maxmin(self, count, seed, mixed, kappa, price,
                                load_fraction):
        population = (mixed_family_population(count, seed) if mixed
                      else random_population(PopulationSpec(count=count),
                                             seed=seed))
        nu = load_fraction * population.unconstrained_per_capita_load
        outcome = competitive_equilibrium(population, nu,
                                          ISPStrategy(kappa, price))
        assert_matches_class_oracle(outcome)

    @given(count=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000),
           mixed=st.booleans(),
           kappa=st.sampled_from([0.0, 0.5, 1.0]),
           price=st.sampled_from([0.0, 0.3]),
           load_fraction=st.sampled_from([0.0, 0.3, 1.2]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_nash_maxmin(self, count, seed, mixed, kappa, price,
                         load_fraction):
        population = (mixed_family_population(count, seed) if mixed
                      else random_population(PopulationSpec(count=count),
                                             seed=seed))
        nu = load_fraction * population.unconstrained_per_capita_load
        outcome = nash_equilibrium(population, nu, ISPStrategy(kappa, price))
        assert_matches_class_oracle(outcome)

    def test_empty_premium_and_empty_ordinary_classes(self):
        population = rich_and_poor_population()
        nobody_pays = competitive_equilibrium(population, 1.5,
                                              ISPStrategy(1.0, 5.0))
        assert nobody_pays.premium_indices == ()
        assert_matches_class_oracle(nobody_pays)
        free_premium = competitive_equilibrium(population, 1.5,
                                               ISPStrategy(1.0, 0.0))
        assert free_premium.ordinary_indices == ()
        assert_matches_class_oracle(free_premium)

    @pytest.mark.parametrize("mechanism", [
        pytest.param(ProportionalToDemandAllocation(), id="common-cap"),
        pytest.param(AlphaFairAllocation(alpha=1.0), id="alpha-fair"),
    ])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("load_fraction", [0.0, 0.3, 0.9])
    def test_generic_mechanisms(self, mechanism, kappa, load_fraction):
        population = mixed_family_population(6, seed=17)
        nu = load_fraction * population.unconstrained_per_capita_load
        strategy = ISPStrategy(kappa, 0.2)
        for outcome in (
                competitive_equilibrium(population, nu, strategy, mechanism),
                nash_equilibrium(population, nu, strategy, mechanism)):
            assert_matches_class_oracle(outcome, mechanism)

"""Tests for the content-provider model and population container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelValidationError
from repro.network.demand import LinearDemand, UnitDemand
from repro.network.provider import ContentProvider, Population


def make_cp(name="cp", alpha=0.5, theta_hat=2.0, beta=1.0, revenue=0.4, utility=1.5):
    return ContentProvider(name=name, alpha=alpha, theta_hat=theta_hat, beta=beta,
                           revenue_rate=revenue, utility_rate=utility)


class TestContentProviderValidation:
    def test_valid_provider(self):
        cp = make_cp()
        assert cp.alpha == 0.5
        assert cp.demand is not None

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ModelValidationError):
            make_cp(alpha=alpha)

    @pytest.mark.parametrize("theta_hat", [0.0, -1.0, float("inf")])
    def test_invalid_theta_hat(self, theta_hat):
        with pytest.raises(ModelValidationError):
            make_cp(theta_hat=theta_hat)

    def test_invalid_beta(self):
        with pytest.raises(ModelValidationError):
            make_cp(beta=-0.5)

    def test_invalid_revenue(self):
        with pytest.raises(ModelValidationError):
            make_cp(revenue=-1.0)

    def test_invalid_utility(self):
        with pytest.raises(ModelValidationError):
            make_cp(utility=-2.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelValidationError):
            make_cp(name="")

    def test_custom_demand_must_match_theta_hat(self):
        with pytest.raises(ModelValidationError):
            ContentProvider(name="x", alpha=0.5, theta_hat=2.0,
                            demand=UnitDemand(theta_hat=3.0))

    def test_custom_demand_accepted(self):
        cp = ContentProvider(name="x", alpha=0.5, theta_hat=2.0,
                             demand=LinearDemand(theta_hat=2.0))
        assert cp.demand(1.0) == pytest.approx(0.5)


class TestContentProviderDerivedQuantities:
    def test_with_utility_and_revenue_rate(self):
        cp = make_cp()
        assert cp.with_utility_rate(9.0).utility_rate == 9.0
        assert cp.with_revenue_rate(0.9).revenue_rate == 0.9
        # originals untouched (frozen dataclass copies)
        assert cp.utility_rate == 1.5
        assert cp.revenue_rate == 0.4


class TestPopulation:
    def test_unique_names_required(self):
        with pytest.raises(ModelValidationError):
            Population([make_cp(name="a"), make_cp(name="a")])

    def test_sequence_protocol(self, two_provider_population):
        assert len(two_provider_population) == 2
        assert two_provider_population[0].name == "elastic"
        assert two_provider_population[0] in two_provider_population
        assert [cp.name for cp in two_provider_population] == ["elastic", "streaming"]

    def test_slicing_returns_population(self, two_provider_population):
        sliced = two_provider_population[:1]
        assert isinstance(sliced, Population)
        assert len(sliced) == 1

    def test_equality_and_hash(self, two_provider_population):
        clone = Population(list(two_provider_population))
        assert clone == two_provider_population
        assert hash(clone) == hash(two_provider_population)
        assert two_provider_population != Population([make_cp()])

    def test_vectorised_accessors(self, two_provider_population):
        np.testing.assert_allclose(two_provider_population.alphas, [1.0, 0.5])
        np.testing.assert_allclose(two_provider_population.theta_hats, [1.0, 4.0])
        np.testing.assert_allclose(two_provider_population.betas, [0.0, 2.0])
        np.testing.assert_allclose(two_provider_population.revenue_rates, [0.8, 0.4])
        np.testing.assert_allclose(two_provider_population.utility_rates, [1.0, 3.0])

    def test_unconstrained_load(self, two_provider_population):
        assert two_provider_population.unconstrained_per_capita_load == pytest.approx(
            1.0 * 1.0 + 0.5 * 4.0)

    def test_subset(self, two_provider_population):
        subset = two_provider_population.subset([1])
        assert len(subset) == 1
        assert subset[0].name == "streaming"
        with pytest.raises(ModelValidationError):
            two_provider_population.subset([5])

    def test_subset_deduplicates_and_sorts(self, two_provider_population):
        subset = two_provider_population.subset([1, 0, 1])
        assert subset.names == ("elastic", "streaming")

    def test_index_of(self, two_provider_population):
        assert two_provider_population.index_of("streaming") == 1
        with pytest.raises(KeyError):
            two_provider_population.index_of("missing")

    def test_with_utility_rates(self, two_provider_population):
        updated = two_provider_population.with_utility_rates([7.0, 8.0])
        assert updated.utility_rates.tolist() == [7.0, 8.0]
        with pytest.raises(ModelValidationError):
            two_provider_population.with_utility_rates([1.0])

    def test_sorted_by_revenue(self, two_provider_population):
        ordered = two_provider_population.sorted_by_revenue()
        assert ordered[0].name == "elastic"
        ascending = two_provider_population.sorted_by_revenue(descending=False)
        assert ascending[0].name == "streaming"

    def test_describe(self, two_provider_population):
        summary = two_provider_population.describe()
        assert summary["count"] == 2
        assert summary["unconstrained_per_capita_load"] == pytest.approx(3.0)

    def test_describe_empty(self):
        assert Population([]).describe()["count"] == 0


class TestVectorisedDemand:
    def test_matches_scalar_evaluation(self, small_random_population):
        thetas = small_random_population.theta_hats * 0.4
        vectorised = small_random_population.demands_at(thetas)
        scalar = np.array([cp.demand(theta)
                           for cp, theta in zip(small_random_population, thetas)])
        np.testing.assert_array_equal(vectorised, scalar)

    def test_zero_throughput_limits(self, two_provider_population):
        demands = two_provider_population.demands_at(np.zeros(2))
        # beta = 0 provider keeps demand 1, beta > 0 provider drops to 0.
        np.testing.assert_allclose(demands, [1.0, 0.0])

    def test_above_theta_hat_clamps(self, two_provider_population):
        demands = two_provider_population.demands_at(np.array([10.0, 10.0]))
        np.testing.assert_allclose(demands, [1.0, 1.0])

    def test_shape_mismatch_rejected(self, two_provider_population):
        with pytest.raises(ModelValidationError):
            two_provider_population.demands_at(np.zeros(3))

    def test_fallback_for_non_exponential_demand(self):
        population = Population([
            ContentProvider(name="custom", alpha=0.5, theta_hat=2.0,
                            demand=LinearDemand(theta_hat=2.0)),
            ContentProvider(name="expo", alpha=0.5, theta_hat=2.0, beta=1.0),
        ])
        demands = population.demands_at(np.array([1.0, 1.0]))
        assert demands[0] == pytest.approx(0.5)
        assert demands[1] == pytest.approx(np.exp(-1.0))


class TestColumnarPopulation:
    """The structure-of-arrays backing store and its view semantics."""

    def columns(self):
        alphas = np.array([0.5, 0.9, 0.2])
        theta_hats = np.array([2.0, 1.0, 3.0])
        betas = np.array([1.0, 0.0, 4.0])
        revenues = np.array([0.4, 0.8, 0.1])
        utilities = np.array([1.5, 0.5, 2.5])
        return alphas, theta_hats, betas, revenues, utilities

    def test_from_columns_equals_object_construction(self):
        alphas, theta_hats, betas, revenues, utilities = self.columns()
        columnar = Population.from_columns(
            alphas, theta_hats, betas=betas, revenue_rates=revenues,
            utility_rates=utilities, names=("a", "b", "c"))
        objectful = Population([
            ContentProvider(name=name, alpha=alphas[i], theta_hat=theta_hats[i],
                            beta=betas[i], revenue_rate=revenues[i],
                            utility_rate=utilities[i])
            for i, name in enumerate(("a", "b", "c"))
        ])
        assert columnar == objectful
        assert hash(columnar) == hash(objectful)
        assert columnar.fingerprint() == objectful.fingerprint()

    def test_from_columns_defaults(self):
        population = Population.from_columns([0.5, 0.6], [1.0, 2.0])
        np.testing.assert_array_equal(population.betas, [1.0, 1.0])
        np.testing.assert_array_equal(population.revenue_rates, [0.0, 0.0])
        np.testing.assert_array_equal(population.utility_rates, [0.0, 0.0])

    def test_from_columns_does_not_alias_caller_arrays(self):
        alphas = np.array([0.5, 0.6])
        population = Population.from_columns(alphas, [1.0, 2.0])
        alphas[0] = 0.9
        assert population.alphas[0] == 0.5
        with pytest.raises(ValueError):
            population.alphas[0] = 0.7  # read-only view

    @pytest.mark.parametrize("kwargs", [
        {"alphas": [0.0, 0.5], "theta_hats": [1.0, 1.0]},   # alpha not in (0,1]
        {"alphas": [1.5, 0.5], "theta_hats": [1.0, 1.0]},
        {"alphas": [0.5, 0.5], "theta_hats": [0.0, 1.0]},   # theta not positive
        {"alphas": [0.5, 0.5], "theta_hats": [1.0, np.inf]},
        {"alphas": [0.5], "theta_hats": [1.0, 1.0]},        # length mismatch
    ])
    def test_from_columns_validation(self, kwargs):
        with pytest.raises(ModelValidationError):
            Population.from_columns(**kwargs)

    def test_lazy_names_from_prefix(self):
        population = Population.from_columns([0.5, 0.6], [1.0, 2.0],
                                             name_prefix="prov")
        assert population.names == ("prov-0000", "prov-0001")
        assert population[1].name == "prov-0001"
        assert population.index_of("prov-0000") == 0

    def test_provider_view_identity_is_cached(self):
        population = Population.from_columns([0.5, 0.6], [1.0, 2.0])
        assert population[0] is population[0]
        assert isinstance(population[0], ContentProvider)

    def test_fingerprint_tracks_column_values_not_names(self):
        base = Population.from_columns([0.5, 0.6], [1.0, 2.0])
        renamed = Population.from_columns([0.5, 0.6], [1.0, 2.0],
                                          names=("x", "y"))
        perturbed = Population.from_columns([0.5, 0.6], [1.0, 2.000001])
        # Hash/fingerprint key the solver caches: value-based over columns.
        assert renamed.fingerprint() == base.fingerprint()
        assert hash(renamed) == hash(base)
        assert perturbed.fingerprint() != base.fingerprint()
        # Equality still distinguishes names (it is the stricter relation).
        assert renamed != base
        assert base == Population.from_columns([0.5, 0.6], [1.0, 2.0])

    def test_subset_view_matches_object_subset(self):
        alphas, theta_hats, betas, revenues, utilities = self.columns()
        columnar = Population.from_columns(
            alphas, theta_hats, betas=betas, revenue_rates=revenues,
            utility_rates=utilities, names=("a", "b", "c"))
        view = columnar.subset([2, 0])
        rebuilt = Population([columnar[0], columnar[2]])
        assert view == rebuilt
        assert view.names == ("a", "c")
        np.testing.assert_array_equal(view.alphas, [0.5, 0.2])

    def test_sorted_by_revenue_view(self):
        alphas, theta_hats, betas, revenues, utilities = self.columns()
        population = Population.from_columns(
            alphas, theta_hats, betas=betas, revenue_rates=revenues,
            utility_rates=utilities)
        ordered = population.sorted_by_revenue()
        assert list(ordered.revenue_rates) == sorted(revenues, reverse=True)

    def test_with_utility_rates_shares_columns(self):
        population = Population.from_columns([0.5, 0.6], [1.0, 2.0])
        updated = population.with_utility_rates([3.0, 4.0])
        assert updated.alphas is population.alphas
        np.testing.assert_array_equal(updated.utility_rates, [3.0, 4.0])
        assert updated != population

    def test_exponential_parameters_straight_from_columns(self):
        population = Population.from_columns([0.5, 0.6], [1.0, 2.0],
                                             betas=[0.5, 3.0])
        parameters = population.exponential_parameters
        assert parameters is not None
        theta_hats, betas = parameters
        assert theta_hats is population.theta_hats
        assert betas is population.betas

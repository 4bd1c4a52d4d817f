"""Regression tests for the genuine lint violations fixed when
the lint gate was introduced.

Two kinds of pin:

* the hoisted tolerance constants (RL006 fixes) keep their original
  inline values — any drift would silently change solver behaviour and
  break the golden artifacts;
* the behavioural fixes (RL001 cache-key threading, RL005 tolerance
  comparisons) actually behave as intended at runtime.
"""

import pytest

from repro.config import SolverConfig
from repro.errors import ModelValidationError


class TestHoistedToleranceConstants:
    """RL006 fixes: every hoisted constant keeps its pre-fix value."""

    def test_equilibrium_constants(self):
        from repro.cache import all_cache_stats
        from repro.network import equilibrium as eq
        assert eq._UNCONGESTED_SLACK == 1e-15
        assert eq._RESIDUAL_TOLERANCE == 1e-13
        assert eq._CAP_WIDTH_TOLERANCE == 1e-14

    def test_allocation_constants(self):
        from repro.network import allocation
        assert allocation._DEMAND_RANGE_SLACK == 1e-12
        assert allocation._UNCONGESTED_SLACK == 1e-15

    def test_migration_constants(self):
        from repro.core import migration
        assert migration.DEFAULT_MIGRATION_TOLERANCE == 1e-4
        assert migration._DUOPOLY_SHARE_WIDTH == 1e-5
        assert migration._SURPLUS_SCALE_FLOOR == 1e-12
        assert migration._SHARE_SUM_TOLERANCE == 1e-9

    def test_cp_game_constants(self):
        from repro.core import cp_game
        assert cp_game._UTILITY_TOLERANCE == 1e-9
        assert cp_game._SATURATION_TOLERANCE == 1e-6
        assert cp_game._UTILITY_SCALE_FLOOR == 1e-12

    def test_oligopoly_constants(self):
        from repro.core import oligopoly
        assert oligopoly.OLIGOPOLY_MIGRATION_TOLERANCE == 1e-3
        assert oligopoly._SHARE_SUM_TOLERANCE == 1e-9
        assert oligopoly._SURPLUS_SCALE_FLOOR == 1e-12

    def test_provider_and_demand_constants(self):
        from repro.network import demand, provider
        assert provider._THETA_HAT_MATCH_TOLERANCE == 1e-9
        assert demand._ENDPOINT_TOLERANCE == 1e-12


class TestCacheKeyThreading:
    """RL001 fix: the class-cap cache keys include the solver config, so
    entries computed under different tolerances never alias."""

    def test_cache_key_distinguishes_tolerance_variants(self):
        base = SolverConfig()
        assert (SolverConfig(bisection_tolerance=1e-10).cache_key()
                != base.cache_key())
        assert (SolverConfig(migration_tolerance=5e-4).cache_key()
                != base.cache_key())

    def test_class_cap_cache_isolates_configs(self):
        from repro.cache import all_cache_stats
        from repro.network import equilibrium as eq
        from repro.network.provider import ContentProvider, Population

        population = Population([
            ContentProvider(name="a", alpha=0.6, theta_hat=1.0, beta=1.0),
            ContentProvider(name="b", alpha=0.4, theta_hat=2.0, beta=0.5),
        ])
        eq.clear_equilibrium_caches()
        eq.cached_class_cap(population, 0.2, config=SolverConfig())
        first = all_cache_stats()["class_caps"]["size"]
        assert first > 0
        # Same population and capacity, different tolerance config: must be
        # a fresh cap entry (a colliding key would alias the old one).
        eq.cached_class_cap(population, 0.2,
                            config=SolverConfig(bisection_tolerance=1e-10))
        second = all_cache_stats()["class_caps"]["size"]
        assert second > first


class TestToleranceComparisons:
    """RL005 fixes: exact float equality replaced with tolerance checks."""

    def test_piecewise_endpoint_within_tolerance_accepted(self):
        from repro.network.demand import PiecewiseLinearDemand
        demand = PiecewiseLinearDemand(
            1.0, [(0.0, 0.0), (1.0 - 5e-13, 1.0)])
        assert demand.theta_hat == 1.0

    def test_piecewise_endpoint_beyond_tolerance_rejected(self):
        from repro.network.demand import PiecewiseLinearDemand
        with pytest.raises(ModelValidationError, match="end at"):
            PiecewiseLinearDemand(1.0, [(0.0, 0.0), (1.0 - 1e-6, 1.0)])

    def test_provider_theta_hat_match_is_relative(self):
        from repro.network.demand import ExponentialSensitivityDemand
        from repro.network.provider import ContentProvider
        near = ExponentialSensitivityDemand(1.0 + 1e-12, beta=1.0)
        provider = ContentProvider(name="a", alpha=0.5, theta_hat=1.0,
                                   demand=near)
        assert provider.demand is near
        far = ExponentialSensitivityDemand(1.0 + 1e-3, beta=1.0)
        with pytest.raises(ModelValidationError, match="must match"):
            ContentProvider(name="a", alpha=0.5, theta_hat=1.0, demand=far)

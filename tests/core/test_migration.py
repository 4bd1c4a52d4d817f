"""Tests for the consumer-migration equilibrium (Assumption 5, Definition 4)."""

from __future__ import annotations

import pytest

from repro.errors import ModelValidationError
from repro.core.migration import (
    IspConfig,
    isp_outcome_at_share,
    solve_market_split,
)
from repro.core.strategy import ISPStrategy, PUBLIC_OPTION_STRATEGY
from repro.workloads.populations import paper_population


class TestIspConfig:
    def test_validation(self):
        with pytest.raises(ModelValidationError):
            IspConfig("", PUBLIC_OPTION_STRATEGY, 0.5)
        with pytest.raises(ModelValidationError):
            IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.0)
        with pytest.raises(ModelValidationError):
            IspConfig("a", PUBLIC_OPTION_STRATEGY, 1.5)


class TestOutcomeAtShare:
    def test_per_capita_capacity_scaling(self, medium_random_population):
        isp = IspConfig("po", PUBLIC_OPTION_STRATEGY, 0.5)
        half = isp_outcome_at_share(medium_random_population, 10.0, isp, 0.5)
        quarter = isp_outcome_at_share(medium_random_population, 10.0, isp, 0.25)
        assert half.nu == pytest.approx(10.0)
        assert quarter.nu == pytest.approx(20.0)
        # More per-capita capacity never hurts surplus (Theorem 2).
        assert quarter.consumer_surplus >= half.consumer_surplus - 1e-9

    def test_invalid_total_nu(self, medium_random_population):
        isp = IspConfig("po", PUBLIC_OPTION_STRATEGY, 0.5)
        with pytest.raises(ModelValidationError):
            isp_outcome_at_share(medium_random_population, -1.0, isp, 0.5)


class TestValidation:
    def test_requires_isps(self, medium_random_population):
        with pytest.raises(ModelValidationError):
            solve_market_split(medium_random_population, 10.0, [])

    def test_requires_unique_names(self, medium_random_population):
        isps = [IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.5),
                IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.5)]
        with pytest.raises(ModelValidationError):
            solve_market_split(medium_random_population, 10.0, isps)

    def test_capacity_shares_must_sum_to_one(self, medium_random_population):
        isps = [IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.5),
                IspConfig("b", PUBLIC_OPTION_STRATEGY, 0.4)]
        with pytest.raises(ModelValidationError):
            solve_market_split(medium_random_population, 10.0, isps)

    @pytest.mark.parametrize("tolerance", [True, float("nan"), float("inf"),
                                           0.0, -1.0])
    def test_explicit_tolerance_is_validated(self, medium_random_population,
                                             tolerance):
        # Same rule as SolverConfig.migration_tolerance: finite, positive,
        # not a bool.  An inf or True tolerance would stop the share
        # bisection at its first midpoint yet report convergence.
        isps = [IspConfig("a", ISPStrategy(1.0, 0.4), 0.5),
                IspConfig("b", PUBLIC_OPTION_STRATEGY, 0.5)]
        with pytest.raises(ModelValidationError, match="tolerance"):
            solve_market_split(medium_random_population, 10.0, isps,
                               tolerance=tolerance)


class TestSingleIsp:
    def test_single_isp_gets_everything(self, medium_random_population):
        split = solve_market_split(medium_random_population, 10.0,
                                   [IspConfig("only", PUBLIC_OPTION_STRATEGY, 1.0)])
        assert split.shares["only"] == pytest.approx(1.0)
        assert split.converged


class TestDuopolySplit:
    def test_symmetric_neutral_isps_split_evenly(self, medium_random_population):
        isps = [IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.5),
                IspConfig("b", PUBLIC_OPTION_STRATEGY, 0.5)]
        split = solve_market_split(medium_random_population, 10.0, isps)
        assert split.shares["a"] == pytest.approx(0.5, abs=0.01)
        assert split.shares["b"] == pytest.approx(0.5, abs=0.01)
        assert split.surpluses["a"] == pytest.approx(split.surpluses["b"], rel=0.02)
        assert sum(split.shares.values()) == pytest.approx(1.0)

    def test_asymmetric_capacity_proportional_split(self, medium_random_population):
        """Two identical neutral ISPs with 70/30 capacity split the market 70/30."""
        isps = [IspConfig("big", PUBLIC_OPTION_STRATEGY, 0.7),
                IspConfig("small", PUBLIC_OPTION_STRATEGY, 0.3)]
        split = solve_market_split(medium_random_population, 10.0, isps)
        assert split.shares["big"] == pytest.approx(0.7, abs=0.02)
        assert split.shares["small"] == pytest.approx(0.3, abs=0.02)

    def test_hopeless_isp_gets_no_consumers(self, medium_random_population):
        """An ISP whose premium price excludes every CP loses the whole market
        when capacity is scarce (its surplus is ~0 at any share)."""
        isps = [IspConfig("greedy", ISPStrategy(1.0, 100.0), 0.5),
                IspConfig("po", PUBLIC_OPTION_STRATEGY, 0.5)]
        split = solve_market_split(medium_random_population, 5.0, isps)
        assert split.shares["greedy"] == pytest.approx(0.0, abs=1e-6)
        assert split.shares["po"] == pytest.approx(1.0, abs=1e-6)

    def test_surpluses_equalised_at_interior_split(self, medium_random_population):
        isps = [IspConfig("strategic", ISPStrategy(1.0, 0.3), 0.5),
                IspConfig("po", PUBLIC_OPTION_STRATEGY, 0.5)]
        split = solve_market_split(medium_random_population, 10.0, isps)
        if 0.01 < split.shares["strategic"] < 0.99:
            scale = max(abs(split.common_surplus), 1e-9)
            assert split.residual <= 0.05 * scale
        assert split.consumer_surplus == pytest.approx(
            sum(split.shares[n] * split.surpluses[n] for n in split.shares))

    def test_isp_surplus_is_market_wide_per_capita(self, medium_random_population):
        isps = [IspConfig("strategic", ISPStrategy(1.0, 0.3), 0.5),
                IspConfig("po", PUBLIC_OPTION_STRATEGY, 0.5)]
        split = solve_market_split(medium_random_population, 10.0, isps)
        expected = split.shares["strategic"] * split.outcomes["strategic"].isp_surplus
        assert split.isp_surplus("strategic") == pytest.approx(expected)
        assert split.isp_surplus("po") == 0.0


class TestDuopolyConvergenceReport:
    """``converged`` holds only when the returned split meets a stopping rule.

    ISP-I at (kappa=0.5, c=0.1) against a Public Option at nu=40 stops on
    the surplus-tolerance rule at step 14.  After 13 steps the returned
    midpoint already meets that rule (residual 4.1e-5 of the common
    surplus); after 12 it does not (1.3e-4), and one step leaves a residual
    of 68%.
    """

    ISPS = (IspConfig("ISP-I", ISPStrategy(0.5, 0.1), 0.5),
            IspConfig("ISP-J", PUBLIC_OPTION_STRATEGY, 0.5))

    @pytest.fixture(scope="class")
    def population(self):
        return paper_population(count=200, seed=1)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_empty_step_budget_rejected(self, population, max_iterations):
        with pytest.raises(ModelValidationError, match="max_iterations"):
            solve_market_split(population, 40.0, self.ISPS,
                               max_iterations=max_iterations)

    @pytest.mark.parametrize("max_iterations, iterations, converged",
                             [(1, 1, False), (12, 12, False), (13, 13, True),
                              (14, 14, True), (40, 14, True)])
    def test_converged_only_when_a_stopping_rule_held(
            self, population, max_iterations, iterations, converged):
        split = solve_market_split(population, 40.0, self.ISPS,
                                   tolerance=1e-4,
                                   max_iterations=max_iterations)
        assert split.iterations == iterations
        assert split.converged is converged


class TestMultiIspSplit:
    def test_three_neutral_isps_proportional(self, small_random_population):
        isps = [IspConfig("a", PUBLIC_OPTION_STRATEGY, 0.5),
                IspConfig("b", PUBLIC_OPTION_STRATEGY, 0.3),
                IspConfig("c", PUBLIC_OPTION_STRATEGY, 0.2)]
        split = solve_market_split(small_random_population, 3.0, isps,
                                   max_iterations=200)
        assert sum(split.shares.values()) == pytest.approx(1.0)
        assert split.shares["a"] == pytest.approx(0.5, abs=0.03)
        assert split.shares["b"] == pytest.approx(0.3, abs=0.03)
        assert split.shares["c"] == pytest.approx(0.2, abs=0.03)

    def test_three_isp_mixed_strategies(self, small_random_population):
        isps = [IspConfig("a", ISPStrategy(1.0, 0.3), 0.4),
                IspConfig("b", PUBLIC_OPTION_STRATEGY, 0.3),
                IspConfig("c", ISPStrategy(0.5, 0.2), 0.3)]
        split = solve_market_split(small_random_population, 4.0, isps,
                                   max_iterations=200)
        assert sum(split.shares.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in split.shares.values())

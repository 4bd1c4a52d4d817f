"""Tests for the demand-function families (Assumption 1 of the paper)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ModelValidationError
from repro.network.demand import (
    ConstantElasticityDemand,
    ExponentialSensitivityDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    SigmoidDemand,
    StepDemand,
    UnitDemand,
    sample_demand_curve,
    validate_demand_function,
)
from repro.network.provider import ContentProvider, Population

ALL_FAMILIES = [
    ExponentialSensitivityDemand(theta_hat=2.0, beta=3.0),
    ExponentialSensitivityDemand(theta_hat=1.0, beta=0.0),
    LinearDemand(theta_hat=5.0, floor=0.2),
    StepDemand(theta_hat=1.0, threshold=0.5, width=0.1),
    UnitDemand(theta_hat=3.0),
    SigmoidDemand(theta_hat=1.0, midpoint=0.4, steepness=8.0),
    PiecewiseLinearDemand(theta_hat=2.0, points=[(0.0, 0.1), (0.5, 0.6), (1.0, 1.0)]),
    ConstantElasticityDemand(theta_hat=4.0, elasticity=2.0),
]


class TestAssumptionOne:
    """Every shipped family must satisfy Assumption 1."""

    @pytest.mark.parametrize("demand", ALL_FAMILIES,
                             ids=lambda d: type(d).__name__)
    def test_validate_passes(self, demand):
        validate_demand_function(demand)

    @pytest.mark.parametrize("demand", ALL_FAMILIES,
                             ids=lambda d: type(d).__name__)
    def test_endpoint_is_one(self, demand):
        assert demand(demand.theta_hat) == pytest.approx(1.0)

    @pytest.mark.parametrize("demand", ALL_FAMILIES,
                             ids=lambda d: type(d).__name__)
    def test_above_theta_hat_clamps_to_one(self, demand):
        assert demand(demand.theta_hat * 10.0) == 1.0

    @pytest.mark.parametrize("demand", ALL_FAMILIES,
                             ids=lambda d: type(d).__name__)
    def test_non_decreasing_on_grid(self, demand):
        previous = -1.0
        for k in range(101):
            value = demand(demand.theta_hat * k / 100)
            assert value >= previous - 1e-12
            previous = value

    @pytest.mark.parametrize("demand", ALL_FAMILIES,
                             ids=lambda d: type(d).__name__)
    def test_range_is_unit_interval(self, demand):
        for k in range(0, 101, 7):
            value = demand(demand.theta_hat * k / 100)
            assert 0.0 <= value <= 1.0


class TestExponentialSensitivity:
    def test_matches_equation_three(self):
        demand = ExponentialSensitivityDemand(theta_hat=10.0, beta=3.0)
        theta = 5.0
        expected = math.exp(-3.0 * (10.0 / 5.0 - 1.0))
        assert demand(theta) == pytest.approx(expected)

    def test_zero_beta_is_unit_demand(self):
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=0.0)
        assert demand(0.01) == pytest.approx(1.0)
        assert demand.demand_at_zero() == 1.0

    def test_zero_beta_is_unit_demand_at_subnormal_throughput(self):
        # theta_hat / theta overflows to inf; the vectorised kernel must not
        # turn exp(-0 * inf) into NaN.
        packed = ExponentialSensitivityDemand.pack_parameters(
            [ExponentialSensitivityDemand(1.0, 0.0),
             ExponentialSensitivityDemand(1.0, 2.0)])
        demands = ExponentialSensitivityDemand.batch_evaluate_packed(
            packed, np.array([[4.45e-311, 4.45e-311], [0.0, 0.0]]))
        assert demands.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_zero_throughput_limit(self):
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=2.0)
        assert demand(0.0) == 0.0

    def test_large_beta_drops_sharply(self):
        """Paper observation: beta=5 roughly halves demand at a 10% drop."""
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=5.0)
        assert 0.4 <= demand(0.9) <= 0.7

    def test_small_beta_is_flat(self):
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=0.1)
        assert demand(0.5) > 0.9

    def test_higher_beta_means_lower_demand(self):
        low = ExponentialSensitivityDemand(theta_hat=1.0, beta=0.5)
        high = ExponentialSensitivityDemand(theta_hat=1.0, beta=5.0)
        for omega in (0.2, 0.5, 0.8):
            assert high(omega) < low(omega)

    def test_negative_beta_rejected(self):
        with pytest.raises(ModelValidationError):
            ExponentialSensitivityDemand(theta_hat=1.0, beta=-1.0)

    def test_invalid_theta_hat_rejected(self):
        with pytest.raises(ModelValidationError):
            ExponentialSensitivityDemand(theta_hat=0.0, beta=1.0)
        with pytest.raises(ModelValidationError):
            ExponentialSensitivityDemand(theta_hat=float("nan"), beta=1.0)

    def test_nan_throughput_rejected(self):
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=1.0)
        with pytest.raises(ModelValidationError):
            demand(float("nan"))


class TestOtherFamilies:
    def test_linear_demand_interpolates(self):
        demand = LinearDemand(theta_hat=2.0, floor=0.5)
        assert demand(0.0) == pytest.approx(0.5)
        assert demand(1.0) == pytest.approx(0.75)
        assert demand(2.0) == pytest.approx(1.0)

    def test_linear_demand_invalid_floor(self):
        with pytest.raises(ModelValidationError):
            LinearDemand(theta_hat=1.0, floor=1.5)

    def test_unit_demand_everywhere_one(self):
        demand = UnitDemand(theta_hat=2.0)
        assert demand(0.0) == 1.0
        assert demand(1.0) == 1.0

    def test_step_demand_threshold(self):
        demand = StepDemand(theta_hat=1.0, threshold=0.5, width=0.1)
        assert demand(0.3) == pytest.approx(0.0)
        assert demand(0.55) == pytest.approx(1.0)
        # Middle of the smoothing band.
        assert 0.0 < demand(0.45) < 1.0

    def test_step_demand_invalid_parameters(self):
        with pytest.raises(ModelValidationError):
            StepDemand(theta_hat=1.0, threshold=0.0)
        with pytest.raises(ModelValidationError):
            StepDemand(theta_hat=1.0, threshold=0.5, width=0.9)

    def test_sigmoid_midpoint_and_steepness_validation(self):
        with pytest.raises(ModelValidationError):
            SigmoidDemand(theta_hat=1.0, midpoint=1.5)
        with pytest.raises(ModelValidationError):
            SigmoidDemand(theta_hat=1.0, steepness=0.0)

    def test_piecewise_linear_requires_valid_breakpoints(self):
        with pytest.raises(ModelValidationError):
            PiecewiseLinearDemand(theta_hat=1.0, points=[(0.0, 0.5)])
        with pytest.raises(ModelValidationError):
            PiecewiseLinearDemand(theta_hat=1.0, points=[(0.1, 0.0), (1.0, 1.0)])
        with pytest.raises(ModelValidationError):
            PiecewiseLinearDemand(theta_hat=1.0,
                                  points=[(0.0, 0.9), (0.5, 0.3), (1.0, 1.0)])

    def test_piecewise_linear_interpolation(self):
        demand = PiecewiseLinearDemand(
            theta_hat=1.0, points=[(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
        assert demand(0.25) == pytest.approx(0.4)
        assert demand(0.75) == pytest.approx(0.9)

    def test_constant_elasticity(self):
        demand = ConstantElasticityDemand(theta_hat=2.0, elasticity=2.0)
        assert demand(1.0) == pytest.approx(0.25)
        zero_elasticity = ConstantElasticityDemand(theta_hat=2.0, elasticity=0.0)
        assert zero_elasticity(0.1) == 1.0


#: Families whose scalar, array and population paths disagreed before every
#: path shared one formula, then every shipped family.
PATH_FAMILIES = [
    pytest.param(ExponentialSensitivityDemand(theta_hat=2.0, beta=0.0),
                 id="exponential-beta0"),
    pytest.param(ConstantElasticityDemand(theta_hat=2.0, elasticity=0.0),
                 id="elasticity0"),
    pytest.param(ConstantElasticityDemand(theta_hat=2.0, elasticity=2.0),
                 id="elasticity2"),
    pytest.param(StepDemand(theta_hat=2.0, threshold=1.0, width=0.1),
                 id="step-threshold1"),
    pytest.param(PiecewiseLinearDemand(
        theta_hat=2.0, points=[(0.0, 0.1), (0.3, 0.15), (1.0, 1.0)]),
        id="piecewise"),
    *(pytest.param(demand, id=f"{type(demand).__name__}-{index}")
      for index, demand in enumerate(ALL_FAMILIES)),
]


class TestOneFormula:
    """``d(theta)``, ``evaluate_array`` and ``Population.demands_at`` all
    evaluate the family's one formula, so they agree bit for bit."""

    @pytest.mark.parametrize("demand", PATH_FAMILIES)
    def test_every_path_gives_the_same_bits(self, demand):
        theta_hat = demand.theta_hat
        interior = theta_hat * np.linspace(0.0, 1.0, 66)[1:-1]
        thetas = np.concatenate([[-1.0, 0.0, 5e-324], interior,
                                 [theta_hat, 10.0 * theta_hat]])
        # Two CPs share the family so the population packs a group of two,
        # next to a default exponential CP.
        population = Population([
            ContentProvider(name=name, alpha=0.2, theta_hat=theta_hat,
                            demand=demand)
            for name in ("a", "b")
        ] + [ContentProvider(name="default", alpha=0.2, theta_hat=1.0)])
        profiles = np.column_stack([thetas, thetas, np.ones_like(thetas)])
        packed = population.demands_at(profiles)[:, 0]
        scalar = np.array([demand(float(theta)) for theta in thetas])
        assert scalar.tobytes() == demand.evaluate_array(thetas).tobytes()
        assert scalar.tobytes() == packed.tobytes()
        assert scalar[1] == demand.demand_at_zero()
        assert scalar[-2] == scalar[-1] == 1.0


class TestValidation:
    def test_validator_rejects_decreasing_function(self):
        class Decreasing(ExponentialSensitivityDemand):
            @staticmethod
            def formula(thetas, packed):
                theta_hats, _ = packed
                return 1.0 - 0.5 * thetas / theta_hats

        with pytest.raises(ModelValidationError):
            validate_demand_function(Decreasing(theta_hat=1.0, beta=1.0))

    def test_validator_rejects_discontinuous_function(self):
        class Jumpy(UnitDemand):
            @staticmethod
            def formula(thetas, packed):
                (theta_hats,) = packed
                return np.where(thetas < 0.5 * theta_hats, 0.0, 1.0)

        with pytest.raises(ModelValidationError):
            validate_demand_function(Jumpy(theta_hat=1.0))

    def test_validator_rejects_step_in_second_interval(self):
        # The second grid interval has a looser jump threshold (continuous
        # steep demands legitimately jump ~0.251 there) but a genuine step
        # discontinuity must still be caught.
        class EarlyJump(UnitDemand):
            @staticmethod
            def formula(thetas, packed):
                return np.where(thetas < 1.5 / 256, 0.4, 1.0)

        with pytest.raises(ModelValidationError, match="jumps"):
            validate_demand_function(EarlyJump(theta_hat=1.0))

    def test_validator_accepts_steep_continuous_exponential(self):
        # Regression: beta ~= 0.0059 makes the Equation-(3) demand rise by
        # ~0.2507 over the second grid interval — continuous, must pass.
        validate_demand_function(
            ExponentialSensitivityDemand(theta_hat=1.0, beta=0.005859375))

    def test_validator_needs_enough_samples(self):
        with pytest.raises(ModelValidationError):
            validate_demand_function(UnitDemand(1.0), samples=2)


class TestSampling:
    def test_sample_demand_curve_endpoints(self):
        demand = ExponentialSensitivityDemand(theta_hat=1.0, beta=2.0)
        samples = sample_demand_curve(demand, points=11)
        assert len(samples) == 11
        assert samples[0].omega == 0.0
        assert samples[-1].omega == 1.0
        assert samples[-1].demand == pytest.approx(1.0)

    def test_sample_demand_curve_requires_two_points(self):
        with pytest.raises(ModelValidationError):
            sample_demand_curve(UnitDemand(1.0), points=1)

"""Throughput-sensitive demand functions (Section II-A of the paper).

A demand function ``d_i(theta)`` gives the fraction of content provider
``i``'s user base that still demands content when the achievable per-user
throughput is ``theta``.  Assumption 1 of the paper requires every demand
function to be non-negative, continuous, non-decreasing on
``[0, theta_hat]`` and to satisfy ``d(theta_hat) = 1``.

The paper's numerical sections use the exponential-sensitivity family of
Equation (3),

    d_i(theta) = exp(-beta_i * (theta_hat_i / theta - 1)),

parameterised by the throughput sensitivity ``beta_i``.  This module
implements that family plus several other Assumption-1-compliant families
(linear, step/threshold, sigmoid, piecewise-linear, constant-elasticity)
that are useful for testing the axiomatic machinery and for modelling
application classes beyond the paper's three archetypes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ModelValidationError

__all__ = [
    "DemandFunction",
    "ExponentialSensitivityDemand",
    "LinearDemand",
    "StepDemand",
    "UnitDemand",
    "SigmoidDemand",
    "PiecewiseLinearDemand",
    "ConstantElasticityDemand",
    "validate_demand_function",
]

#: Fraction of ``theta_hat`` at which the generic zero-throughput demand
#: limit is probed numerically.
_ZERO_LIMIT_SCALE = 1e-12

#: Slack allowed on the piecewise-linear endpoint condition ``(1.0, 1.0)``.
_ENDPOINT_TOLERANCE = 1e-12


class DemandFunction(ABC):
    """Abstract base class for demand functions satisfying Assumption 1.

    Concrete subclasses must implement :meth:`evaluate` on the open interval
    ``(0, theta_hat]``; the base class handles clamping (``theta <= 0`` maps
    to the limiting demand at zero, ``theta >= theta_hat`` maps to ``1``) so
    that every instance is a total function on ``[0, +inf)``.
    """

    def __init__(self, theta_hat: float) -> None:
        if not math.isfinite(theta_hat) or theta_hat <= 0.0:
            raise ModelValidationError(
                f"theta_hat must be a positive finite number, got {theta_hat!r}"
            )
        self._theta_hat = float(theta_hat)

    @property
    def theta_hat(self) -> float:
        """Unconstrained per-user throughput (the domain's right endpoint)."""
        return self._theta_hat

    @abstractmethod
    def evaluate(self, theta: float) -> float:
        """Demand at a throughput ``theta`` in ``(0, theta_hat]``."""

    def demand_at_zero(self) -> float:
        """Limit of the demand as throughput approaches zero.

        The default takes a numerical limit; subclasses with a closed form
        (e.g. the exponential family, whose limit is ``0``) override this.
        """
        return self.evaluate(self._theta_hat * _ZERO_LIMIT_SCALE)

    def __call__(self, theta: float) -> float:
        if theta != theta:  # NaN guard
            raise ModelValidationError("throughput must not be NaN")
        if theta <= 0.0:
            return self.demand_at_zero()
        if theta >= self._theta_hat:
            return 1.0
        value = self.evaluate(theta)
        # Numerical noise protection: demand is a fraction of users.
        return min(1.0, max(0.0, value))

    # -- vectorised evaluation --------------------------------------------
    def evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised total evaluation: the array counterpart of ``__call__``.

        Applies the same clamping as the scalar path (``theta <= 0`` maps to
        the zero-throughput limit, ``theta >= theta_hat`` maps to ``1``) and
        delegates the interior to the family's closed form
        (:meth:`_evaluate_array`).  Accepts arrays of any shape.
        """
        thetas = np.asarray(thetas, dtype=float)
        if np.isnan(thetas).any():
            raise ModelValidationError("throughput must not be NaN")
        result = np.empty(thetas.shape, dtype=float)
        low = thetas <= 0.0
        high = thetas >= self._theta_hat
        result[low] = self.demand_at_zero()
        result[high] = 1.0
        interior = ~(low | high)
        if np.any(interior):
            values = np.asarray(self._evaluate_array(thetas[interior]), dtype=float)
            result[interior] = np.clip(values, 0.0, 1.0)
        return result

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        """Closed-form demand on a 1-D array of interior throughputs.

        The fallback evaluates the scalar form pointwise; every shipped
        family overrides this with a true vectorised expression.
        """
        return np.array([self.evaluate(float(theta)) for theta in thetas])

    # -- batched multi-function evaluation ---------------------------------
    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        """Precompute whatever :meth:`batch_evaluate_packed` needs.

        Populations cache the packed form per demand family so that repeated
        demand evaluations (the equilibrium solvers' hot loop) do not re-read
        per-instance attributes.  The generic pack is just the instances.
        """
        return tuple(functions)

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        """Demands of ``k`` same-family functions at ``(..., k)`` throughputs.

        ``thetas[..., j]`` is evaluated by the ``j``-th packed function; the
        result has the same shape.  The generic implementation loops over
        functions (vectorising only across the leading axes); families with
        closed forms override it with a fully array-level kernel.
        """
        functions = packed  # type: ignore[assignment]
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty(thetas.shape, dtype=float)
        for j, function in enumerate(functions):  # type: ignore[arg-type]
            out[..., j] = function.evaluate_array(thetas[..., j])
        return out

    def throughput_fraction(self, omega: float) -> float:
        """Demand expressed against ``omega = theta / theta_hat`` (Figure 2)."""
        return self(omega * self._theta_hat)

    def offered_load(self, theta: float) -> float:
        """Per-user offered load ``d(theta) * theta`` (the paper's ``rho`` before
        the popularity weight ``alpha_i`` is applied)."""
        return self(theta) * min(theta, self._theta_hat)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(theta_hat={self._theta_hat!r})"


class ExponentialSensitivityDemand(DemandFunction):
    """The paper's Equation (3): ``d(theta) = exp(-beta (theta_hat/theta - 1))``.

    ``beta`` is the throughput sensitivity: large values model real-time
    applications (Skype, Netflix) whose users abandon the service quickly as
    soon as throughput degrades; small values model elastic applications
    (web search) whose users tolerate heavy congestion.
    """

    def __init__(self, theta_hat: float, beta: float) -> None:
        super().__init__(theta_hat)
        if not math.isfinite(beta) or beta < 0.0:
            raise ModelValidationError(
                f"beta must be a non-negative finite number, got {beta!r}"
            )
        self.beta = float(beta)

    def evaluate(self, theta: float) -> float:
        congestion = self._theta_hat / theta - 1.0
        return math.exp(-self.beta * congestion)

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        return np.exp(-self.beta * (self._theta_hat / thetas - 1.0))

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        betas = np.array([f.beta for f in functions], dtype=float)  # type: ignore[attr-defined]
        return theta_hats, betas

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        theta_hats, betas = packed  # type: ignore[misc]
        thetas = np.asarray(thetas, dtype=float)
        clipped = np.minimum(thetas, theta_hats)
        positive = clipped > 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            congestion = np.where(
                positive, theta_hats / np.where(positive, clipped, 1.0) - 1.0, np.inf)
            demands = np.exp(-betas * congestion)
        # theta <= 0: demand limit is 0 for beta > 0.  Demand is exactly 1
        # for beta == 0 at every theta: setting it explicitly also covers a
        # subnormal theta, whose ratio overflows to inf and would give
        # exp(-0 * inf) = NaN.
        demands = np.where(positive, demands, 0.0)
        demands = np.where((clipped >= theta_hats) | (betas == 0.0), 1.0,
                           demands)
        return np.clip(demands, 0.0, 1.0)

    def demand_at_zero(self) -> float:
        return 1.0 if self.beta == 0.0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExponentialSensitivityDemand(theta_hat={self._theta_hat!r}, "
            f"beta={self.beta!r})"
        )


class LinearDemand(DemandFunction):
    """Demand that rises linearly from ``floor`` at zero throughput to 1."""

    def __init__(self, theta_hat: float, floor: float = 0.0) -> None:
        super().__init__(theta_hat)
        if not 0.0 <= floor <= 1.0:
            raise ModelValidationError(f"floor must lie in [0, 1], got {floor!r}")
        self.floor = float(floor)

    def evaluate(self, theta: float) -> float:
        return self.floor + (1.0 - self.floor) * (theta / self._theta_hat)

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        return self.floor + (1.0 - self.floor) * (thetas / self._theta_hat)

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        floors = np.array([f.floor for f in functions], dtype=float)  # type: ignore[attr-defined]
        return theta_hats, floors

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        theta_hats, floors = packed  # type: ignore[misc]
        clipped = np.clip(np.asarray(thetas, dtype=float), 0.0, theta_hats)
        return floors + (1.0 - floors) * (clipped / theta_hats)

    def demand_at_zero(self) -> float:
        return self.floor


class UnitDemand(DemandFunction):
    """Perfectly inelastic demand: every user stays regardless of throughput.

    Useful as the ``beta = 0`` limit of the exponential family and for tests
    where the rate equilibrium should reduce to a pure capacity split.
    """

    def evaluate(self, theta: float) -> float:
        return 1.0

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        return np.ones_like(thetas)

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        return len(functions)

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(thetas, dtype=float))

    def demand_at_zero(self) -> float:
        return 1.0


class StepDemand(DemandFunction):
    """Threshold demand: users stay only above ``threshold * theta_hat``.

    Strictly speaking a step is discontinuous, so to remain inside
    Assumption 1 the drop is smoothed over a configurable relative width
    (default 1% of ``theta_hat``).  With ``width -> 0`` this approaches the
    behaviour of hard-real-time applications.
    """

    def __init__(self, theta_hat: float, threshold: float, width: float = 0.01,
                 floor: float = 0.0) -> None:
        super().__init__(theta_hat)
        if not 0.0 < threshold <= 1.0:
            raise ModelValidationError(
                f"threshold must lie in (0, 1], got {threshold!r}"
            )
        if width <= 0.0 or width > threshold:
            raise ModelValidationError(
                f"width must lie in (0, threshold], got {width!r}"
            )
        if not 0.0 <= floor < 1.0:
            raise ModelValidationError(f"floor must lie in [0, 1), got {floor!r}")
        self.threshold = float(threshold)
        self.width = float(width)
        self.floor = float(floor)

    def evaluate(self, theta: float) -> float:
        omega = theta / self._theta_hat
        lower = self.threshold - self.width
        if omega >= self.threshold:
            return 1.0
        if omega <= lower:
            return self.floor
        # Linear ramp across the smoothing band keeps the function continuous.
        ramp = (omega - lower) / self.width
        return self.floor + (1.0 - self.floor) * ramp

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        omegas = thetas / self._theta_hat
        lower = self.threshold - self.width
        ramp = np.clip((omegas - lower) / self.width, 0.0, 1.0)
        return self.floor + (1.0 - self.floor) * ramp

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        thresholds = np.array([f.threshold for f in functions], dtype=float)  # type: ignore[attr-defined]
        widths = np.array([f.width for f in functions], dtype=float)  # type: ignore[attr-defined]
        floors = np.array([f.floor for f in functions], dtype=float)  # type: ignore[attr-defined]
        return theta_hats, thresholds, widths, floors

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        theta_hats, thresholds, widths, floors = packed  # type: ignore[misc]
        omegas = np.clip(np.asarray(thetas, dtype=float), 0.0, theta_hats) / theta_hats
        ramp = np.clip((omegas - (thresholds - widths)) / widths, 0.0, 1.0)
        return floors + (1.0 - floors) * ramp

    def demand_at_zero(self) -> float:
        return self.floor


class SigmoidDemand(DemandFunction):
    """Smooth S-shaped demand centred at ``midpoint * theta_hat``.

    ``d(theta) = s(omega) / s(1)`` where ``s`` is a logistic curve, so the
    Assumption-1 endpoint condition ``d(theta_hat) = 1`` holds exactly.
    """

    def __init__(self, theta_hat: float, midpoint: float = 0.5,
                 steepness: float = 10.0) -> None:
        super().__init__(theta_hat)
        if not 0.0 < midpoint < 1.0:
            raise ModelValidationError(
                f"midpoint must lie in (0, 1), got {midpoint!r}"
            )
        if steepness <= 0.0:
            raise ModelValidationError(
                f"steepness must be positive, got {steepness!r}"
            )
        self.midpoint = float(midpoint)
        self.steepness = float(steepness)
        self._norm = self._logistic(1.0)

    def _logistic(self, omega: float) -> float:
        return 1.0 / (1.0 + math.exp(-self.steepness * (omega - self.midpoint)))

    def evaluate(self, theta: float) -> float:
        return self._logistic(theta / self._theta_hat) / self._norm

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        omegas = thetas / self._theta_hat
        logistic = 1.0 / (1.0 + np.exp(-self.steepness * (omegas - self.midpoint)))
        return logistic / self._norm

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        midpoints = np.array([f.midpoint for f in functions], dtype=float)  # type: ignore[attr-defined]
        steepness = np.array([f.steepness for f in functions], dtype=float)  # type: ignore[attr-defined]
        norms = np.array([f._norm for f in functions], dtype=float)  # type: ignore[attr-defined]
        return theta_hats, midpoints, steepness, norms

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        theta_hats, midpoints, steepness, norms = packed  # type: ignore[misc]
        omegas = np.clip(np.asarray(thetas, dtype=float), 0.0, theta_hats) / theta_hats
        logistic = 1.0 / (1.0 + np.exp(-steepness * (omegas - midpoints)))
        return np.clip(logistic / norms, 0.0, 1.0)

    def demand_at_zero(self) -> float:
        return self._logistic(0.0) / self._norm


class PiecewiseLinearDemand(DemandFunction):
    """Demand interpolated linearly through user-supplied breakpoints.

    ``points`` is a sequence of ``(omega, demand)`` pairs with ``omega`` the
    fraction of unconstrained throughput.  The pairs must be sorted, start at
    ``omega = 0``, end at ``(1.0, 1.0)`` and be non-decreasing in demand so
    the result satisfies Assumption 1.
    """

    def __init__(self, theta_hat: float,
                 points: Sequence[tuple[float, float]]) -> None:
        super().__init__(theta_hat)
        pts = [(float(w), float(d)) for w, d in points]
        if len(pts) < 2:
            raise ModelValidationError("need at least two breakpoints")
        if (pts[0][0] != 0.0
                or abs(pts[-1][0] - 1.0) > _ENDPOINT_TOLERANCE
                or abs(pts[-1][1] - 1.0) > _ENDPOINT_TOLERANCE):
            raise ModelValidationError(
                "breakpoints must start at omega=0 and end at (1.0, 1.0)"
            )
        for (w0, d0), (w1, d1) in zip(pts, pts[1:]):
            if w1 <= w0:
                raise ModelValidationError("omega breakpoints must be increasing")
            if d1 < d0:
                raise ModelValidationError("demand breakpoints must be non-decreasing")
            if not 0.0 <= d0 <= 1.0 or not 0.0 <= d1 <= 1.0:
                raise ModelValidationError("demand values must lie in [0, 1]")
        self.points = pts
        self._omegas = [w for w, _ in pts]
        self._demands = [d for _, d in pts]
        self._omega_array = np.array(self._omegas, dtype=float)
        self._demand_array = np.array(self._demands, dtype=float)

    def evaluate(self, theta: float) -> float:
        omega = theta / self._theta_hat
        # Binary search for the segment containing omega (the breakpoints are
        # strictly increasing), instead of a linear scan.
        index = bisect_left(self._omegas, omega)
        if index >= len(self._omegas):
            return 1.0
        if index == 0:
            return self._demands[0]
        if self._omegas[index] == omega:
            return self._demands[index]
        w0, d0 = self.points[index - 1]
        w1, d1 = self.points[index]
        frac = (omega - w0) / (w1 - w0)
        return d0 + (d1 - d0) * frac

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        omegas = thetas / self._theta_hat
        return np.interp(omegas, self._omega_array, self._demand_array)

    def demand_at_zero(self) -> float:
        return self.points[0][1]


class ConstantElasticityDemand(DemandFunction):
    """Demand with constant elasticity in the throughput fraction.

    ``d(theta) = (theta / theta_hat) ** elasticity`` with ``elasticity >= 0``.
    ``elasticity = 0`` reduces to :class:`UnitDemand`.
    """

    def __init__(self, theta_hat: float, elasticity: float = 1.0) -> None:
        super().__init__(theta_hat)
        if not math.isfinite(elasticity) or elasticity < 0.0:
            raise ModelValidationError(
                f"elasticity must be non-negative, got {elasticity!r}"
            )
        self.elasticity = float(elasticity)

    def evaluate(self, theta: float) -> float:
        if self.elasticity == 0.0:
            return 1.0
        return (theta / self._theta_hat) ** self.elasticity

    def _evaluate_array(self, thetas: np.ndarray) -> np.ndarray:
        if self.elasticity == 0.0:
            return np.ones_like(thetas)
        return (thetas / self._theta_hat) ** self.elasticity

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> object:
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        elasticities = np.array([f.elasticity for f in functions], dtype=float)  # type: ignore[attr-defined]
        return theta_hats, elasticities

    @classmethod
    def batch_evaluate_packed(cls, packed: object, thetas: np.ndarray) -> np.ndarray:
        theta_hats, elasticities = packed  # type: ignore[misc]
        omegas = np.clip(np.asarray(thetas, dtype=float), 0.0, theta_hats) / theta_hats
        # 0 ** 0 == 1 in numpy, which matches the elasticity == 0 limit.
        return omegas ** elasticities

    def demand_at_zero(self) -> float:
        return 1.0 if self.elasticity == 0.0 else 0.0


def validate_demand_function(demand: DemandFunction, *, samples: int = 257,
                             tolerance: float = 1e-9) -> None:
    """Check Assumption 1 on a demand function by dense sampling.

    Raises :class:`~repro.errors.ModelValidationError` if the function is
    negative, exceeds 1, decreases anywhere on the sampled grid, or fails the
    endpoint condition ``d(theta_hat) = 1``.  Continuity cannot be checked
    exactly by sampling; a large jump between adjacent samples (more than
    25% of the full range) is treated as a likely discontinuity and rejected.
    """
    if samples < 3:
        raise ModelValidationError("samples must be at least 3")
    theta_hat = demand.theta_hat
    grid = [theta_hat * k / (samples - 1) for k in range(samples)]
    previous = None
    for index, theta in enumerate(grid):
        value = demand(theta)
        if value < -tolerance or value > 1.0 + tolerance:
            raise ModelValidationError(
                f"demand {value} at theta={theta} escapes [0, 1]"
            )
        if previous is not None:
            if value < previous - tolerance:
                raise ModelValidationError(
                    f"demand decreases from {previous} to {value} near theta={theta}"
                )
            # Jump heuristic for interior points only: near theta = 0 even
            # continuous demands (e.g. the exponential family with a tiny
            # beta) rise arbitrarily steeply towards their limit, and the
            # steep region can span two grid intervals: the first interval
            # is exempt, and the second is held to a looser threshold
            # because the exponential family's second-interval jump has
            # supremum ~0.251 over beta at the default grid (the third
            # interval's is ~0.15, comfortably under 0.25).
            threshold = 0.30 if index == 2 else 0.25
            if index > 1 and value - previous > threshold:
                raise ModelValidationError(
                    f"demand jumps by {value - previous:.3f} near theta={theta}; "
                    "likely discontinuous (violates Assumption 1)"
                )
        previous = value
    if abs(demand(theta_hat) - 1.0) > tolerance:
        raise ModelValidationError(
            f"demand at theta_hat is {demand(theta_hat)}, expected 1.0"
        )


def demand_family(theta_hat: float, betas: Iterable[float]
                  ) -> list[ExponentialSensitivityDemand]:
    """Convenience constructor for a family of Equation-(3) demand curves."""
    return [ExponentialSensitivityDemand(theta_hat, beta) for beta in betas]


@dataclass(frozen=True)
class DemandSample:
    """One sampled point of a demand curve (used by Figure 2 reproduction)."""

    omega: float
    demand: float


def sample_demand_curve(demand: DemandFunction, *, points: int = 101
                        ) -> list[DemandSample]:
    """Sample ``d`` against the throughput fraction ``omega`` on ``[0, 1]``."""
    if points < 2:
        raise ModelValidationError("points must be at least 2")
    return [
        DemandSample(omega=k / (points - 1),
                     demand=demand.throughput_fraction(k / (points - 1)))
        for k in range(points)
    ]

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

A family supplies its parameter names and one array formula over
throughputs already clipped to ``[0, theta_hat]``.  Everything else lives
in :class:`DemandFunction` and is derived from that formula: the scalar
call, :meth:`~DemandFunction.evaluate_array`, the zero-throughput limit and
the packed evaluation of many same-family functions that
:meth:`repro.network.provider.Population.demands_at` runs.  Every path
therefore gives the same bits for the same throughput.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence

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

#: Slack allowed on the piecewise-linear endpoint condition ``(1.0, 1.0)``.
_ENDPOINT_TOLERANCE = 1e-12

#: Packed parameters of ``k`` same-family functions: ``theta_hats`` of shape
#: ``(k,)`` first, then one entry per name in the family's ``parameters``.
Packed = tuple[Any, ...]


class DemandFunction(ABC):
    """Abstract base class for demand functions satisfying Assumption 1.

    A family supplies two things: :attr:`parameters`, the names of the
    instance attributes its formula reads, and :meth:`formula`, the demand
    on throughputs already clipped to ``[0, theta_hat]``.  The base class
    owns the rest: the NaN guard, the clamping (``theta <= 0`` is evaluated
    at ``0``, ``theta >= theta_hat`` gives ``1``, results are clipped to
    ``[0, 1]``) and the parameter packing, so every instance is a total
    function on the real line and all evaluation paths share one formula.
    """

    #: Instance attributes the formula reads, packed after ``theta_hat``.
    parameters: ClassVar[tuple[str, ...]] = ()

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

    @staticmethod
    @abstractmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        """Demands of ``k`` packed functions at ``(..., k)`` throughputs.

        ``thetas[..., j]`` lies in ``[0, theta_hats[j]]`` and belongs to the
        ``j``-th function of ``packed`` (see :meth:`pack_parameters`).  At
        ``theta = 0`` the formula must give the zero-throughput limit.
        """

    @classmethod
    def pack_parameters(cls, functions: Sequence["DemandFunction"]) -> Packed:
        """``(theta_hats, *parameters)`` of same-family functions as arrays.

        Populations cache the packed form per demand family so that the
        equilibrium solvers' hot loop does not re-read instance attributes.
        """
        return tuple(np.array([getattr(f, name) for f in functions], dtype=float)
                     for name in ("theta_hat", *cls.parameters))

    @classmethod
    def batch_evaluate_packed(cls, packed: Packed, thetas: np.ndarray) -> np.ndarray:
        """Demands of ``k`` same-family functions at ``(..., k)`` throughputs.

        ``thetas[..., j]`` is evaluated by the ``j``-th packed function; the
        result has the same shape.  This is the one place the clamping lives.
        """
        theta_hats = packed[0]
        # Two ufuncs clip in a third of ``np.clip``'s time on this hot path.
        # ``+ 0.0`` turns a ``-0.0`` throughput into ``+0.0``, so a formula
        # that divides by theta sees ``+inf``.
        clipped = np.minimum(np.maximum(thetas, 0.0), theta_hats) + 0.0
        demands = np.where(clipped >= theta_hats, 1.0, cls.formula(clipped, packed))
        return np.minimum(np.maximum(demands, 0.0), 1.0)

    def evaluate_array(self, thetas: np.typing.ArrayLike) -> np.ndarray:
        """Demands at an array of throughputs of any shape."""
        values = np.asarray(thetas, dtype=float)
        if np.isnan(values).any():
            raise ModelValidationError("throughput must not be NaN")
        packed = self.pack_parameters([self])
        return self.batch_evaluate_packed(packed, values[..., np.newaxis])[..., 0]

    def __call__(self, theta: float) -> float:
        return float(self.evaluate_array(theta))

    def demand_at_zero(self) -> float:
        """Limit of the demand as throughput approaches zero."""
        return self(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(theta_hat={self._theta_hat!r})"


class ExponentialSensitivityDemand(DemandFunction):
    """The paper's Equation (3): ``d(theta) = exp(-beta (theta_hat/theta - 1))``.

    ``beta`` is the throughput sensitivity: large values model real-time
    applications (Skype, Netflix) whose users abandon the service quickly as
    soon as throughput degrades; small values model elastic applications
    (web search) whose users tolerate heavy congestion.
    """

    parameters = ("beta",)

    def __init__(self, theta_hat: float, beta: float) -> None:
        super().__init__(theta_hat)
        if not math.isfinite(beta) or beta < 0.0:
            raise ModelValidationError(
                f"beta must be a non-negative finite number, got {beta!r}"
            )
        self.beta = float(beta)

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, betas = packed
        # At theta = 0 (or a subnormal theta) the ratio overflows to inf and
        # the demand is its limit 0.  Demand is exactly 1 for beta == 0 at
        # every theta, where exp(-0 * inf) would be NaN.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            demands = np.exp(-betas * (theta_hats / thetas - 1.0))
        return np.where(betas == 0.0, 1.0, demands)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExponentialSensitivityDemand(theta_hat={self._theta_hat!r}, "
            f"beta={self.beta!r})"
        )


class LinearDemand(DemandFunction):
    """Demand that rises linearly from ``floor`` at zero throughput to 1."""

    parameters = ("floor",)

    def __init__(self, theta_hat: float, floor: float = 0.0) -> None:
        super().__init__(theta_hat)
        if not 0.0 <= floor <= 1.0:
            raise ModelValidationError(f"floor must lie in [0, 1], got {floor!r}")
        self.floor = float(floor)

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, floors = packed
        return floors + (1.0 - floors) * (thetas / theta_hats)


class UnitDemand(DemandFunction):
    """Perfectly inelastic demand: every user stays regardless of throughput.

    Useful as the ``beta = 0`` limit of the exponential family and for tests
    where the rate equilibrium should reduce to a pure capacity split.
    """

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        return np.ones_like(thetas)


class StepDemand(DemandFunction):
    """Threshold demand: users stay only above ``threshold * theta_hat``.

    Strictly speaking a step is discontinuous, so to remain inside
    Assumption 1 the drop is smoothed over a configurable relative width
    (default 1% of ``theta_hat``).  With ``width -> 0`` this approaches the
    behaviour of hard-real-time applications.
    """

    parameters = ("threshold", "width", "floor")

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

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, thresholds, widths, floors = packed
        # Linear ramp across the smoothing band keeps the function continuous.
        ramp = np.clip((thetas / theta_hats - (thresholds - widths)) / widths,
                       0.0, 1.0)
        return floors + (1.0 - floors) * ramp


class SigmoidDemand(DemandFunction):
    """Smooth S-shaped demand centred at ``midpoint * theta_hat``.

    ``d(theta) = s(omega) / s(1)`` where ``s`` is a logistic curve, so the
    Assumption-1 endpoint condition ``d(theta_hat) = 1`` holds exactly.
    """

    parameters = ("midpoint", "steepness")

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

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, midpoints, steepness = packed

        def logistic(omegas: Any) -> Any:
            return 1.0 / (1.0 + np.exp(-steepness * (omegas - midpoints)))

        return logistic(thetas / theta_hats) / logistic(1.0)


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

    @classmethod
    def pack_parameters(cls, functions: Sequence[DemandFunction]) -> Packed:
        # Breakpoint lists differ in length, so each function keeps its own
        # ``(omegas, demands)`` pair of arrays.
        theta_hats = np.array([f.theta_hat for f in functions], dtype=float)
        return theta_hats, tuple(np.array(f.points).T  # type: ignore[attr-defined]
                                 for f in functions)

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, breakpoints = packed
        demands = np.empty(thetas.shape, dtype=float)
        for j, (omegas, values) in enumerate(breakpoints):
            demands[..., j] = np.interp(thetas[..., j] / theta_hats[j],
                                        omegas, values)
        return demands


class ConstantElasticityDemand(DemandFunction):
    """Demand with constant elasticity in the throughput fraction.

    ``d(theta) = (theta / theta_hat) ** elasticity`` with ``elasticity >= 0``.
    ``elasticity = 0`` reduces to :class:`UnitDemand`.
    """

    parameters = ("elasticity",)

    def __init__(self, theta_hat: float, elasticity: float = 1.0) -> None:
        super().__init__(theta_hat)
        if not math.isfinite(elasticity) or elasticity < 0.0:
            raise ModelValidationError(
                f"elasticity must be non-negative, got {elasticity!r}"
            )
        self.elasticity = float(elasticity)

    @staticmethod
    def formula(thetas: np.ndarray, packed: Packed) -> np.ndarray:
        theta_hats, elasticities = packed
        omegas = thetas / theta_hats
        # A full-shape exponent keeps numpy on its general pow: a broadcast
        # exponent of 2 or 0.5 takes a square/sqrt shortcut whose last bit
        # can differ, so one function would disagree with its population.
        # 0 ** 0 == 1 in numpy, which matches the elasticity == 0 limit.
        return omegas ** np.broadcast_to(elasticities, omegas.shape).copy()


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
    omegas = np.arange(points) / (points - 1)
    demands = demand.evaluate_array(omegas * demand.theta_hat)
    return [DemandSample(omega=omega, demand=value)
            for omega, value in zip(omegas.tolist(), demands.tolist())]

"""The reference (pure numpy) kernel backend.

This is the numpy tail pass the profile has always used; default-config
results are bit-identical to it.  The tail pass runs through ``out=``
kernels into one buffer and sums with ``np.add.reduce`` (the pairwise
summation ``ndarray.sum`` dispatches to).  The fused carried-load and
surplus pass reuses that buffer, so its carried load is bit-identical to
the scalar one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["ReferenceBackend", "reference_backend"]


def _tail_terms(profile: ExponentialMaxMinProfile, cap: float,
                count: int) -> np.ndarray:
    """Per-consumer rates ``alpha_i d_i(cap) cap`` of the congested tail.

    The tail is every provider from sorted position ``count`` on (those with
    ``theta_hat > cap``).  Same arithmetic as the expression form —
    ``theta/cap - 1`` then ``alpha * exp(-beta * congestion) * cap`` —
    evaluated through ``out=`` kernels into the one buffer the division
    allocates.
    """
    if cap < profile._tiny_cap:
        return _tiny_cap_tail_terms(profile, cap, count)
    buffer = np.divide(profile._theta_hats[count:], cap)
    np.subtract(buffer, 1.0, out=buffer)
    np.multiply(profile._neg_betas[count:], buffer, out=buffer)
    np.exp(buffer, out=buffer)
    np.multiply(profile._alphas[count:], buffer, out=buffer)
    np.multiply(buffer, cap, out=buffer)
    return buffer


def _tiny_cap_tail_terms(profile: ExponentialMaxMinProfile, cap: float,
                         count: int) -> np.ndarray:
    """:func:`_tail_terms` at a cap so small that ``theta / cap`` may
    overflow: ``exp(-beta * inf)`` is 0 for ``beta > 0``, and ``beta = 0``
    terms are set to their exact value (demand 1) instead of ``NaN``."""
    neg_betas = profile._neg_betas[count:]
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = neg_betas * (profile._theta_hats[count:] / cap - 1.0)
    exponents[neg_betas == 0.0] = 0.0
    return profile._alphas[count:] * np.exp(exponents) * cap


class ReferenceBackend:
    """Vectorised numpy kernels; the numerical baseline of the repo."""

    name = "reference"

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        """Carried load at one cap: prefix lookup plus the exponential tail.

        The congestion tail (``theta > cap``) cannot overflow ``exp``
        (exponents are non-positive; underflow is ignored by default), and
        only caps below the profile's ``_tiny_cap`` can overflow the ratio
        ``theta / cap``; those take a separate guarded pass.  The tail
        buffer is allocated per call, so concurrent calls on one profile
        never share memory.
        """
        if cap <= 0.0:
            return 0.0
        count = profile._theta_hats.searchsorted(cap, side="right")
        saturated = profile._prefix[count]
        if count == profile.size:
            return float(saturated)
        return float(saturated + np.add.reduce(_tail_terms(profile, cap,
                                                           count)))

    def carried_and_surplus(self, profile: ExponentialMaxMinProfile,
                            cap: float, phis: np.ndarray,
                            phi_prefix: np.ndarray) -> tuple[float, float]:
        """Carried load and consumer surplus at one cap, from one tail pass.

        The carried load is computed exactly as :meth:`carried_scalar`
        computes it (bit for bit); the surplus adds the saturated
        providers' ``phi``-weighted prefix to ``dot(phi_tail, tail)``.
        """
        if cap <= 0.0:
            return 0.0, 0.0
        count = profile._theta_hats.searchsorted(cap, side="right")
        saturated = profile._prefix[count]
        if count == profile.size:
            return float(saturated), float(phi_prefix[count])
        tail = _tail_terms(profile, cap, count)
        return (float(saturated + np.add.reduce(tail)),
                float(phi_prefix[count] + np.dot(phis[count:], tail)))


_REFERENCE = ReferenceBackend()


def reference_backend() -> ReferenceBackend:
    """The process-wide reference backend singleton."""
    return _REFERENCE

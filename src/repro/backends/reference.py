"""The reference (pure numpy) kernel backend.

This is the numpy tail pass the profile has always used; default-config
results are bit-identical to it.  The tail pass runs through ``out=``
kernels into one buffer and sums with ``np.add.reduce`` (the pairwise
summation ``ndarray.sum`` dispatches to).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["ReferenceBackend", "reference_backend"]


class ReferenceBackend:
    """Vectorised numpy kernels; the numerical baseline of the repo."""

    name = "reference"

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        """Carried load at one cap: prefix lookup plus the exponential tail.

        The congestion tail (``theta > cap``) cannot overflow ``exp``
        (exponents are non-positive; underflow is ignored by default), and
        the ratio ``theta / cap`` is taken against the profile's ratio floor
        so a subnormal cap cannot overflow it either; no ``errstate`` guard
        is needed.  The tail buffer is allocated per call, so concurrent
        calls on one profile never share memory.
        """
        if cap <= 0.0:
            return 0.0
        theta_hats = profile._theta_hats
        count = theta_hats.searchsorted(cap, side="right")
        saturated = profile._prefix[count]
        if count == profile.size:
            return float(saturated)
        # Same arithmetic as the expression form — ``theta/cap - 1`` then
        # ``alpha * exp(-beta * congestion) * cap`` — evaluated through
        # ``out=`` kernels into the one buffer the division allocates.
        buffer = np.divide(theta_hats[count:], max(cap, profile._ratio_floor))
        np.subtract(buffer, 1.0, out=buffer)
        np.multiply(profile._neg_betas[count:], buffer, out=buffer)
        np.exp(buffer, out=buffer)
        np.multiply(profile._alphas[count:], buffer, out=buffer)
        np.multiply(buffer, cap, out=buffer)
        return float(saturated + np.add.reduce(buffer))


_REFERENCE = ReferenceBackend()


def reference_backend() -> ReferenceBackend:
    """The process-wide reference backend singleton."""
    return _REFERENCE

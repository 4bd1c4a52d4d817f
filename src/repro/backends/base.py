"""The kernel-backend protocol of the solver stack.

A :class:`KernelBackend` supplies the numerical primitives behind the
Theorem-1 cap solver on the sorted-``theta_hat`` prefix structure of
:class:`repro.network.equilibrium.ExponentialMaxMinProfile`:

* the **carried-load tail pass** (:meth:`KernelBackend.carried_scalar`) —
  the work-conservation LHS at one throughput cap, a prefix lookup for the
  saturated providers plus the exponential-demand tail of Equation (3).
  The profile's root-finder (a bracketed Illinois secant) and its grid loop
  call it; they are the same for every backend;
* the **fused aggregate pass** (:meth:`KernelBackend.carried_and_surplus`)
  — the same tail pass returning the carried load *and* the consumer
  surplus ``Phi = sum_i phi_i alpha_i d_i theta_i`` at one cap, so a grid's
  aggregate series need no per-provider matrices.  It takes the sorted
  utility rates ``phis`` and their ``phi * alpha * theta_hat`` prefix
  ``phi_prefix`` as arguments.  Its carried load must equal
  :meth:`~KernelBackend.carried_scalar` bit for bit (both share one tail
  computation).

Backends receive the profile object itself and read its sorted column
arrays (``_theta_hats``, ``_alphas``, ``_betas``, ``_neg_betas``,
``_prefix``) and its ``_tiny_cap``; the profile is never written after
construction, so a backend must not write to it either — one profile may
be evaluated from several threads at once.

The ``reference`` backend is the numpy implementation; the optional
``numba`` backend JIT-compiles the same arithmetic (agreeing to well below
``1e-10``) and degrades gracefully to reference when numba is not
installed.  Select a backend with :class:`repro.backends.SolverConfig` or
the ``REPRO_BACKEND`` environment variable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["KernelBackend"]


@runtime_checkable
class KernelBackend(Protocol):
    """Numerical kernel for the max-min + exponential-demand profile.

    Implementations must be pure functions of the profile's arrays and the
    cap argument, finite for every cap: two backends may differ in
    summation order (and hence in the last float bits) but must agree to
    ``<= 1e-10`` relative — the property-test suite in ``tests/backends``
    asserts this.
    """

    #: Stable backend identifier used in cache keys and solver provenance.
    name: str

    def carried_scalar(self, profile: "ExponentialMaxMinProfile",
                       cap: float) -> float:
        """Per-capita carried load at a single throughput cap."""
        ...

    def carried_and_surplus(self, profile: "ExponentialMaxMinProfile",
                            cap: float, phis: np.ndarray,
                            phi_prefix: np.ndarray) -> tuple[float, float]:
        """``(carried load, consumer surplus)`` at one cap, in one pass."""
        ...

"""Optional numba (njit) kernel backend.

The kernel below is a plain-Python loop implementation of the carried-load
tail pass; when numba is importable it is compiled with ``numba.njit`` on
first use (lazy — importing this module never imports numba), and when it
is not, :func:`load_numba_backend` returns ``None`` so the registry falls
back to the reference backend.

Numerics: the loop accumulates the tail sum serially (left to right over
the sorted columns) instead of numpy's pairwise tree, so results differ
from the reference backend only in summation order — well inside the
``1e-10`` equivalence bound the backend contract requires (and the
property-test suite asserts).  The cap solver that drives it is the
profile's own, shared with the reference backend.

The undecorated Python function remains directly callable; the equivalence
tests run it interpreted, so the kernel arithmetic is validated even on
machines (like the no-numba CI lane) where the JIT path cannot execute.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.equilibrium import ExponentialMaxMinProfile

__all__ = ["NumbaBackend", "load_numba_backend", "numba_available",
           "numba_version"]


# --------------------------------------------------------------------------- #
# Kernel (plain Python; njit-compiled when numba is present)
# --------------------------------------------------------------------------- #
# The saturated count is an inlined ``side="right"`` binary search on the
# sorted ``theta_hats``.  A ``beta = 0`` term is ``alpha * cap`` exactly (the
# exponential is ``exp(-0.0) = 1``); computing it directly also covers a
# tiny cap whose ``theta / cap`` overflows, where ``-0 * inf`` would be NaN.
# One kernel serves both the scalar carried load and the fused carried-load
# + surplus pass: an empty ``phis`` column skips the ``phi``-weighted sum,
# so the two share one tail loop and agree on the carried load bit for bit.

def _kernel_carried_sums(theta_hats: np.ndarray, alphas: np.ndarray,
                         betas: np.ndarray, prefix: np.ndarray,
                         phis: np.ndarray, phi_prefix: np.ndarray,
                         cap: float) -> "tuple[float, float]":
    if cap <= 0.0:
        return 0.0, 0.0
    n = theta_hats.shape[0]
    low = 0
    high = n
    while low < high:
        mid = (low + high) // 2
        if theta_hats[mid] <= cap:
            low = mid + 1
        else:
            high = mid
    weighted = phis.shape[0] > 0
    total = prefix[low]
    surplus = phi_prefix[low] if weighted else 0.0
    for i in range(low, n):
        if betas[i] == 0.0:
            term = alphas[i] * cap
        else:
            term = (alphas[i]
                    * math.exp(-betas[i] * (theta_hats[i] / cap - 1.0)) * cap)
        total += term
        if weighted:
            surplus += phis[i] * term
    return total, surplus


# --------------------------------------------------------------------------- #
# Lazy import / compilation
# --------------------------------------------------------------------------- #
_NUMBA_MODULE: Any = None
_NUMBA_CHECKED = False
_COMPILED: Any = None


def _numba_module() -> Any:
    """The ``numba`` module, imported lazily; ``None`` when unavailable."""
    global _NUMBA_MODULE, _NUMBA_CHECKED
    if not _NUMBA_CHECKED:
        _NUMBA_CHECKED = True
        try:
            import numba  # type: ignore[import-not-found]
        except Exception:  # pragma: no cover - depends on the environment
            _NUMBA_MODULE = None
        else:
            _NUMBA_MODULE = numba
    return _NUMBA_MODULE


def numba_available() -> bool:
    """True when numba can be imported in this interpreter."""
    return _numba_module() is not None


def numba_version() -> Optional[str]:
    """The installed numba version string, or ``None``."""
    module = _numba_module()
    return getattr(module, "__version__", None) if module is not None else None


def _compiled_kernel() -> Any:
    """The njit-compiled tail-pass kernel (compiled once per process)."""
    global _COMPILED
    if _COMPILED is None:
        module = _numba_module()
        if module is None:
            return None
        njit = module.njit(cache=False, fastmath=False, nogil=True)
        _COMPILED = njit(_kernel_carried_sums)
    return _COMPILED


#: The ``phis``/``phi_prefix`` arguments of a carried-load-only pass.
_NO_WEIGHTS = np.zeros(0)


class NumbaBackend:
    """njit-compiled tail pass for the sorted-prefix max-min profile."""

    name = "numba"

    def __init__(self, kernel: Any) -> None:
        self._carried_sums = kernel

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        return float(self._carried_sums(
            profile._theta_hats, profile._alphas, profile._betas,
            profile._prefix, _NO_WEIGHTS, _NO_WEIGHTS, float(cap))[0])

    def carried_and_surplus(self, profile: ExponentialMaxMinProfile,
                            cap: float, phis: np.ndarray,
                            phi_prefix: np.ndarray) -> tuple[float, float]:
        carried, surplus = self._carried_sums(
            profile._theta_hats, profile._alphas, profile._betas,
            profile._prefix, phis, phi_prefix, float(cap))
        return float(carried), float(surplus)


def load_numba_backend() -> Optional[NumbaBackend]:
    """A :class:`NumbaBackend`, or ``None`` when numba is not installed."""
    kernel = _compiled_kernel()
    if kernel is None:
        return None
    return NumbaBackend(kernel)

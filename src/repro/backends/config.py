"""The unified solver configuration threaded through every layer.

:class:`SolverConfig` is a frozen value object bundling the kernel backend
choice, every solver tolerance that used to be hard-coded per layer, and
the cache policy.  Games, the batch/sweep layer and the runner all accept
``config=``; :func:`use_config` installs an ambient config so experiment
functions (whose signatures never mention it) inherit the runner's choice.

Tolerance defaults match the pre-refactor constants exactly, and the
per-game migration defaults (duopoly ``1e-4``, oligopoly ``1e-3``) are kept
by leaving ``migration_tolerance=None`` — a config only overrides a game's
documented default when one is set explicitly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.backends.base import KernelBackend
from repro.backends.numba_backend import numba_version
from repro.backends.registry import BACKEND_NAMES, get_backend
from repro.errors import ModelValidationError

__all__ = ["SolverConfig", "active_config", "default_config",
           "resolve_config", "use_config"]

#: Environment variable consulted by :func:`default_config`.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_CACHE_POLICIES = ("shared", "bypass")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable solver settings shared by every layer of the stack.

    Parameters
    ----------
    backend:
        Kernel backend name (``"reference"`` or ``"numba"``).  ``"numba"``
        degrades to reference when numba is not installed — see
        :meth:`effective_backend`.
    migration_tolerance:
        Relative surplus-balance tolerance of the ISP market-split
        bisection, or ``None`` to keep each game's documented default
        (:data:`repro.core.duopoly.DUOPOLY_MIGRATION_TOLERANCE` = 1e-4,
        :data:`repro.core.oligopoly.OLIGOPOLY_MIGRATION_TOLERANCE` = 1e-3).
    switching_tolerance:
        Minimum per-CP utility gain that counts as a profitable partition
        switch in :class:`repro.core.cp_game.CPPartitionGame` (1e-6).
    surplus_tolerance:
        Utility-comparison slack when ranking partition preferences and
        verifying Nash/competitive equilibria (1e-9, the former
        ``_UTILITY_TOLERANCE``).
    bisection_tolerance:
        Relative work-conservation residual at which the Theorem-1 cap
        solver stops (1e-13, the former ``_RESIDUAL_TOLERANCE``).  The
        solver is no longer a plain bisection, but the field keeps its name:
        it is part of every artifact's solver provenance, and renaming it
        would change those keys.
    cache_policy:
        ``"shared"`` uses the registered process-wide caches (entries keyed
        by :meth:`cache_key` so backends never alias); ``"bypass"``
        computes everything directly without reading or writing them.
    """

    backend: str = "reference"
    migration_tolerance: Optional[float] = None
    switching_tolerance: float = 1e-6
    surplus_tolerance: float = 1e-9
    bisection_tolerance: float = 1e-13
    cache_policy: str = "shared"

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ModelValidationError(
                f"unknown solver backend {self.backend!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        if self.migration_tolerance is not None and not (
                self.migration_tolerance > 0.0):
            raise ModelValidationError(
                "migration_tolerance must be positive or None "
                f"(got {self.migration_tolerance!r})")
        if not self.switching_tolerance >= 0.0:
            raise ModelValidationError(
                "switching_tolerance must be non-negative "
                f"(got {self.switching_tolerance!r})")
        if not self.surplus_tolerance >= 0.0:
            raise ModelValidationError(
                "surplus_tolerance must be non-negative "
                f"(got {self.surplus_tolerance!r})")
        if not self.bisection_tolerance > 0.0:
            raise ModelValidationError(
                "bisection_tolerance must be positive "
                f"(got {self.bisection_tolerance!r})")
        if self.cache_policy not in _CACHE_POLICIES:
            raise ModelValidationError(
                f"unknown cache_policy {self.cache_policy!r}; "
                f"expected one of {_CACHE_POLICIES}")

    # -- backend resolution ------------------------------------------------ #

    def backend_instance(self) -> KernelBackend:
        """The live :class:`KernelBackend` this config resolves to."""
        return get_backend(self.backend)

    def effective_backend(self) -> str:
        """The backend actually used (numba falls back to reference)."""
        return self.backend_instance().name

    # -- identity ---------------------------------------------------------- #

    def cache_key(self) -> Tuple[object, ...]:
        """Hashable contribution to every registered cache's keys.

        Keyed on the *effective* backend so a numba config that fell back
        to reference shares (correctly identical) entries with reference
        configs instead of duplicating them.  Memoised per instance — the
        cached solver layers build one of these per lookup.
        """
        key = getattr(self, "_cache_key_memo", None)
        if key is None:
            key = ("solver", self.effective_backend(),
                   self.migration_tolerance, self.switching_tolerance,
                   self.surplus_tolerance, self.bisection_tolerance,
                   self.cache_policy)
            object.__setattr__(self, "_cache_key_memo", key)
        return key

    def provenance(self) -> Dict[str, object]:
        """Solver provenance recorded in artifacts and the run manifest.

        ``numba_version`` is included only when the effective backend is
        numba, so default (reference) runs serialize byte-identically on
        machines with and without numba installed.
        """
        effective = self.effective_backend()
        record: Dict[str, object] = {
            "backend": effective,
            "backend_requested": self.backend,
            "cache_policy": self.cache_policy,
            "tolerances": {
                "migration": self.migration_tolerance,
                "switching": self.switching_tolerance,
                "surplus": self.surplus_tolerance,
                "bisection": self.bisection_tolerance,
            },
        }
        if effective == "numba":
            record["numba_version"] = numba_version()
        return record

    def with_backend(self, backend: str) -> "SolverConfig":
        """A copy of this config with a different backend."""
        return replace(self, backend=backend)


_DEFAULT_CONFIGS: Dict[str, SolverConfig] = {}


def default_config() -> SolverConfig:
    """The process default: reference settings, backend from REPRO_BACKEND.

    Re-reads the environment variable on every call (so tests can
    monkeypatch it) but interns the resulting config per backend name —
    the solver hot loops resolve the default once per cached lookup.
    """
    backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or "reference"
    config = _DEFAULT_CONFIGS.get(backend)
    if config is None:
        config = SolverConfig(backend=backend)
        _DEFAULT_CONFIGS[backend] = config
    return config


# -- ambient config ------------------------------------------------------- #
# The runner executes registry experiment functions whose signatures don't
# take a config; ``use_config`` installs one for the duration of a run so
# every game/solver constructed inside inherits it via ``resolve_config``.

_ACTIVE: List[SolverConfig] = []


def active_config() -> Optional[SolverConfig]:
    """The innermost :func:`use_config` config, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def resolve_config(config: Optional[SolverConfig]) -> SolverConfig:
    """An explicit config, else the ambient one, else the process default."""
    if config is not None:
        return config
    ambient = active_config()
    if ambient is not None:
        return ambient
    return default_config()


@contextmanager
def use_config(config: SolverConfig) -> Iterator[SolverConfig]:
    """Install ``config`` as the ambient solver config for a ``with`` block."""
    _ACTIVE.append(config)
    try:
        yield config
    finally:
        _ACTIVE.pop()

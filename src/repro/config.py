"""The unified solver configuration threaded through every layer.

:class:`SolverConfig` is a frozen value object bundling every solver
tolerance that used to be hard-coded per layer and the cache policy.
Games, the batch/sweep layer and the runner all accept ``config=``;
:func:`use_config` installs an ambient config so experiment functions
(whose signatures never mention it) inherit the runner's choice.

Tolerance defaults match the pre-refactor constants exactly, and the
per-game migration defaults (duopoly ``1e-4``, oligopoly ``1e-3``) are kept
by leaving ``migration_tolerance=None`` — a config only overrides a game's
documented default when one is set explicitly.  The games take no tolerance
keyword of their own, so every tolerance they use has passed the config's
validation.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ModelValidationError

__all__ = ["SolverConfig", "active_config", "default_config",
           "resolve_config", "use_config"]

_CACHE_POLICIES = ("shared", "bypass")


def _check_tolerance(name: str, value: object, *, positive: bool) -> None:
    """Reject a tolerance that is not a real, finite, non-bool number.

    ``bool`` is an ``int`` subclass, so ``True`` would otherwise pass as
    ``1.0``; ``inf`` and ``nan`` would pass or fail the sign check by
    accident.
    """
    number = (float(value) if isinstance(value, numbers.Real)
              and not isinstance(value, bool) else math.nan)
    if not (math.isfinite(number)
            and (number > 0.0 if positive else number >= 0.0)):
        bound = "positive" if positive else "non-negative"
        raise ModelValidationError(
            f"{name} must be a finite {bound} number (got {value!r})")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable solver settings shared by every layer of the stack.

    Parameters
    ----------
    migration_tolerance:
        Relative surplus-balance tolerance of the ISP market split, or
        ``None`` to keep each game's documented default
        (:data:`repro.core.duopoly.DUOPOLY_MIGRATION_TOLERANCE` = 1e-4,
        :data:`repro.core.oligopoly.OLIGOPOLY_MIGRATION_TOLERANCE` = 1e-3).
        :class:`~repro.core.duopoly.DuopolyGame` and
        :class:`~repro.core.oligopoly.OligopolyGame` take their tolerance
        only from here.
    switching_tolerance:
        Minimum relative utility gain that counts as a profitable class
        switch in :class:`repro.core.cp_game.CPPartitionGame` (1e-6), the
        floor of every CP's move slack; the game takes it only from here.
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
        by :meth:`cache_key` so tolerance variants never alias);
        ``"bypass"`` computes everything directly without reading or
        writing them.

    Every tolerance must be a finite real number (not a ``bool``).
    """

    migration_tolerance: Optional[float] = None
    switching_tolerance: float = 1e-6
    surplus_tolerance: float = 1e-9
    bisection_tolerance: float = 1e-13
    cache_policy: str = "shared"

    def __post_init__(self) -> None:
        if self.migration_tolerance is not None:
            _check_tolerance("migration_tolerance", self.migration_tolerance,
                             positive=True)
        _check_tolerance("switching_tolerance", self.switching_tolerance,
                         positive=False)
        _check_tolerance("surplus_tolerance", self.surplus_tolerance,
                         positive=False)
        _check_tolerance("bisection_tolerance", self.bisection_tolerance,
                         positive=True)
        if self.cache_policy not in _CACHE_POLICIES:
            raise ModelValidationError(
                f"unknown cache_policy {self.cache_policy!r}; "
                f"expected one of {_CACHE_POLICIES}")

    def cache_key(self) -> Tuple[object, ...]:
        """Hashable contribution to every registered cache's keys.

        Memoised per instance — the cached solver layers build one of these
        per lookup.
        """
        key = getattr(self, "_cache_key_memo", None)
        if key is None:
            key = ("solver", self.migration_tolerance,
                   self.switching_tolerance, self.surplus_tolerance,
                   self.bisection_tolerance, self.cache_policy)
            object.__setattr__(self, "_cache_key_memo", key)
        return key

    def provenance(self) -> Dict[str, object]:
        """Solver provenance recorded in artifacts and the run manifest."""
        return {
            "cache_policy": self.cache_policy,
            "tolerances": {
                "migration": self.migration_tolerance,
                "switching": self.switching_tolerance,
                "surplus": self.surplus_tolerance,
                "bisection": self.bisection_tolerance,
            },
        }


_DEFAULT_CONFIG = SolverConfig()


def default_config() -> SolverConfig:
    """The process default: the documented tolerances, shared caches."""
    return _DEFAULT_CONFIG


# -- ambient config ------------------------------------------------------- #
# The runner executes registry experiment functions whose signatures don't
# take a config; ``use_config`` installs one for the duration of a run so
# every game/solver constructed inside inherits it via ``resolve_config``.
# A context variable keeps the ambient config private to the thread (or
# asyncio task) that installed it.

_ACTIVE: ContextVar[Optional[SolverConfig]] = ContextVar(
    "repro_active_config", default=None)


def active_config() -> Optional[SolverConfig]:
    """The innermost :func:`use_config` config of this context, or ``None``."""
    return _ACTIVE.get()


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
    """Install ``config`` as the ambient solver config for a ``with`` block.

    The config is ambient only in the calling thread or asyncio task: other
    threads never see it, and a thread started inside the block does not
    inherit it (pass ``config=`` explicitly there).
    """
    token = _ACTIVE.set(config)
    try:
        yield config
    finally:
        _ACTIVE.reset(token)

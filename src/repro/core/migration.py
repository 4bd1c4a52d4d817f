"""Consumer migration across ISPs (Assumption 5, Definition 4).

When several ISPs serve the same region, consumers subscribe to the ISP
offering the higher per-capita consumer surplus; they keep moving until the
per-capita surplus is equalised across all ISPs with a positive market
share.  Because an ISP's per-capita capacity is ``nu_I = gamma_I * nu / m_I``
(capacity share over market share) and per-capita surplus is non-decreasing
in capacity (Theorem 2), each ISP's surplus is a (weakly) decreasing
function of its own market share — which makes the migration equilibrium a
one-dimensional root-finding problem for two ISPs and a monotone
fixed-point problem in general.

This module provides:

* :class:`IspConfig` — an ISP's name, strategy and capacity share;
* :class:`MarketSplit` — the migration equilibrium (market shares, per-ISP
  second-stage outcomes, the common surplus level and the residual);
* :func:`solve_market_split` — the solver (exact bisection for two ISPs,
  a tatonnement for three or more).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from repro.config import SolverConfig, _check_tolerance, resolve_config
from repro.errors import ModelValidationError
from repro.core.cp_game import CPPartitionGame, PartitionOutcome
from repro.core.strategy import ISPStrategy
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = ["IspConfig", "MarketSplit", "solve_market_split",
           "isp_outcome_at_share", "DEFAULT_MIGRATION_TOLERANCE"]

#: Smallest market share considered; avoids the singular ``nu_I = inf`` and
#: models the paper's observation that an ISP is never literally empty.
#: The duopoly bisection opens with the probes ``_MIN_SHARE`` and
#: ``1 - _MIN_SHARE``.
_MIN_SHARE = 1e-4

#: Default relative tolerance on the surplus equalisation (overridable per
#: call or via ``SolverConfig.migration_tolerance``).
DEFAULT_MIGRATION_TOLERANCE = 1e-4

#: Share-bracket width at which the duopoly bisection stops even when the
#: surplus gap has not hit tolerance (the gap has O(1/N) discontinuities).
_DUOPOLY_SHARE_WIDTH = 1e-5

#: Floor of the relative-surplus scale, guarding the all-zero-surplus case.
_SURPLUS_SCALE_FLOOR = 1e-12

#: Slack allowed when checking that capacity shares sum to one.
_SHARE_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class IspConfig:
    """An ISP participating in the migration game.

    Attributes
    ----------
    name:
        Unique identifier.
    strategy:
        The ISP's first-stage strategy ``(kappa, c)``.
    capacity_share:
        ``gamma_I = mu_I / mu`` — the ISP's share of the total capacity.
    """

    name: str
    strategy: ISPStrategy
    capacity_share: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelValidationError("ISP needs a non-empty name")
        if not 0.0 < self.capacity_share <= 1.0:
            raise ModelValidationError(
                f"capacity_share must lie in (0, 1], got {self.capacity_share!r}"
            )


@dataclass(frozen=True)
class MarketSplit:
    """Migration equilibrium of the second-stage multi-ISP game.

    ``shares`` are the market shares ``m_I`` (summing to 1), ``surpluses``
    the per-capita consumer surplus achieved at each ISP, and ``outcomes``
    the per-ISP second-stage partition outcomes.  ``residual`` is the
    largest deviation of any positive-share ISP's surplus from the common
    level; exactly zero residual is generally unattainable because the
    surplus functions have the small discontinuities quantified by
    Equation (9).
    """

    shares: Dict[str, float]
    surpluses: Dict[str, float]
    outcomes: Dict[str, PartitionOutcome]
    common_surplus: float
    residual: float
    converged: bool
    iterations: int = 0

    @property
    def consumer_surplus(self) -> float:
        """System-wide per-capita consumer surplus ``sum_I m_I Phi_I``."""
        return sum(self.shares[name] * self.surpluses[name] for name in self.shares)

    def isp_surplus(self, name: str) -> float:
        """Per-capita (over the whole market) ISP revenue ``c lambda_P / M``.

        The partition outcome's ``isp_surplus`` is per *subscriber* of that
        ISP; multiplying by the market share converts to the paper's
        market-wide per-capita quantity plotted in Figures 7/8.
        """
        return self.shares[name] * self.outcomes[name].isp_surplus

    def share(self, name: str) -> float:
        return self.shares[name]


def isp_outcome_at_share(population: Population, total_nu: float, isp: IspConfig,
                         share: float,
                         mechanism: Optional[CommonCapAllocation] = None,
                         config: Optional[SolverConfig] = None
                         ) -> PartitionOutcome:
    """Second-stage outcome at ISP ``isp`` when it holds market share ``share``.

    The ISP's per-capita capacity is ``nu_I = gamma_I * total_nu / m_I``
    (the share floored at ``_MIN_SHARE``); the CPs then play the
    class-selection game at that ISP, whose competitive equilibrium is
    memoised, so repeated probes of one share are lookups.
    """
    if total_nu < 0.0 or not math.isfinite(total_nu):
        raise ModelValidationError(f"total_nu must be non-negative, got {total_nu!r}")
    effective_share = max(float(share), _MIN_SHARE)
    nu_isp = isp.capacity_share * total_nu / effective_share
    game = CPPartitionGame(population, nu_isp, isp.strategy, mechanism,
                           config=config)
    return game.competitive_equilibrium()


def _surplus_at_share(population: Population, total_nu: float, isp: IspConfig,
                      share: float,
                      mechanism: Optional[CommonCapAllocation],
                      config: Optional[SolverConfig] = None) -> float:
    """Consumer surplus at an ISP holding ``share`` of the consumers.

    Relies on the game layer's shared memoisation: the
    partition outcome at a given ``(population, nu_I, strategy, mechanism)``
    is cached across *all* migration solves (this generalises the per-solve
    dict cache the solver used to carry), so e.g. the Public Option ISP's
    surplus curve is computed once for an entire price sweep.
    """
    outcome = isp_outcome_at_share(population, total_nu, isp, share,
                                   mechanism, config=config)
    return outcome.consumer_surplus


def _build_split(population: Population, total_nu: float,
                 isps: Sequence[IspConfig], shares: Dict[str, float],
                 mechanism: Optional[CommonCapAllocation],
                 converged: bool, iterations: int,
                 config: Optional[SolverConfig] = None) -> MarketSplit:
    outcomes = {
        isp.name: isp_outcome_at_share(population, total_nu, isp,
                                       shares[isp.name], mechanism,
                                       config=config)
        for isp in isps
    }
    surpluses = {name: outcome.consumer_surplus for name, outcome in outcomes.items()}
    # The common level is the share-weighted mean over ISPs that actually
    # hold consumers; ISPs driven to (numerically) zero share are excluded
    # from the residual because consumers cannot be forced to stay there.
    active = [isp.name for isp in isps if shares[isp.name] > 2.0 * _MIN_SHARE]
    if not active:
        active = [isp.name for isp in isps]
    total_active = sum(shares[name] for name in active)
    common = (sum(shares[name] * surpluses[name] for name in active) / total_active
              if total_active > 0 else 0.0)
    residual = max(abs(surpluses[name] - common) for name in active)
    return MarketSplit(shares=dict(shares), surpluses=surpluses, outcomes=outcomes,
                       common_surplus=common, residual=residual,
                       converged=converged, iterations=iterations)


def _solve_duopoly(population: Population, total_nu: float,
                   first: IspConfig, second: IspConfig,
                   mechanism: Optional[CommonCapAllocation],
                   tolerance: float, max_iterations: int,
                   config: Optional[SolverConfig] = None) -> MarketSplit:
    """Bisection on the first ISP's market share for the two-ISP case."""
    surplus_scale = 1.0

    def gap(share_first: float) -> float:
        nonlocal surplus_scale
        phi_first = _surplus_at_share(population, total_nu, first, share_first,
                                      mechanism, config)
        phi_second = _surplus_at_share(population, total_nu, second,
                                       1.0 - share_first, mechanism, config)
        surplus_scale = max(surplus_scale, abs(phi_first), abs(phi_second))
        return phi_first - phi_second

    low, high = _MIN_SHARE, 1.0 - _MIN_SHARE
    gap_low, gap_high = gap(low), gap(high)
    if gap_low <= 0.0:
        # Even with a vanishing share, the first ISP cannot match the second:
        # all consumers go to the second ISP.
        shares = {first.name: 0.0, second.name: 1.0}
        return _build_split(population, total_nu, (first, second), shares,
                            mechanism, True, 1, config)
    if gap_high >= 0.0:
        shares = {first.name: 1.0, second.name: 0.0}
        return _build_split(population, total_nu, (first, second), shares,
                            mechanism, True, 1, config)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        mid = 0.5 * (low + high)
        value = gap(mid)
        if abs(value) <= tolerance * surplus_scale:
            low = high = mid
            converged = True
            break
        if value > 0.0:
            low = mid
        else:
            high = mid
        if high - low <= _DUOPOLY_SHARE_WIDTH:
            converged = True
            break
    share_first = 0.5 * (low + high)
    shares = {first.name: share_first, second.name: 1.0 - share_first}
    split = _build_split(population, total_nu, (first, second), shares,
                         mechanism, converged, iterations, config)
    # The returned midpoint was never probed; it meets the surplus rule too
    # when its own gap, read off the surpluses just built, is in tolerance.
    phi_first = split.surpluses[first.name]
    phi_second = split.surpluses[second.name]
    surplus_scale = max(surplus_scale, abs(phi_first), abs(phi_second))
    if not converged and abs(phi_first - phi_second) <= tolerance * surplus_scale:
        split = replace(split, converged=True)
    return split


def _solve_multi(population: Population, total_nu: float,
                 isps: Sequence[IspConfig],
                 mechanism: Optional[CommonCapAllocation],
                 tolerance: float, max_iterations: int,
                 config: Optional[SolverConfig] = None) -> MarketSplit:
    """Tatonnement on market shares for three or more ISPs.

    ISPs whose per-capita surplus is above the market average attract
    consumers; shares are renormalised each round.  The step size shrinks
    when the update overshoots, which makes the iteration robust to the
    small discontinuities of the surplus functions.
    """
    shares = {isp.name: isp.capacity_share for isp in isps}
    total = sum(shares.values())
    shares = {name: value / total for name, value in shares.items()}
    step = 0.5
    previous_residual = math.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        surpluses = {
            isp.name: _surplus_at_share(population, total_nu, isp,
                                        shares[isp.name], mechanism, config)
            for isp in isps
        }
        mean = sum(shares[name] * surpluses[name] for name in shares)
        scale = max(mean, max(surpluses.values()), _SURPLUS_SCALE_FLOOR)
        residual = max(abs(surpluses[isp.name] - mean) for isp in isps
                       if shares[isp.name] > 2.0 * _MIN_SHARE) \
            if any(shares[isp.name] > 2.0 * _MIN_SHARE for isp in isps) else 0.0
        if residual <= tolerance * scale:
            return _build_split(population, total_nu, isps, shares, mechanism,
                                True, iterations, config)
        if residual > previous_residual:
            step = max(step * 0.5, 0.05)
        previous_residual = residual
        updated = {}
        for isp in isps:
            relative = (surpluses[isp.name] - mean) / scale
            updated[isp.name] = max(_MIN_SHARE,
                                    shares[isp.name] * (1.0 + step * relative))
        total = sum(updated.values())
        shares = {name: value / total for name, value in updated.items()}
    return _build_split(population, total_nu, isps, shares, mechanism,
                        False, iterations, config)


def solve_market_split(population: Population, total_nu: float,
                       isps: Sequence[IspConfig],
                       mechanism: Optional[CommonCapAllocation] = None,
                       *, tolerance: Optional[float] = None,
                       max_iterations: int = 60,
                       config: Optional[SolverConfig] = None) -> MarketSplit:
    """Find the consumer-migration equilibrium among the given ISPs.

    Parameters
    ----------
    population:
        Content providers (shared across all ISPs).
    total_nu:
        Per-capita capacity of the whole system (``mu / M``).
    isps:
        Participating ISPs; their capacity shares must sum to 1.
    tolerance:
        Relative tolerance on the surplus equalisation, a finite positive
        number (:class:`ModelValidationError` otherwise).  An explicit value
        wins over ``config.migration_tolerance``; when both are ``None`` the
        default is :data:`DEFAULT_MIGRATION_TOLERANCE`.
    max_iterations:
        Step budget of the share bisection (two ISPs) or the tatonnement
        (three or more), at least 1.  ``converged`` is ``False`` when the
        budget ran out and the returned shares meet no stopping rule.
    config:
        Solver configuration threaded into every per-ISP partition game.
    """
    config = resolve_config(config)
    if tolerance is not None:
        _check_tolerance("tolerance", tolerance, positive=True)
    else:
        tolerance = (config.migration_tolerance
                     if config.migration_tolerance is not None
                     else DEFAULT_MIGRATION_TOLERANCE)
    if max_iterations < 1:
        raise ModelValidationError(
            f"max_iterations must be at least 1, got {max_iterations!r}")
    if not isps:
        raise ModelValidationError("at least one ISP is required")
    names = [isp.name for isp in isps]
    if len(set(names)) != len(names):
        raise ModelValidationError("ISP names must be unique")
    total_share = sum(isp.capacity_share for isp in isps)
    if abs(total_share - 1.0) > _SHARE_SUM_TOLERANCE:
        raise ModelValidationError(
            f"capacity shares must sum to 1, got {total_share!r}"
        )
    if len(isps) == 1:
        shares = {isps[0].name: 1.0}
        return _build_split(population, total_nu, isps, shares, mechanism,
                            True, 0, config)
    if len(isps) == 2:
        return _solve_duopoly(population, total_nu, isps[0], isps[1], mechanism,
                              tolerance, max_iterations, config)
    return _solve_multi(population, total_nu, isps, mechanism, tolerance,
                        max_iterations, config)

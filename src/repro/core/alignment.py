"""Discontinuity and alignment metrics (Equation 9, Theorem 6).

The per-capita consumer surplus ``Phi(nu, N, s_I)`` is non-decreasing in the
per-capita capacity for a *fixed* CP partition, but when ``nu`` varies the
CPs re-partition and ``Phi`` can exhibit small downward jumps.  The paper
quantifies this with

    epsilon_{s_I} = sup { Phi(nu_1) - Phi(nu_2) : nu_1 < nu_2 },

the largest downward gap of the surplus curve, and the dual quantity
``delta_{s_I}`` for market shares.  Theorem 6 bounds the gap between an
ISP's market-share best response and its consumer-surplus best response by
these quantities.  This module computes both metrics from sampled curves
and provides a helper that samples the monopoly surplus curve over a
capacity grid for a given strategy.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import ModelValidationError
from repro.core.cp_game import CPPartitionGame
from repro.core.strategy import ISPStrategy
from repro.network.allocation import CommonCapAllocation
from repro.network.provider import Population

__all__ = [
    "surplus_discontinuity",
    "market_share_discontinuity",
    "capacity_surplus_profile",
]


def surplus_discontinuity(surpluses: Sequence[float]) -> float:
    """Largest downward gap ``epsilon_{s_I}`` of a surplus curve (Equation 9).

    ``surpluses`` must be ordered by increasing capacity ``nu``.  The result
    is ``max(0, sup {Phi(nu_1) - Phi(nu_2) : nu_1 < nu_2})`` evaluated on the
    sampled grid — i.e. the largest amount by which the curve ever falls
    below a previously attained value.
    """
    if len(surpluses) == 0:
        raise ModelValidationError("surplus curve must contain at least one sample")
    running_max = float("-inf")
    largest_gap = 0.0
    for value in surpluses:
        value = float(value)
        if running_max > value:
            largest_gap = max(largest_gap, running_max - value)
        running_max = max(running_max, value)
    return largest_gap


def market_share_discontinuity(shares: Sequence[float],
                               surpluses: Sequence[float]) -> float:
    """The paper's ``delta_{s_I}``: ``sup { m_1 - m_2 : Phi_1 <= Phi_2 }``.

    ``shares`` and ``surpluses`` are paired samples (e.g. across a capacity
    sweep): the metric is the largest market-share advantage ever held by a
    sample whose consumer surplus is no better than another sample's.
    """
    if len(shares) != len(surpluses):
        raise ModelValidationError("shares and surpluses must have equal length")
    if len(shares) == 0:
        raise ModelValidationError("need at least one (share, surplus) sample")
    pairs: list[Tuple[float, float]] = sorted(
        zip((float(p) for p in surpluses), (float(m) for m in shares)),
        key=lambda pair: pair[0],
    )
    # For each sample j, the relevant competitor is any sample i with
    # Phi_i <= Phi_j; the largest m_i among them gives the supremum.
    largest_gap = 0.0
    running_max_share = float("-inf")
    index = 0
    for phi_j, share_j in pairs:
        while index < len(pairs) and pairs[index][0] <= phi_j:
            running_max_share = max(running_max_share, pairs[index][1])
            index += 1
        largest_gap = max(largest_gap, running_max_share - share_j)
    return max(0.0, largest_gap)


def capacity_surplus_profile(population: Population, strategy: ISPStrategy,
                             nus: Iterable[float],
                             mechanism: Optional[CommonCapAllocation] = None,
                             ) -> Tuple[list, list]:
    """Sample ``Phi(nu, N, s_I)`` over a capacity grid for one strategy.

    Returns the (sorted) capacity grid and the corresponding per-capita
    consumer surplus values; feeding the latter to
    :func:`surplus_discontinuity` yields ``epsilon_{s_I}``.
    """
    nu_values = sorted(float(nu) for nu in nus)
    if not nu_values:
        raise ModelValidationError("capacity grid must not be empty")
    surpluses = []
    for nu in nu_values:
        outcome = CPPartitionGame(population, nu, strategy,
                                  mechanism).competitive_equilibrium()
        surpluses.append(outcome.consumer_surplus)
    return nu_values, surpluses

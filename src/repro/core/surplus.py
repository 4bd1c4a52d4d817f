"""Welfare accounting: consumer surplus, ISP surplus and CP profits.

The paper's welfare metric of interest is the per-capita consumer surplus
``Phi`` (Equation 2); the ISP's objective in the monopoly game is the
CP-side revenue ``Psi``.  This module adds the complementary quantities —
aggregate CP profit and total welfare — and small helpers used by the
regulation comparator, the examples and the reports printed by benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cp_game import PartitionOutcome
from repro.network.allocation import CommonCapAllocation
from repro.network.equilibrium import solve_rate_equilibrium
from repro.network.provider import Population

__all__ = [
    "SurplusBreakdown",
    "welfare_report",
    "neutral_consumer_surplus",
    "max_consumer_surplus",
]


@dataclass(frozen=True)
class SurplusBreakdown:
    """Per-capita welfare decomposition of a second-stage outcome.

    Attributes
    ----------
    consumer_surplus:
        ``Phi`` — per-capita consumer surplus across both service classes.
    isp_surplus:
        ``Psi`` — per-capita ISP revenue from the premium class.
    cp_surplus:
        Aggregate per-capita CP profit (revenue minus premium charges).
    """

    consumer_surplus: float
    isp_surplus: float
    cp_surplus: float

    @property
    def total_welfare(self) -> float:
        """Sum of consumer, ISP and CP surplus (per capita)."""
        return self.consumer_surplus + self.isp_surplus + self.cp_surplus

    def scaled(self, consumers: float) -> "SurplusBreakdown":
        """Absolute (not per-capita) breakdown for a consumer size ``M``."""
        return SurplusBreakdown(
            consumer_surplus=self.consumer_surplus * consumers,
            isp_surplus=self.isp_surplus * consumers,
            cp_surplus=self.cp_surplus * consumers,
        )


def welfare_report(outcome: PartitionOutcome) -> SurplusBreakdown:
    """Full welfare breakdown of a second-stage partition outcome."""
    cp_total = sum(outcome.cp_utilities().values())
    return SurplusBreakdown(
        consumer_surplus=outcome.consumer_surplus,
        isp_surplus=outcome.isp_surplus,
        cp_surplus=cp_total,
    )


def neutral_consumer_surplus(population: Population, nu: float,
                             mechanism: Optional[CommonCapAllocation] = None
                             ) -> float:
    """Per-capita consumer surplus of a single neutral class at capacity ``nu``.

    This is the outcome under strict network-neutral regulation (or under the
    Public Option strategy): all providers share the full capacity in one
    class and no CP-side charges are levied.
    """
    return solve_rate_equilibrium(population, nu, mechanism).consumer_surplus()


def max_consumer_surplus(population: Population) -> float:
    """Upper bound of ``Phi``: every CP served at unconstrained throughput.

    Reached whenever the per-capita capacity exceeds
    ``sum_i alpha_i theta_hat_i`` (Theorem 2's saturation point).
    """
    return float(sum(cp.utility_rate * cp.alpha * cp.theta_hat for cp in population))

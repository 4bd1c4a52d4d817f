"""Numerical verification of the rate-allocation axioms (Axioms 1-4).

The paper's results hold for *any* mechanism satisfying the four axioms, so
the library ships a checker that exercises a mechanism against a population
over a grid of capacities and reports which axioms hold (within numerical
tolerance).  A :class:`~repro.network.allocation.CommonCapAllocation` is
checked at its rate equilibria.  Only such a mechanism can be solved or
played; a plain :class:`~repro.network.allocation.RateAllocationMechanism`
(a hand-written one, say) is still screened here, at its Definition-1
allocation of unit demands, so a candidate can be checked against the
axioms before it is given a Theorem-1 level.  This is used in the
test-suite (including property-based tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import AxiomViolationError, ModelValidationError
from repro.network.allocation import CommonCapAllocation, RateAllocationMechanism
from repro.network.equilibrium import solve_rate_equilibrium
from repro.network.provider import Population

__all__ = ["AxiomReport", "check_axioms"]

_DEFAULT_TOLERANCE = 1e-6


@dataclass
class AxiomReport:
    """Outcome of checking a mechanism against the paper's axioms.

    ``violations`` holds human-readable descriptions of every failed check;
    the per-axiom booleans summarise them.
    """

    feasibility: bool = True
    work_conservation: bool = True
    monotonicity: bool = True
    scale_independence: bool = True
    violations: List[str] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return (self.feasibility and self.work_conservation
                and self.monotonicity and self.scale_independence)

    def record(self, axiom: str, message: str) -> None:
        self.violations.append(f"{axiom}: {message}")
        if axiom == "Axiom1":
            self.feasibility = False
        elif axiom == "Axiom2":
            self.work_conservation = False
        elif axiom == "Axiom3":
            self.monotonicity = False
        elif axiom == "Axiom4":
            self.scale_independence = False

    def raise_if_violated(self) -> None:
        """Raise :class:`AxiomViolationError` for the first recorded violation."""
        if self.violations:
            axiom, _, message = self.violations[0].partition(": ")
            raise AxiomViolationError(axiom, message)


def _profile(mechanism: RateAllocationMechanism, population: Population,
             nu: float) -> tuple[np.ndarray, np.ndarray]:
    """``(thetas, demands)`` the axioms are checked on at capacity ``nu``:
    the rate equilibrium of a cap mechanism, otherwise the Definition-1
    allocation of unit demands (the only way to screen a mechanism that
    has no Theorem-1 level yet)."""
    if isinstance(mechanism, CommonCapAllocation):
        equilibrium = solve_rate_equilibrium(population, nu, mechanism)
        return equilibrium.thetas, equilibrium.demands
    demands = np.ones(len(population))
    return mechanism.allocate(population, demands, nu), demands


def check_axioms(mechanism: RateAllocationMechanism, population: Population,
                 nu_grid: Optional[Sequence[float]] = None, *,
                 tolerance: float = _DEFAULT_TOLERANCE,
                 scale_factors: Sequence[float] = (0.5, 2.0, 10.0),
                 ) -> AxiomReport:
    """Check Axioms 1-4 on the mechanism's allocations over a capacity grid.

    Parameters
    ----------
    mechanism:
        The rate-allocation mechanism under test.
    population:
        Providers used for the check.
    nu_grid:
        Per-capita capacities to test; defaults to an 11-point grid spanning
        from heavy congestion to abundant capacity for the population.
    tolerance:
        Relative numerical tolerance for the equality checks.
    scale_factors:
        Factors ``xi`` used to verify the Independence-of-Scale axiom by
        comparing ``(M, mu)`` against ``(xi M, xi mu)``.

    Returns
    -------
    AxiomReport
    """
    if len(population) == 0:
        raise ModelValidationError("cannot check axioms on an empty population")
    full_load = population.unconstrained_per_capita_load
    if nu_grid is None:
        nu_grid = [full_load * frac for frac in
                   (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0)]
    nu_values = sorted(float(nu) for nu in nu_grid)
    if any(nu < 0.0 for nu in nu_values):
        raise ModelValidationError("capacities in nu_grid must be non-negative")

    report = AxiomReport()
    previous_thetas: Optional[np.ndarray] = None
    previous_nu: Optional[float] = None
    theta_hats = population.theta_hats

    for nu in nu_values:
        thetas, demands = _profile(mechanism, population, nu)

        # Axiom 1: theta_i <= theta_hat_i.
        excess = np.max(thetas - theta_hats)
        if excess > tolerance * max(1.0, float(np.max(theta_hats))):
            report.record("Axiom1",
                          f"throughput exceeds theta_hat by {excess:.3e} at nu={nu}")

        # Axiom 2: aggregate = min(nu, unconstrained load).
        expected = min(nu, full_load)
        actual = float(np.sum(population.alphas * (demands * thetas)))
        if abs(actual - expected) > tolerance * max(1.0, expected):
            report.record("Axiom2",
                          f"aggregate rate {actual:.6g} != min(nu, load) = "
                          f"{expected:.6g} at nu={nu}")

        # Axiom 3: monotone in nu (grid is sorted ascending).
        if previous_thetas is not None:
            drop = np.max(previous_thetas - thetas)
            if drop > tolerance * max(1.0, float(np.max(theta_hats))):
                report.record("Axiom3",
                              f"throughput decreases by {drop:.3e} moving from "
                              f"nu={previous_nu} to nu={nu}")
        previous_thetas = thetas
        previous_nu = nu

    # Axiom 4: independence of scale.  The solvers work per capita, but a
    # custom mechanism could still smuggle in absolute quantities, so verify
    # explicitly on a congested point of the grid.
    congested_nu = nu_values[len(nu_values) // 3]
    base, _ = _profile(mechanism, population, congested_nu)
    for factor in scale_factors:
        if factor <= 0.0:
            raise ModelValidationError("scale factors must be positive")
        scaled, _ = _profile(mechanism, population,
                             congested_nu * factor / factor)
        difference = float(np.max(np.abs(scaled - base)))
        if difference > tolerance * max(1.0, float(np.max(theta_hats))):
            report.record("Axiom4",
                          f"allocation changes by {difference:.3e} under scale "
                          f"factor {factor}")
    return report

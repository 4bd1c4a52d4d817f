"""Rate-allocation substrate of the three-party ecosystem model.

This subpackage implements Section II of the paper: throughput-sensitive
demand functions (Assumption 1), content-provider parameterisation,
axiomatic rate-allocation mechanisms (Axioms 1-4), the unique rate
equilibrium of Theorem 1 and its per-capita reduction (Lemma 1), and a
reference checker of the axioms that tests run mechanisms against.

Everything here works in the per-capita capacity ``nu = mu / M``: by
Axiom 4, scaling the consumer count ``M`` and the capacity ``mu`` together
changes no equilibrium, so no solver takes the absolute pair.
"""

from repro.network.demand import (
    ConstantElasticityDemand,
    DemandFunction,
    ExponentialSensitivityDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    SigmoidDemand,
    StepDemand,
    UnitDemand,
    validate_demand_function,
)
from repro.network.provider import ContentProvider, Population
from repro.network.allocation import (
    AlphaFairAllocation,
    MaxMinFairAllocation,
    ProportionalFairAllocation,
    ProportionalToDemandAllocation,
    RateAllocationMechanism,
    StrictPriorityAllocation,
    WeightedFairAllocation,
)
from repro.network.equilibrium import RateEquilibrium, solve_rate_equilibrium
from repro.network.axioms import AxiomReport, check_axioms

__all__ = [
    # demand
    "DemandFunction",
    "ExponentialSensitivityDemand",
    "LinearDemand",
    "StepDemand",
    "UnitDemand",
    "SigmoidDemand",
    "PiecewiseLinearDemand",
    "ConstantElasticityDemand",
    "validate_demand_function",
    # providers
    "ContentProvider",
    "Population",
    # allocation
    "RateAllocationMechanism",
    "MaxMinFairAllocation",
    "ProportionalFairAllocation",
    "AlphaFairAllocation",
    "WeightedFairAllocation",
    "ProportionalToDemandAllocation",
    "StrictPriorityAllocation",
    # equilibrium
    "RateEquilibrium",
    "solve_rate_equilibrium",
    # axioms
    "AxiomReport",
    "check_axioms",
]

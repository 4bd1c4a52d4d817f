"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses are
raised by the individual subsystems:

* model-construction problems (bad parameters, demand functions that violate
  Assumption 1, strategies outside the feasible region) raise
  :class:`ModelValidationError`;
* rate-allocation mechanisms that produce allocations violating the paper's
  axioms raise :class:`AxiomViolationError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelValidationError",
    "AxiomViolationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ModelValidationError(ReproError, ValueError):
    """Raised when model inputs are malformed or violate paper assumptions.

    Examples include a negative capacity, a content-provider popularity
    outside ``(0, 1]``, a demand function that decreases with throughput
    (violating Assumption 1) or an ISP strategy with ``kappa`` outside
    ``[0, 1]``.
    """


class AxiomViolationError(ReproError, AssertionError):
    """Raised when a rate allocation violates Axioms 1-4 of the paper."""

    def __init__(self, axiom: str, message: str) -> None:
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom

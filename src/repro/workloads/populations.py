"""Random content-provider populations (the paper's 1000-CP workload).

Sections III and IV study a population of 1000 CPs whose parameters are
drawn independently:

* popularity ``alpha_i ~ U[0, 1]``;
* unconstrained throughput ``theta_hat_i ~ U[0, 1]``;
* CP-side revenue ``v_i ~ U[0, 1]``;
* throughput sensitivity ``beta_i ~ U[0, 10]``;
* consumer utility ``phi_i ~ U[0, beta_i]`` (main text) or
  ``phi_i ~ U[0, U[0, 10]]`` (appendix).

With these ranges, serving every CP at its unconstrained throughput needs a
per-capita capacity of about ``nu = 250`` (``E[alpha theta_hat] = 1/4``
times 1000 CPs), matching the paper's statement.  The exact draw used by
the authors is not published, so experiments regenerate the population from
a fixed seed; absolute surplus values therefore differ from the paper's
plots while the qualitative regimes are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
# numpy loads ``np.random`` on its first use (~9 ms); load it with this
# module, so a server pays for it at startup, not in its first request.
import numpy.random  # noqa: F401

from repro.errors import ModelValidationError
from repro.network.provider import Population
from repro.workloads.utility import beta_correlated_utilities, independent_utilities

__all__ = ["PopulationSpec", "random_population", "paper_population"]

#: Seed used by all figure reproductions unless overridden.
DEFAULT_SEED = 20111106


@dataclass(frozen=True)
class PopulationSpec:
    """Parameter ranges for a random CP population.

    All parameters are drawn from uniform distributions over the given
    ``(low, high)`` ranges; the utility model selects between the paper's
    main-text (beta-correlated) and appendix (independent) ``phi`` draws.
    """

    count: int = 1000
    alpha_range: Tuple[float, float] = (0.0, 1.0)
    theta_hat_range: Tuple[float, float] = (0.0, 1.0)
    revenue_range: Tuple[float, float] = (0.0, 1.0)
    beta_range: Tuple[float, float] = (0.0, 10.0)
    utility_model: str = "beta_correlated"
    utility_scale: float = 10.0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ModelValidationError("population count must be positive")
        for label, (low, high) in (
            ("alpha_range", self.alpha_range),
            ("theta_hat_range", self.theta_hat_range),
            ("revenue_range", self.revenue_range),
            ("beta_range", self.beta_range),
        ):
            if low < 0.0 or high < low:
                raise ModelValidationError(
                    f"{label} must satisfy 0 <= low <= high, got {(low, high)!r}"
                )
        if self.utility_model not in ("beta_correlated", "independent"):
            raise ModelValidationError(
                "utility_model must be 'beta_correlated' or 'independent', "
                f"got {self.utility_model!r}"
            )
        if self.utility_scale < 0.0:
            raise ModelValidationError("utility_scale must be non-negative")


def _uniform_open_low(rng: np.random.Generator, low: float, high: float,
                      size: int, minimum: float) -> np.ndarray:
    """Uniform draw, bumped away from zero where the model needs positivity.

    ``alpha`` and ``theta_hat`` must be strictly positive (a CP nobody ever
    accesses, or with zero throughput, is not a meaningful participant), so
    draws below ``minimum`` are clamped to it.
    """
    values = rng.uniform(low, high, size=size)
    return np.maximum(values, minimum)


def random_population(spec: PopulationSpec = PopulationSpec(), *,
                      seed: Optional[int] = DEFAULT_SEED,
                      rng: Optional[np.random.Generator] = None,
                      name_prefix: str = "cp") -> Population:
    """Draw a random population according to ``spec``.

    Either a ``seed`` (default: the library's fixed reproduction seed) or an
    explicit numpy ``Generator`` can be supplied; the latter takes
    precedence and allows embedding the draw in a larger experiment stream.
    """
    generator = rng if rng is not None else np.random.default_rng(seed)
    count = spec.count
    alphas = _uniform_open_low(generator, *spec.alpha_range, count, 1e-4)
    theta_hats = _uniform_open_low(generator, *spec.theta_hat_range, count, 1e-4)
    revenues = generator.uniform(*spec.revenue_range, size=count)
    betas = generator.uniform(*spec.beta_range, size=count)
    if spec.utility_model == "beta_correlated":
        utilities = beta_correlated_utilities(betas, rng=generator)
    else:
        utilities = independent_utilities(count, scale=spec.utility_scale,
                                          rng=generator)
    # Columnar construction: the draws feed the structure-of-arrays backing
    # store directly, so a million-CP population never materialises per-CP
    # objects (names are generated lazily from the prefix).
    return Population.from_columns(
        alphas, theta_hats, betas=betas, revenue_rates=revenues,
        utility_rates=utilities, name_prefix=name_prefix)


def paper_population(count: int = 1000, utility_model: str = "beta_correlated",
                     seed: int = DEFAULT_SEED) -> Population:
    """The paper's Section III/IV workload (1000 CPs, stated distributions).

    ``utility_model="independent"`` reproduces the appendix variant
    (Figures 9-12) with ``phi_i ~ U[0, U[0, 10]]``.  Because the appendix
    keeps every other CP characteristic identical to the main text, the
    independent-utility population is generated by redrawing only the
    utilities on top of the main-text population.
    """
    base = random_population(PopulationSpec(count=count), seed=seed)
    if utility_model == "beta_correlated":
        return base
    if utility_model == "independent":
        utilities = independent_utilities(count, scale=10.0, seed=seed + 1)
        return base.with_utility_rates(utilities)
    raise ModelValidationError(
        "utility_model must be 'beta_correlated' or 'independent', "
        f"got {utility_model!r}"
    )

"""ISP strategies ``s_I = (kappa, c)`` and strategy grids (Section III-A).

An ISP's strategy has two components:

* ``kappa`` — the fraction of its capacity devoted to the charged premium
  service class (the remaining ``1 - kappa`` forms the free ordinary class);
* ``price`` — the per-unit-traffic charge ``c`` levied on content providers
  that join the premium class.

The *Public Option* ISP of Definition 5 always plays the fixed strategy
``(0, 0)``: no premium class and no CP-side charges.  A *network-neutral*
ISP is modelled the same way — neutrality here means "no paid
prioritisation", which is exactly ``kappa = 0`` (or, equivalently for every
outcome in the model, ``c = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import ModelValidationError

__all__ = [
    "ISPStrategy",
    "PUBLIC_OPTION_STRATEGY",
    "NEUTRAL_STRATEGY",
    "strategy_grid",
]


@dataclass(frozen=True, order=True)
class ISPStrategy:
    """A first-stage ISP strategy ``(kappa, c)``.

    ``kappa`` is the premium capacity share in ``[0, 1]`` and ``price`` the
    per-unit-traffic premium charge ``c >= 0``.
    """

    kappa: float
    price: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ModelValidationError(
                f"kappa must lie in [0, 1], got {self.kappa!r}"
            )
        if not math.isfinite(self.price) or self.price < 0.0:
            raise ModelValidationError(
                f"price must be non-negative and finite, got {self.price!r}"
            )

    @property
    def is_neutral(self) -> bool:
        """True when the strategy involves no paid prioritisation.

        Either no capacity is set aside for the premium class or the premium
        class is free; both produce the single-class neutral outcome.
        """
        return self.kappa == 0.0 or self.price == 0.0

    @property
    def is_public_option(self) -> bool:
        """True for the exact Public Option strategy ``(0, 0)``."""
        return self.kappa == 0.0 and self.price == 0.0

    @property
    def ordinary_share(self) -> float:
        """Capacity share of the free ordinary class, ``1 - kappa``."""
        return 1.0 - self.kappa

    def describe(self) -> str:
        """Short human-readable description used in tables and reports."""
        if self.is_public_option:
            return "public option (kappa=0, c=0)"
        return f"kappa={self.kappa:g}, c={self.price:g}"


#: The Public Option ISP's fixed strategy (Definition 5).
PUBLIC_OPTION_STRATEGY = ISPStrategy(kappa=0.0, price=0.0)

#: The strategy imposed by strict network-neutral regulation: a single free
#: class.  Identical to the Public Option strategy; kept as a separate name
#: because the two play very different roles in the paper's argument.
NEUTRAL_STRATEGY = ISPStrategy(kappa=0.0, price=0.0)


def strategy_grid(kappas: Iterable[float], prices: Iterable[float],
                  include_public_option: bool = False) -> List[ISPStrategy]:
    """Cartesian grid of strategies used for best-response searches.

    Parameters
    ----------
    kappas, prices:
        Values of the premium capacity share and the premium price.
    include_public_option:
        When true, the Public Option strategy ``(0, 0)`` is appended if the
        grid does not already contain it.

    Returns
    -------
    list of ISPStrategy
        Strategies in row-major (kappa-major) order, de-duplicated.
    """
    kappa_values: Sequence[float] = [float(k) for k in kappas]
    price_values: Sequence[float] = [float(c) for c in prices]
    if not kappa_values or not price_values:
        raise ModelValidationError("strategy grid needs at least one kappa and one price")
    seen = set()
    grid: List[ISPStrategy] = []
    for kappa in kappa_values:
        for price in price_values:
            strategy = ISPStrategy(kappa, price)
            key = (strategy.kappa, strategy.price)
            if key not in seen:
                seen.add(key)
                grid.append(strategy)
    if include_public_option and (0.0, 0.0) not in seen:
        grid.append(PUBLIC_OPTION_STRATEGY)
    return grid

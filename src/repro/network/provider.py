"""Content-provider model and populations (Section II of the paper).

Each content provider (CP) ``i`` is described by:

* ``alpha`` — popularity, the fraction of consumers that ever access the CP
  (``alpha_i`` in the paper, in ``(0, 1]``);
* ``theta_hat`` — the unconstrained per-user throughput (``theta_hat_i``);
* ``beta`` — throughput sensitivity, the shape parameter of the exponential
  demand function of Equation (3);
* ``revenue_rate`` — the CP-side per-unit-traffic revenue ``v_i`` used when
  the CP decides whether to pay for the premium class;
* ``utility_rate`` — the consumer-side per-unit-traffic utility ``phi_i``
  entering the consumer surplus.

A CP may override the default exponential demand function with any
:class:`~repro.network.demand.DemandFunction`.  :class:`Population` is an
immutable ordered collection of CPs stored *columnar*: one contiguous numpy
array per field, with :class:`ContentProvider` objects materialised lazily
only when a caller actually indexes into the sequence.  The solvers operate
exclusively on the column arrays, so populations of millions of CPs never
pay per-object Python overhead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ModelValidationError
from repro.network.demand import DemandFunction, ExponentialSensitivityDemand

__all__ = ["ContentProvider", "Population"]

#: Relative slack when matching a custom demand's ``theta_hat`` against the
#: provider's own.
_THETA_HAT_MATCH_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ContentProvider:
    """A single content provider in the three-party ecosystem.

    Parameters mirror the paper's notation; see the module docstring.  The
    ``demand`` field defaults to the exponential-sensitivity demand of
    Equation (3) built from ``theta_hat`` and ``beta``.
    """

    name: str
    alpha: float
    theta_hat: float
    beta: float = 1.0
    revenue_rate: float = 0.0
    utility_rate: float = 0.0
    demand: Optional[DemandFunction] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelValidationError("content provider needs a non-empty name")
        if not (0.0 < self.alpha <= 1.0):
            raise ModelValidationError(
                f"alpha (popularity) must lie in (0, 1], got {self.alpha!r}"
            )
        if not math.isfinite(self.theta_hat) or self.theta_hat <= 0.0:
            raise ModelValidationError(
                f"theta_hat must be positive and finite, got {self.theta_hat!r}"
            )
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ModelValidationError(
                f"beta must be non-negative and finite, got {self.beta!r}"
            )
        if not math.isfinite(self.revenue_rate) or self.revenue_rate < 0.0:
            raise ModelValidationError(
                f"revenue_rate (v_i) must be non-negative, got {self.revenue_rate!r}"
            )
        if not math.isfinite(self.utility_rate) or self.utility_rate < 0.0:
            raise ModelValidationError(
                f"utility_rate (phi_i) must be non-negative, got {self.utility_rate!r}"
            )
        if self.demand is None:
            object.__setattr__(
                self,
                "demand",
                ExponentialSensitivityDemand(self.theta_hat, self.beta),
            )
        elif (abs(self.demand.theta_hat - self.theta_hat)
                > _THETA_HAT_MATCH_TOLERANCE * self.theta_hat):
            raise ModelValidationError(
                "demand.theta_hat must match the provider's theta_hat "
                f"({self.demand.theta_hat} != {self.theta_hat})"
            )

    def with_utility_rate(self, utility_rate: float) -> "ContentProvider":
        """Copy of this CP with a different consumer utility rate ``phi_i``."""
        return replace(self, utility_rate=utility_rate)

    def with_revenue_rate(self, revenue_rate: float) -> "ContentProvider":
        """Copy of this CP with a different CP-side revenue rate ``v_i``."""
        return replace(self, revenue_rate=revenue_rate)


def _is_default_demand(provider: ContentProvider) -> bool:
    """True when the CP's demand is the Equation-(3) default for its params."""
    demand = provider.demand
    return (type(demand) is ExponentialSensitivityDemand
            and demand.theta_hat == provider.theta_hat
            and demand.beta == provider.beta)


#: Column order of the structure-of-arrays backing store.
_COLUMN_KEYS = ("alphas", "theta_hats", "betas", "revenue_rates",
                "utility_rates")


def _readonly(array: np.ndarray) -> np.ndarray:
    """Contiguous read-only float64 view of an *internally owned* array.

    Caller-supplied arrays must be copied before reaching this (the public
    constructors do), since the writeable flag is cleared in place.
    """
    out = np.ascontiguousarray(array, dtype=float)
    out.flags.writeable = False
    return out


class Population(Sequence[ContentProvider]):
    """Immutable ordered collection of content providers.

    The backing store is *columnar*: one contiguous read-only float64 array
    per CP field (structure-of-arrays).  The ``Sequence[ContentProvider]``
    API is a thin view — :class:`ContentProvider` objects are materialised
    lazily per index and cached, so iterating small populations behaves
    exactly as before while solver-facing code (vectorised accessors,
    :meth:`subset`, :meth:`demands_at`) never touches per-CP objects.

    Equality and hashing are by column *value* (plus names and any custom
    demand functions), so two populations with identical parameters share
    solver cache entries — the cache keys are effectively column-view
    fingerprints rather than object identities.
    """

    def __init__(self, providers: Iterable[ContentProvider]) -> None:
        provider_list = list(providers)
        names = tuple(cp.name for cp in provider_list)
        if len(set(names)) != len(names):
            raise ModelValidationError("content provider names must be unique")
        columns = {
            "alphas": np.array([cp.alpha for cp in provider_list], dtype=float),
            "theta_hats": np.array([cp.theta_hat for cp in provider_list],
                                   dtype=float),
            "betas": np.array([cp.beta for cp in provider_list], dtype=float),
            "revenue_rates": np.array([cp.revenue_rate for cp in provider_list],
                                      dtype=float),
            "utility_rates": np.array([cp.utility_rate for cp in provider_list],
                                      dtype=float),
        }
        demands = (None if all(_is_default_demand(cp) for cp in provider_list)
                   else tuple(cp.demand for cp in provider_list))
        self._init_state(columns, names=names, name_prefix=None,
                         demands=demands, provider_cache=provider_list)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_columns(cls, alphas: np.ndarray, theta_hats: np.ndarray,
                     betas: Optional[np.ndarray] = None,
                     revenue_rates: Optional[np.ndarray] = None,
                     utility_rates: Optional[np.ndarray] = None, *,
                     names: Optional[Sequence[str]] = None,
                     name_prefix: str = "cp") -> "Population":
        """Build a population directly from parameter columns (no CP objects).

        This is the million-CP entry point: validation is vectorised, names
        are generated lazily from ``name_prefix`` (``cp-0000`` style, matching
        :func:`repro.workloads.populations.random_population`) unless an
        explicit ``names`` sequence is given, and every provider uses the
        default Equation-(3) exponential demand.
        """
        alphas = np.atleast_1d(np.array(alphas, dtype=float))
        theta_hats = np.atleast_1d(np.array(theta_hats, dtype=float))
        size = len(alphas)

        def column(values: Optional[np.ndarray], default: float) -> np.ndarray:
            if values is None:
                return np.full(size, default)
            # Copy: the backing store is frozen in place, and the caller's
            # array must stay writeable.
            return np.atleast_1d(np.array(values, dtype=float))

        columns = {
            "alphas": alphas,
            "theta_hats": theta_hats,
            "betas": column(betas, 1.0),
            "revenue_rates": column(revenue_rates, 0.0),
            "utility_rates": column(utility_rates, 0.0),
        }
        for key, array in columns.items():
            if array.ndim != 1 or len(array) != size:
                raise ModelValidationError(
                    f"{key} must be a 1-D column of length {size}, "
                    f"got shape {array.shape}")
        if np.any(~((columns["alphas"] > 0.0) & (columns["alphas"] <= 1.0))):
            raise ModelValidationError(
                "alpha (popularity) must lie in (0, 1] for every provider")
        if np.any(~(np.isfinite(columns["theta_hats"])
                    & (columns["theta_hats"] > 0.0))):
            raise ModelValidationError(
                "theta_hat must be positive and finite for every provider")
        for key, label in (("betas", "beta"),
                           ("revenue_rates", "revenue_rate (v_i)"),
                           ("utility_rates", "utility_rate (phi_i)")):
            if np.any(~(np.isfinite(columns[key]) & (columns[key] >= 0.0))):
                raise ModelValidationError(
                    f"{label} must be non-negative and finite for every "
                    "provider")
        name_tuple: Optional[tuple[str, ...]] = None
        if names is not None:
            name_tuple = tuple(str(name) for name in names)
            if len(name_tuple) != size:
                raise ModelValidationError(
                    "names length must match the population size")
            if any(not name for name in name_tuple):
                raise ModelValidationError(
                    "content provider needs a non-empty name")
            if len(set(name_tuple)) != size:
                raise ModelValidationError(
                    "content provider names must be unique")
        return cls._from_state(columns, names=name_tuple,
                               name_prefix=name_prefix, demands=None,
                               provider_cache=None)

    @classmethod
    def _from_state(cls, columns: Mapping[str, np.ndarray], *,
                    names: Optional[tuple[str, ...]],
                    name_prefix: Optional[str],
                    demands: Optional[tuple[Any, ...]],
                    provider_cache: Optional[list[Optional[ContentProvider]]],
                    ) -> "Population":
        self = object.__new__(cls)
        self._init_state(columns, names=names, name_prefix=name_prefix,
                         demands=demands, provider_cache=provider_cache)
        return self

    def _init_state(self, columns: Mapping[str, np.ndarray], *,
                    names: Optional[tuple[str, ...]],
                    name_prefix: Optional[str],
                    demands: Optional[tuple[Any, ...]],
                    provider_cache: Optional[list[Optional[ContentProvider]]],
                    ) -> None:
        self._columns = {key: _readonly(columns[key]) for key in _COLUMN_KEYS}
        self._size = len(self._columns["alphas"])
        self._names: Optional[tuple[str, ...]] = names
        self._name_prefix: Optional[str] = name_prefix
        #: ``None`` means every provider uses the default exponential demand;
        #: otherwise a per-provider tuple of demand objects.
        self._demands: Optional[tuple[Any, ...]] = demands
        self._provider_cache: Optional[list[Optional[ContentProvider]]] = (
            provider_cache)
        # Lazily-populated caches.  A Population is immutable, so the hash,
        # the demand grouping and the name index are computed at most once.
        self._hash: Optional[int] = None
        self._digest: Optional[bytes] = None
        self._demand_groups_cache: Optional[tuple[Any, ...]] = None
        self._name_index: Optional[dict[str, int]] = None

    # -- lazy per-provider views ---------------------------------------------
    def _name_at(self, index: int) -> str:
        if self._names is not None:
            return self._names[index]
        return f"{self._name_prefix}-{index:04d}"

    def _provider_at(self, index: int) -> ContentProvider:
        if self._provider_cache is None:
            self._provider_cache = [None] * self._size
        provider = self._provider_cache[index]
        if provider is None:
            provider = ContentProvider(
                name=self._name_at(index),
                alpha=float(self._columns["alphas"][index]),
                theta_hat=float(self._columns["theta_hats"][index]),
                beta=float(self._columns["betas"][index]),
                revenue_rate=float(self._columns["revenue_rates"][index]),
                utility_rate=float(self._columns["utility_rates"][index]),
                demand=None if self._demands is None else self._demands[index],
            )
            self._provider_cache[index] = provider
        return provider

    def _take(self, indices: np.ndarray) -> "Population":
        """Sub-population view at the given (unique) index array."""
        indices = np.asarray(indices, dtype=np.intp)
        columns = {key: array[indices]
                   for key, array in self._columns.items()}
        names = tuple(self._name_at(int(i)) for i in indices)
        demands = (None if self._demands is None
                   else tuple(self._demands[int(i)] for i in indices))
        cache = (None if self._provider_cache is None
                 else [self._provider_cache[int(i)] for i in indices])
        return Population._from_state(columns, names=names, name_prefix=None,
                                      demands=demands, provider_cache=cache)

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[ContentProvider]:
        return (self._provider_at(i) for i in range(self._size))

    def __getitem__(self, index: Union[int, slice],  # type: ignore[override]
                    ) -> Union[ContentProvider, "Population"]:
        if isinstance(index, slice):
            return self._take(np.arange(self._size)[index])
        i = int(index)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("population index out of range")
        return self._provider_at(i)

    def __contains__(self, item: object) -> bool:
        return any(provider == item for provider in self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Population):
            return NotImplemented
        if self._size != other._size:
            return False
        for key in _COLUMN_KEYS:
            if not np.array_equal(self._columns[key], other._columns[key]):
                return False
        if self._demands != other._demands:
            return False
        if (self._names is None and other._names is None
                and self._name_prefix == other._name_prefix):
            return True
        return self.names == other.names

    def fingerprint(self) -> bytes:
        """Digest of the column values — the cache-key identity of the view.

        Two populations with byte-identical columns share the fingerprint
        (names and custom demand objects are resolved by ``__eq__`` on the
        rare hash collision), so solver caches keyed on the population are
        keyed on column *content*, not object identity.
        """
        if self._digest is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self._size.to_bytes(8, "little"))
            for key in _COLUMN_KEYS:
                digest.update(self._columns[key].data)
            self._digest = digest.digest()
        return self._digest

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = int.from_bytes(self.fingerprint()[:8], "little",
                                        signed=True)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Population(n={self._size})"

    # -- vectorised accessors ----------------------------------------------
    # The returned arrays are the backing columns themselves, contiguous and
    # read-only: callers that need to mutate them must take a copy (the
    # solvers already do).
    @property
    def names(self) -> tuple[str, ...]:
        if self._names is None:
            self._names = tuple(self._name_at(i) for i in range(self._size))
        return self._names

    @property
    def alphas(self) -> np.ndarray:
        return self._columns["alphas"]

    @property
    def theta_hats(self) -> np.ndarray:
        return self._columns["theta_hats"]

    @property
    def betas(self) -> np.ndarray:
        return self._columns["betas"]

    @property
    def revenue_rates(self) -> np.ndarray:
        return self._columns["revenue_rates"]

    @property
    def utility_rates(self) -> np.ndarray:
        return self._columns["utility_rates"]

    @property
    def unconstrained_per_capita_load(self) -> float:
        """``sum_i alpha_i * theta_hat_i`` — the per-capita capacity at which
        every CP can be served at its unconstrained throughput."""
        return float(np.sum(self.alphas * self.theta_hats))

    # -- vectorised demand evaluation -----------------------------------------
    @property
    def _demand_groups(self) -> tuple[Any, ...]:
        """Providers grouped by demand family, with packed parameter arrays.

        Each entry is ``(family_type, index_array, packed_parameters)``; the
        packed form is whatever the family's
        :meth:`~repro.network.demand.DemandFunction.pack_parameters` returns.
        For the all-default population the single exponential group is built
        straight from the columns — no demand objects are materialised.
        Cached on first access — the equilibrium solvers evaluate demands
        thousands of times per solve.
        """
        if self._demand_groups_cache is None:
            if self._demands is None:
                if self._size == 0:
                    self._demand_groups_cache = ()
                else:
                    self._demand_groups_cache = ((
                        ExponentialSensitivityDemand,
                        np.arange(self._size, dtype=np.intp),
                        (self.theta_hats, self.betas),
                    ),)
            else:
                by_family: dict[type, list[int]] = {}
                for index, demand in enumerate(self._demands):
                    by_family.setdefault(type(demand), []).append(index)
                built = []
                for family, indices in by_family.items():
                    functions = [self._demands[i] for i in indices]
                    built.append((family, np.array(indices, dtype=np.intp),
                                  family.pack_parameters(functions)))
                self._demand_groups_cache = tuple(built)
        return self._demand_groups_cache

    @property
    def _all_exponential(self) -> bool:
        """True when every provider uses the Equation-(3) exponential demand."""
        groups = self._demand_groups
        return (len(groups) == 0
                or (len(groups) == 1
                    and groups[0][0] is ExponentialSensitivityDemand))

    @property
    def exponential_parameters(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(theta_hats, betas)`` when the fast exponential path applies.

        Returns ``None`` unless every provider carries an
        :class:`~repro.network.demand.ExponentialSensitivityDemand` whose
        ``theta_hat`` equals the provider's own (always true for the default
        demand).  The equilibrium solvers use this to decide whether the
        sorted-prefix carried-load profile is exact for this population.
        """
        if self._demands is None or self._size == 0:
            return self.theta_hats, self.betas
        if not self._all_exponential:
            return None
        _, _, packed = self._demand_groups[0]
        demand_theta_hats, betas = packed
        if not np.array_equal(demand_theta_hats, self.theta_hats):
            return None
        return self.theta_hats, betas

    def demands_at(self, thetas: np.ndarray) -> np.ndarray:
        """Demand fractions ``d_i(theta_i)`` for one or many throughput profiles.

        ``thetas`` may be a single profile of shape ``(n,)`` or a stack of
        profiles of shape ``(..., n)`` (the batched equilibrium engine passes
        a ``(grid, n)`` matrix); the result has the same shape.  Each demand
        family is evaluated in one array call of its formula
        (:meth:`~repro.network.demand.DemandFunction.batch_evaluate_packed`),
        bit-identical to calling each CP's demand on its own.
        """
        thetas = np.asarray(thetas, dtype=float)
        size = self._size
        if thetas.ndim == 0 or thetas.shape[-1] != size:
            raise ModelValidationError(
                f"throughput profile has shape {thetas.shape}, expected "
                f"(..., {size})"
            )
        groups = self._demand_groups
        if len(groups) == 1:
            family, _, packed = groups[0]
            return family.batch_evaluate_packed(packed, thetas)
        demands = np.empty(thetas.shape, dtype=float)
        for family, indices, packed in groups:
            demands[..., indices] = family.batch_evaluate_packed(
                packed, thetas[..., indices])
        return demands

    # -- sub-population helpers ---------------------------------------------
    def subset(self, indices: Iterable[int]) -> "Population":
        """Sub-population selected by provider index (order-preserving).

        A columnar index-view: the child population fancy-indexes the parent
        columns, so no :class:`ContentProvider` objects are created.
        """
        index_list = sorted(set(int(i) for i in indices))
        for i in index_list:
            if i < 0 or i >= self._size:
                raise ModelValidationError(f"provider index {i} out of range")
        return self._take(np.array(index_list, dtype=np.intp))

    def index_of(self, name: str) -> int:
        """Index of the provider with the given name."""
        if self._name_index is None:
            self._name_index = {n: i for i, n in enumerate(self.names)}
        return self._name_index[name]

    def with_utility_rates(self, utility_rates: Sequence[float]) -> "Population":
        """New population with the consumer utility rates ``phi_i`` replaced."""
        rates = np.atleast_1d(np.array(utility_rates, dtype=float))
        if rates.ndim != 1 or len(rates) != self._size:
            raise ModelValidationError(
                "utility_rates length must match the population size"
            )
        bad = ~(np.isfinite(rates) & (rates >= 0.0))
        if np.any(bad):
            value = float(rates[np.nonzero(bad)[0][0]])
            raise ModelValidationError(
                f"utility_rate (phi_i) must be non-negative, got {value!r}"
            )
        columns = dict(self._columns)
        columns["utility_rates"] = rates
        return Population._from_state(
            columns, names=self._names, name_prefix=self._name_prefix,
            demands=self._demands, provider_cache=None)

    def sorted_by_revenue(self, descending: bool = True) -> "Population":
        """Population re-ordered by CP-side revenue rate ``v_i``."""
        revenues = self.revenue_rates
        if descending:
            order = np.argsort(-revenues, kind="stable")
        else:
            order = np.argsort(revenues, kind="stable")
        return self._take(order)

    def describe(self) -> dict[str, float]:
        """Summary statistics of the population (used by the CLI/examples)."""
        return {
            "count": self._size,
            "mean_alpha": float(np.mean(self.alphas)) if self._size else 0.0,
            "mean_theta_hat": float(np.mean(self.theta_hats)) if self._size else 0.0,
            "mean_beta": float(np.mean(self.betas)) if self._size else 0.0,
            "mean_revenue_rate": float(np.mean(self.revenue_rates)) if self._size else 0.0,
            "mean_utility_rate": float(np.mean(self.utility_rates)) if self._size else 0.0,
            "unconstrained_per_capita_load": (
                self.unconstrained_per_capita_load if self._size else 0.0
            ),
        }

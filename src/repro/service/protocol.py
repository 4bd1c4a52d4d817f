"""Request/response schema of the equilibrium service (see ARTIFACTS.md).

A ``POST /solve`` body is a JSON object::

    {
      "population":  {"count": 1000, "seed": 20111106,
                      "utility_model": "beta_correlated"},
      # ... or, instead of "population", a fingerprint of a population this
      # server has already resolved:
      "fingerprint": "9f3a...",
      "mechanism":   "maxmin",            # or "proportional_to_demand"
      "nus":         [50.0, 100.0],       # per-capita capacity grid
      "price":       1.5,                 # optional: premium_revenues series
      "detail":      true,                # optional: per-provider matrices
      "config":      {"surplus_tolerance": 1e-8}   # optional SolverConfig fields
    }

and the response echoes the request identity plus the equilibrium series
(grid axis first) and the solver provenance.  By default the series are
the per-grid-point aggregate curves (``aggregate_rates``,
``utilizations``, ``consumer_surpluses``, optional ``premium_revenues``),
computed from the grid's Theorem-1 caps in ``O(G + n)`` memory;
``"detail": true`` additionally ships the per-provider ``(G, n)`` series
(``thetas``, ``demands``, ``per_capita_rates``), built row by row from the
caps.  At the paper's 1000-CP workload those are ~200 KB of JSON per
response, so they are opt-in, and a detail request over
``MAX_DETAIL_CELLS`` grid points x providers is refused with a 413
``grid_too_large`` error.  ``served.coalesced`` is true when the request
shared another request's solve: one still in flight, or one already
answered whose outcome the scheduler retained; ``served.batch_size`` is the
number of requests fused into the batch that solved it.
Parsing is strict: unknown
fields, non-finite grids and malformed specs raise :class:`RequestError`,
which the server maps to a structured 4xx-style JSON error without tearing
the connection down.

Populations are resolved through a registered LRU cache
(``service_populations``): repeated requests for the same spec reuse the
columnar population (and therefore every cap cached against its
fingerprint), and each resolved population is indexed by fingerprint so
follow-up requests can address it without re-sending the spec.  Each
population takes two of the cache's 64 entries (spec and fingerprint), so
it keeps the 32 most recently used; a fingerprint of an older population
gets a 404 ``unknown_fingerprint`` error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.cache import LRUCache
from repro.config import SolverConfig, resolve_config
from repro.errors import ModelValidationError
from repro.network.allocation import (
    CommonCapAllocation,
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
)
from repro.network.provider import Population
from repro.simulation.batch import BatchRateEquilibrium
from repro.workloads.populations import DEFAULT_SEED, paper_population

__all__ = [
    "RequestError",
    "SolveRequest",
    "MECHANISM_NAMES",
    "parse_solve_request",
    "build_solve_response",
    "solve_response_chunks",
    "error_payload",
]

#: Mechanism names accepted on the wire.  Both are value-keyed
#: (parameter-free) mechanisms, so equal names share solver-cache entries.
MECHANISM_NAMES: Tuple[str, ...] = ("maxmin", "proportional_to_demand")

_MECHANISMS: Dict[str, CommonCapAllocation] = {
    "maxmin": MaxMinFairAllocation(),
    "proportional_to_demand": ProportionalToDemandAllocation(),
}

#: SolverConfig fields a request may override.
_CONFIG_FIELDS = frozenset({
    "migration_tolerance", "switching_tolerance",
    "surplus_tolerance", "bisection_tolerance", "cache_policy",
})

_REQUEST_FIELDS = frozenset({
    "population", "fingerprint", "mechanism", "nus", "price", "detail",
    "config",
})
_POPULATION_FIELDS = frozenset({"count", "seed", "utility_model"})

#: Request-size guards: a grid or population far past the paper's scales is
#: a malformed request, not a workload.
MAX_GRID_POINTS = 4096
MAX_POPULATION_COUNT = 1_000_000
#: Largest per-provider payload (grid points x providers) of a ``detail``
#: request.  The aggregate series need O(G + n) memory at any admitted size,
#: but ``detail`` ships three ``(G, n)`` matrices; 2**22 cells still admits
#: the paper's 1000 CPs at the full 4096-point grid.
MAX_DETAIL_CELLS = 1 << 22

#: Resolved populations, keyed by spec and by fingerprint.  Warm
#: cross-request state like the solver caches; population construction is
#: solver-independent, so the key carries no tolerance axis.
_POPULATION_CACHE = LRUCache(maxsize=64, name="service_populations")


class RequestError(Exception):
    """A malformed request, mapped to a structured 4xx-style response."""

    def __init__(self, code: str, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status


@dataclass(frozen=True)
class SolveRequest:
    """A validated ``/solve`` request, ready for the scheduler."""

    population: Population
    mechanism_name: str
    mechanism: CommonCapAllocation
    nus: Tuple[float, ...]
    price: Optional[float]
    detail: bool
    config: SolverConfig


def _require_mapping(value: Any, label: str) -> Mapping[str, Any]:
    if isinstance(value, dict):  # what json.loads makes: skip the ABC check
        return value
    if not isinstance(value, Mapping):
        raise RequestError("bad_request", f"{label} must be a JSON object")
    return value


def _check_fields(payload: Mapping[str, Any], allowed: frozenset[str],
                  label: str) -> None:
    if payload.keys() <= allowed:
        return
    unknown = sorted(str(key) for key in payload if str(key) not in allowed)
    if unknown:
        raise RequestError(
            "unknown_field",
            f"unknown {label} field(s): {', '.join(unknown)}; "
            f"expected a subset of {{{', '.join(sorted(allowed))}}}")


def _parse_population_spec(spec: Mapping[str, Any]) -> Population:
    _check_fields(spec, _POPULATION_FIELDS, "population")
    count = spec.get("count", 1000)
    seed = spec.get("seed", DEFAULT_SEED)
    utility_model = spec.get("utility_model", "beta_correlated")
    if not isinstance(count, int) or isinstance(count, bool):
        raise RequestError("bad_population", "population.count must be an "
                           "integer")
    if count <= 0 or count > MAX_POPULATION_COUNT:
        raise RequestError(
            "bad_population",
            f"population.count must be in [1, {MAX_POPULATION_COUNT}], "
            f"got {count}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise RequestError("bad_population", "population.seed must be a "
                           "non-negative integer")
    if utility_model not in ("beta_correlated", "independent"):
        raise RequestError(
            "bad_population",
            "population.utility_model must be 'beta_correlated' or "
            f"'independent', got {utility_model!r}")
    key = ("spec", count, seed, utility_model)

    def build() -> Population:
        return paper_population(count=count, seed=seed,
                                utility_model=utility_model)

    population = _POPULATION_CACHE.get_or_compute(key, build)  # repro-lint: disable=RL001 — population construction is solver-independent; the key is the full spec, with no tolerance axis to alias
    assert isinstance(population, Population)
    # Index by fingerprint too, so follow-up requests can address the
    # population without re-sending the spec.
    _POPULATION_CACHE.put(("fingerprint", population.fingerprint().hex()),  # repro-lint: disable=RL001 — same solver-independent registry as above
                          population)
    return population


def _resolve_fingerprint(fingerprint: Any) -> Population:
    if not isinstance(fingerprint, str) or not fingerprint:
        raise RequestError("bad_fingerprint",
                           "fingerprint must be a non-empty hex string")
    population = _POPULATION_CACHE.get(("fingerprint", fingerprint.lower()))  # repro-lint: disable=RL001 — same solver-independent registry as above
    if population is None:
        raise RequestError(
            "unknown_fingerprint",
            f"no population with fingerprint {fingerprint!r} is resident on "
            "this server; send the population spec instead", status=404)
    assert isinstance(population, Population)
    return population


def _parse_nus(raw: Any) -> Tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise RequestError("bad_grid", "nus must be a non-empty JSON array "
                           "of per-capita capacities")
    if len(raw) > MAX_GRID_POINTS:
        raise RequestError("bad_grid", f"nus has {len(raw)} points; the "
                           f"server caps grids at {MAX_GRID_POINTS}")
    nus = []
    for value in raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError("bad_grid", "nus entries must be numbers")
        nu = float(value)
        if not math.isfinite(nu) or nu < 0.0:
            raise RequestError("bad_grid", "per-capita capacities must all "
                               "be finite and >= 0")
        nus.append(nu)
    return tuple(nus)


def _parse_config(raw: Any) -> SolverConfig:
    if raw is None:
        return resolve_config(None)
    payload = _require_mapping(raw, "config")
    _check_fields(payload, _CONFIG_FIELDS, "config")
    try:
        return replace(resolve_config(None), **payload)
    except ModelValidationError as error:
        raise RequestError("bad_config", str(error)) from error
    except TypeError as error:
        raise RequestError("bad_config", str(error)) from error


def parse_solve_request(payload: Any) -> SolveRequest:
    """Validate a decoded ``/solve`` JSON body into a :class:`SolveRequest`."""
    body = _require_mapping(payload, "request body")
    _check_fields(body, _REQUEST_FIELDS, "request")
    has_spec = "population" in body
    has_fingerprint = "fingerprint" in body
    if has_spec == has_fingerprint:
        raise RequestError(
            "bad_request",
            "exactly one of 'population' (a spec object) or 'fingerprint' "
            "(of a resident population) is required")
    if has_spec:
        population = _parse_population_spec(
            _require_mapping(body["population"], "population"))
    else:
        population = _resolve_fingerprint(body["fingerprint"])
    mechanism_name = body.get("mechanism", "maxmin")
    if mechanism_name not in _MECHANISMS:
        raise RequestError(
            "bad_mechanism",
            f"unknown mechanism {mechanism_name!r}; expected one of "
            f"{{{', '.join(MECHANISM_NAMES)}}}")
    if "nus" not in body:
        raise RequestError("bad_grid", "the request must carry a 'nus' grid")
    nus = _parse_nus(body["nus"])
    price_raw = body.get("price")
    price: Optional[float] = None
    if price_raw is not None:
        if isinstance(price_raw, bool) or not isinstance(price_raw,
                                                         (int, float)):
            raise RequestError("bad_price", "price must be a number")
        price = float(price_raw)
        if not math.isfinite(price) or price < 0.0:
            raise RequestError("bad_price",
                               "price must be finite and >= 0")
    detail = body.get("detail", False)
    if not isinstance(detail, bool):
        raise RequestError("bad_request", "detail must be a boolean")
    cells = len(nus) * len(population)
    if detail and cells > MAX_DETAIL_CELLS:
        raise RequestError(
            "grid_too_large",
            f"a detail response for {len(nus)} grid points x "
            f"{len(population)} providers has {cells} cells; the server "
            f"caps detail responses at {MAX_DETAIL_CELLS} cells (drop "
            "'detail' for the aggregate series, or split the grid)",
            status=413)
    config = _parse_config(body.get("config"))
    return SolveRequest(population=population, mechanism_name=mechanism_name,
                        mechanism=_MECHANISMS[mechanism_name], nus=nus,
                        price=price, detail=detail, config=config)


def build_solve_response(request: SolveRequest, batch: BatchRateEquilibrium,
                         *, coalesced: bool, batch_size: int
                         ) -> Dict[str, Any]:
    """The JSON payload served for ``request`` from its solved ``batch``.

    The series mirror :class:`~repro.simulation.batch.BatchRateEquilibrium`
    exactly (grid axis first) and are bit-identical to a direct
    ``solve_rate_equilibria`` call for the same request.  The default
    ``series`` block carries the per-grid-point aggregate curves;
    ``detail`` requests additionally get the per-provider ``(G, n)`` series
    under ``providers``, built row by row from the caps like the streamed
    body, so no ``(G, n)`` array is memoised on a batch the scheduler may
    retain.  The solver's full cache key is echoed so clients can
    attribute every number.
    """
    response = _response_base(request, batch, coalesced=coalesced,
                              batch_size=batch_size)
    if request.detail:
        response["providers"] = {
            name: [_provider_row(batch, name, index)
                   for index in range(len(batch.nus))]
            for name in _PROVIDER_MATRICES
        }
    return response


def _response_base(request: SolveRequest, batch: BatchRateEquilibrium, *,
                   coalesced: bool, batch_size: int) -> Dict[str, Any]:
    """The response payload without the per-provider ``providers`` block."""
    series: Dict[str, Any] = {
        "aggregate_rates": batch.aggregate_rates.tolist(),
        "utilizations": batch.utilizations.tolist(),
        "consumer_surpluses": batch.consumer_surpluses().tolist(),
    }
    if request.price is not None:
        series["premium_revenues"] = (
            batch.premium_revenues(request.price).tolist())
    return {
        "schema": 1,
        "fingerprint": request.population.fingerprint().hex(),
        "mechanism": request.mechanism_name,
        "nus": list(batch.nus.tolist()),
        "series": series,
        "solver": {"cache_key": list(request.config.cache_key())},
        "served": {"coalesced": coalesced, "batch_size": batch_size},
    }


def _provider_row(batch: BatchRateEquilibrium, name: str,
                  index: int) -> Any:
    """One grid point's per-provider series, built from its cap.

    The row comes from :meth:`BatchRateEquilibrium.provider_row`, the
    function the lazy ``(G, n)`` matrices are stacked from, so neither the
    streamed nor the buffered body builds a ``(G, n)`` array, and both
    carry the same bytes.
    """
    thetas, demands = batch.provider_row(index)
    if name == "thetas":
        return thetas.tolist()
    if name == "demands":
        return demands.tolist()
    # Same association order as the (G, n) property — alphas * (d * theta),
    # via the rhos intermediate.
    return (batch.population.alphas * (demands * thetas)).tolist()


#: ``providers`` sub-keys in canonical (sorted) order — the streaming
#: serializer emits keys sorted, exactly like ``json.dumps(sort_keys=True)``.
_PROVIDER_MATRICES: Tuple[str, ...] = ("demands", "per_capita_rates",
                                       "thetas")


def solve_response_chunks(request: SolveRequest, batch: BatchRateEquilibrium,
                          *, coalesced: bool, batch_size: int
                          ) -> Iterator[bytes]:
    """The ``detail: true`` response as incrementally-serialised fragments.

    Yields UTF-8 fragments whose concatenation is **byte-identical** to
    ``json.dumps(build_solve_response(...), sort_keys=True)`` for the same
    request — the streamed and buffered wire bodies are the same JSON
    document.  The per-provider series are built from the caps and
    serialised one grid row at a time, so no ``(G, n)`` array exists and
    the peak resident footprint of a response is one row's Python list plus
    its JSON string;
    the server writes each fragment as one HTTP chunk and drains the
    transport between fragments (bounded buffering at the socket too).
    """
    base = _response_base(request, batch, coalesced=coalesced,
                          batch_size=batch_size)
    # Canonical key order splits around "providers": fingerprint, mechanism,
    # nus < providers < schema, series, served, solver.
    head_keys = ("fingerprint", "mechanism", "nus")
    tail_keys = ("schema", "series", "served", "solver")
    head = {key: base[key] for key in head_keys}
    tail = {key: base[key] for key in tail_keys}
    # json.dumps(head) == '{...}'; strip the closing brace and splice the
    # streamed providers object in at its sorted position.
    yield (json.dumps(head, sort_keys=True)[:-1]
           + ', "providers": {').encode("utf-8")
    grid_points = len(batch.nus)
    for matrix_index, name in enumerate(_PROVIDER_MATRICES):
        prefix = "" if matrix_index == 0 else ", "
        yield f'{prefix}"{name}": ['.encode("utf-8")
        for row_index in range(grid_points):
            row = json.dumps(_provider_row(batch, name, row_index),
                             sort_keys=True)
            yield (row if row_index == 0 else ", " + row).encode("utf-8")
        yield b"]"
    yield ("}, " + json.dumps(tail, sort_keys=True)[1:]).encode("utf-8")


def error_payload(code: str, message: str) -> Dict[str, Any]:
    """The canonical error body (also used for 404/405/500 responses)."""
    return {"schema": 1, "error": {"code": code, "message": message}}

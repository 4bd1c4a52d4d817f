"""Equilibrium-as-a-service: the long-lived asyncio solver server.

The serving layer turns the batch equilibrium engine into a network
service with cross-request performance structure:

* :mod:`repro.service.protocol` — the strict JSON request/response schema
  (documented in ARTIFACTS.md) and the population registry.
* :mod:`repro.service.scheduler` — micro-batching (union-grid fusion of
  concurrent compatible requests) and coalescing of identical requests,
  in flight or already answered; solves run on executor threads against the shared, lock-guarded
  LRU caches, which become warm cross-request state.
* :mod:`repro.service.server` — the minimal stdlib HTTP/1.1 front end
  (``POST /solve``, ``GET /stats``, ``GET /healthz``) behind
  ``repro-netneutrality serve``.
* :mod:`repro.service.client` — a matching asyncio client used by the
  tests and ``scripts/service_loadgen.py``.
"""

from repro.service.client import ServiceClient
from repro.service.protocol import (
    MECHANISM_NAMES,
    RequestError,
    SolveRequest,
    build_solve_response,
    error_payload,
    parse_solve_request,
)
from repro.service.scheduler import DEFAULT_WINDOW_SECONDS, MicroBatchScheduler
from repro.service.server import EquilibriumServer

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "EquilibriumServer",
    "MECHANISM_NAMES",
    "MicroBatchScheduler",
    "RequestError",
    "ServiceClient",
    "SolveRequest",
    "build_solve_response",
    "error_payload",
    "parse_solve_request",
]

"""Cross-request micro-batching and in-flight coalescing.

The serving hot path: requests arriving within a short window that share a
``(population fingerprint, mechanism key, config.cache_key())`` batch key
are fused into **one** ``warm_equilibrium_cache`` call over the union of
their nu-grids and fanned back out, so k concurrent what-if queries against
one population cost one grid cap solve (and leave the shared class-cap
cache warm for every later request: only the caps are cached, one float
per grid point, since every served series is computed from them).
Identical requests — same batch key *and* same grid — are coalesced: one
still in flight shares its awaitable future, so a thundering herd of equal
queries costs one solve, and one already answered is served at once from a
small per-scheduler LRU of completed outcomes (bounded by
``RETAINED_POINTS`` grid points in total).  A retained hit skips the
window and the executor and returns the very batch that answered the first
request, with its memoised aggregates.  Only successful outcomes are
retained, so a failed solve is retried by the next request; a retained
batch holds its grid and caps, ``O(G)``, and references a population the
``class_caps`` cache keys already hold.

Solves run on a small thread-pool executor, never on the event loop: the
loop keeps reading sockets (and filling the next batch window) while a
solve runs.  That is why :class:`repro.cache.LRUCache` is lock-guarded
— the executor threads and any concurrent batches share the caches.

Scheduling uses only the event loop's monotonic clock
(``loop.call_later``); wall-clock time never enters the scheduler or any
payload derived from it (rule RL003 covers this package).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.backends.config import SolverConfig, resolve_config
from repro.network.allocation import RateAllocationMechanism
from repro.network.equilibrium import mechanism_cache_key
from repro.network.provider import Population
from repro.simulation.batch import (
    BatchRateEquilibrium,
    solve_rate_equilibria,
    warm_equilibrium_cache,
)

__all__ = ["MicroBatchScheduler", "DEFAULT_WINDOW_SECONDS",
           "RETAINED_POINTS"]

#: Default micro-batch window: long enough to fuse a concurrent burst,
#: short enough to be invisible next to a cap solve.
DEFAULT_WINDOW_SECONDS = 0.002

#: Total grid points of completed outcomes a scheduler keeps for repeated
#: grids, least recently used evicted first.  A point costs ~75 bytes (its
#: key float, grid, cap and memoised aggregates): ~5 MB when full.
RETAINED_POINTS = 1 << 16

_BatchKey = Tuple[Hashable, ...]
_SolveKey = Tuple[_BatchKey, Tuple[float, ...]]
#: What a request's future resolves to: its own grid-shaped batch plus the
#: size of the fused batch it rode in (1 = solved alone).
_Outcome = Tuple[BatchRateEquilibrium, int]


@dataclass
class _PendingEntry:
    nus: Tuple[float, ...]
    future: "asyncio.Future[_Outcome]"


@dataclass
class _PendingBatch:
    population: Population
    mechanism: Optional[RateAllocationMechanism]
    config: SolverConfig
    entries: List[_PendingEntry] = field(default_factory=list)


class MicroBatchScheduler:
    """Fuses and coalesces concurrent equilibrium solves (see module doc).

    ``naive=True`` disables every serving-layer optimisation — no window,
    no fusion, no coalescing, no retained outcomes, no warm-cache reuse:
    each request runs its own
    ``solve_rate_equilibria`` on the executor.  The benchmark suite uses it
    as the one-solve-per-request baseline.
    """

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS, *,
                 naive: bool = False, max_solver_threads: int = 1) -> None:
        if window_seconds < 0.0:
            raise ValueError("window_seconds must be >= 0")
        if max_solver_threads < 1:
            raise ValueError("max_solver_threads must be >= 1")
        self.window_seconds = window_seconds
        self.naive = naive
        self.max_solver_threads = max_solver_threads
        self._executor = ThreadPoolExecutor(
            max_workers=max_solver_threads,
            thread_name_prefix="repro-solver")
        self._pending: Dict[_BatchKey, _PendingBatch] = {}
        self._timers: Dict[_BatchKey, asyncio.TimerHandle] = {}
        self._inflight: Dict[_SolveKey, "asyncio.Future[_Outcome]"] = {}
        self._retained: "OrderedDict[_SolveKey, _Outcome]" = OrderedDict()
        self.retained_points = 0
        self._tasks: Set["asyncio.Task[None]"] = set()
        # Counters (all monotonic; exposed through /stats).
        self.requests = 0
        self.requested_points = 0
        self.coalesced = 0
        self.batches = 0
        self.batched_requests = 0
        self.fused_requests = 0
        self.union_points = 0
        self.engine_solves = 0
        self.errors = 0
        self.retained_hits = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    async def solve(self, population: Population, nus: Tuple[float, ...],
                    mechanism: Optional[RateAllocationMechanism],
                    config: Optional[SolverConfig] = None
                    ) -> Tuple[BatchRateEquilibrium, int, bool]:
        """One request's equilibria: ``(batch, fused_batch_size, coalesced)``.

        The returned batch covers exactly ``nus`` in request order and is
        bit-identical (reference backend) to a direct
        ``solve_rate_equilibria(population, nus, mechanism, config)`` call.
        """
        config = resolve_config(config)
        nus = tuple(float(nu) for nu in nus)
        self.requests += 1
        self.requested_points += len(nus)
        if self.naive:
            batch, size = await self._solve_naive(population, nus, mechanism,
                                                  config)
            return batch, size, False
        batch_key: _BatchKey = (population.fingerprint(),
                                mechanism_cache_key(mechanism),
                                config.cache_key())
        solve_key: _SolveKey = (batch_key, nus)
        existing = self._inflight.get(solve_key)
        if existing is not None:
            self.coalesced += 1
            batch, size = await _wait(existing)
            return batch, size, True
        retained = self._retained.get(solve_key)
        if retained is not None:
            self._retained.move_to_end(solve_key)
            self.coalesced += 1
            self.retained_hits += 1
            batch, size = retained
            return batch, size, True
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[_Outcome]" = loop.create_future()
        self._inflight[solve_key] = future
        future.add_done_callback(partial(self._settle, solve_key))
        pending = self._pending.get(batch_key)
        if pending is None:
            pending = _PendingBatch(population=population,
                                    mechanism=mechanism, config=config)
            self._pending[batch_key] = pending
            self._timers[batch_key] = loop.call_later(
                self.window_seconds, self._start_flush, batch_key)
        pending.entries.append(_PendingEntry(nus=nus, future=future))
        batch, size = await _wait(future)
        return batch, size, False

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters for the ``/stats`` endpoint."""
        coalescable = self.requests if self.requests else 1
        return {
            "window_seconds": self.window_seconds,
            "naive": self.naive,
            "solver_threads": self.max_solver_threads,
            "requests": self.requests,
            "requested_points": self.requested_points,
            "coalesced": self.coalesced,
            "coalesce_rate": self.coalesced / coalescable,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "fused_requests": self.fused_requests,
            "union_points": self.union_points,
            "engine_solves": self.engine_solves,
            "errors": self.errors,
            "retained_hits": self.retained_hits,
            "retained_points": self.retained_points,
        }

    async def drain(self) -> None:
        """Flush every pending batch now and wait for in-flight solves."""
        for batch_key in list(self._pending):
            timer = self._timers.pop(batch_key, None)
            if timer is not None:
                timer.cancel()
            self._start_flush(batch_key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def aclose(self) -> None:
        """Drain outstanding work and release the executor threads."""
        await self.drain()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    async def _solve_naive(self, population: Population,
                           nus: Tuple[float, ...],
                           mechanism: Optional[RateAllocationMechanism],
                           config: SolverConfig) -> _Outcome:
        loop = asyncio.get_running_loop()
        self.engine_solves += 1
        try:
            batch = await loop.run_in_executor(
                self._executor,
                partial(solve_rate_equilibria, population, nus, mechanism,
                        config))
        except Exception:
            self.errors += 1
            raise
        return batch, 1

    def _settle(self, solve_key: _SolveKey,
                future: "asyncio.Future[_Outcome]") -> None:
        """Move a completed solve from in-flight to retained on success."""
        self._inflight.pop(solve_key, None)
        if future.cancelled() or future.exception() is not None:
            return
        batch, size = future.result()
        points = len(solve_key[1])
        if batch.fixed_point_rows is not None \
                or not 0 < points <= RETAINED_POINTS:
            return  # (G, n) rows, an empty grid, or over the whole budget
        self._retained[solve_key] = (batch, size)
        self.retained_points += points
        while self.retained_points > RETAINED_POINTS:
            evicted_key, _ = self._retained.popitem(last=False)
            self.retained_points -= len(evicted_key[1])

    def _start_flush(self, batch_key: _BatchKey) -> None:
        self._timers.pop(batch_key, None)
        if batch_key not in self._pending:
            return
        task = asyncio.ensure_future(self._flush(batch_key))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _flush(self, batch_key: _BatchKey) -> None:
        pending = self._pending.pop(batch_key, None)
        if pending is None or not pending.entries:
            return
        entries = pending.entries
        self.batches += 1
        self.batched_requests += len(entries)
        if len(entries) > 1:
            self.fused_requests += len(entries)
        union = sorted({nu for entry in entries for nu in entry.nus})
        self.union_points += len(union)
        self.engine_solves += 1
        loop = asyncio.get_running_loop()
        try:
            solved = await loop.run_in_executor(
                self._executor,
                partial(warm_equilibrium_cache, pending.population, union,
                        pending.mechanism, config=pending.config,
                        rows=False))
        except Exception as error:
            self.errors += 1
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        # Each request gets its own rows of the union, in its grid order:
        # ``take`` copies the grid and caps, and every per-request series is
        # computed from those caps.  They are bit-identical to a direct solve
        # of the same grid because the cap solvers treat every grid point
        # independently.
        index_of = {nu: index for index, nu in enumerate(union)}
        for entry in entries:
            if entry.future.done():  # pragma: no cover - cancelled client
                continue
            entry.future.set_result(
                (solved.take([index_of[nu] for nu in entry.nus]),
                 len(entries)))


async def _wait(future: "asyncio.Future[_Outcome]") -> _Outcome:
    """Await a shared future without cancelling it if this waiter dies."""
    return await asyncio.shield(future)

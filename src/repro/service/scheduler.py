"""Cross-request micro-batching and in-flight coalescing.

The serving hot path: requests arriving within one batch that share a
``(population fingerprint, mechanism key, config.cache_key())`` batch key
are fused into **one** ``warm_equilibrium_cache`` call over the union of
their nu-grids and fanned back out, so k concurrent what-if queries against
one population solve each union point once, through the ``class_caps`` cache
(which stays warm for every later request: only the caps are cached, one
float per grid point, since every served series is computed from them).
Identical requests — same batch key *and* same grid — are coalesced: one
still in flight shares its awaitable future, so a thundering herd of equal
queries costs one solve, and one already answered is served at once from a
small per-scheduler LRU of completed outcomes (bounded by
``RETAINED_POINTS`` grid points in total).  A retained hit skips the
window and the solve — :meth:`MicroBatchScheduler.retained` finds it
without awaiting, so the server answers it at once — and returns the very
batch that answered the first request, with its memoised aggregates and
the body the server encoded for the requests coalesced onto it.  Only
successful outcomes are retained, so a failed solve is retried by the next
request; a retained batch holds its grid and caps, ``O(G)``, and
references a population the ``class_caps`` cache keys already hold.

Solves run on the event loop itself, cut into slices of at most
``SOLVE_SLICE_CELLS`` grid points x CPs (always at least one point), one
``warm_equilibrium_cache`` call each, with one loop turn between slices:
a large union never holds the loop for more than one slice, so sockets are
read, health checks and retained hits answered, and the next batch window
filled while it solves.  A thread hop would buy no parallelism under the
GIL, and the loop computes every response's aggregates itself.

Batches close work-conservingly, the rule Nagle's algorithm (RFC 896)
uses for small TCP segments: a batch is sent as soon as nothing else could
join it.  The server tells the scheduler how many requests it holds
(:meth:`MicroBatchScheduler.admit` once a request is read,
:meth:`~MicroBatchScheduler.release` once the response is written), and a
request counts as *waiting* while it awaits a scheduler future — its own
pending entry or a coalesced in-flight solve.  When every admitted request
is waiting, every pending batch flushes at once (``idle_flushes``);
otherwise the window is the longest a request waits for companions
(``window_flushes``).  A caller that admits nothing — the scheduler used
without a server — gets the window alone.

Scheduling uses only the event loop's monotonic clock
(``loop.call_later``); wall-clock time never enters the scheduler or any
payload derived from it (rule RL003 covers this package).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.config import SolverConfig, resolve_config
from repro.network.allocation import CommonCapAllocation
from repro.network.equilibrium import mechanism_cache_key
from repro.network.provider import Population
from repro.simulation.batch import (
    BatchRateEquilibrium,
    solve_rate_equilibria,
    warm_equilibrium_cache,
)

__all__ = ["MicroBatchScheduler", "DEFAULT_WINDOW_SECONDS",
           "RETAINED_POINTS", "SOLVE_SLICE_CELLS"]

#: Default micro-batch window, the longest a request waits for companions:
#: long enough to fuse a concurrent burst, short enough to be invisible
#: next to a cap solve.
DEFAULT_WINDOW_SECONDS = 0.002

#: Total grid points of completed outcomes a scheduler keeps for repeated
#: grids, least recently used evicted first.  A point costs ~75 bytes (its
#: key float, grid, cap and memoised aggregates): ~5 MB when full.
RETAINED_POINTS = 1 << 16

#: Most grid points x CPs one solve slice covers (at least one point per
#: slice): the work a fused batch does between two turns of the event loop.
SOLVE_SLICE_CELLS = 1 << 18

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
    mechanism: Optional[CommonCapAllocation]
    config: SolverConfig
    timer: asyncio.TimerHandle
    entries: List[_PendingEntry] = field(default_factory=list)


def _keys(population: Population, nus: Tuple[float, ...],
          mechanism: Optional[CommonCapAllocation],
          config: SolverConfig) -> Tuple[_BatchKey, _SolveKey]:
    """The batch key requests fuse on, and the solve key they coalesce on."""
    batch_key: _BatchKey = (population.fingerprint(),
                            mechanism_cache_key(mechanism),
                            config.cache_key())
    return batch_key, (batch_key, nus)


class MicroBatchScheduler:
    """Fuses and coalesces concurrent equilibrium solves (see module doc).

    ``naive=True`` disables every serving-layer optimisation — no window,
    no fusion, no coalescing, no retained outcomes, no warm-cache reuse:
    each request runs its own ``solve_rate_equilibria``, unsliced.  The
    benchmark suite uses it as the one-solve-per-request baseline.
    """

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS, *,
                 naive: bool = False) -> None:
        if window_seconds < 0.0:
            raise ValueError("window_seconds must be >= 0")
        self.window_seconds = window_seconds
        self.naive = naive
        self._pending: Dict[_BatchKey, _PendingBatch] = {}
        # Requests the server holds, and those of them awaiting a future.
        self._admitted = 0
        self._waiting = 0
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
        self.idle_flushes = 0
        self.window_flushes = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    async def solve(self, population: Population, nus: Tuple[float, ...],
                    mechanism: Optional[CommonCapAllocation],
                    config: Optional[SolverConfig] = None
                    ) -> Tuple[BatchRateEquilibrium, int, bool]:
        """One request's equilibria: ``(batch, fused_batch_size, coalesced)``.

        The returned batch covers exactly ``nus`` in request order and is
        bit-identical to a direct
        ``solve_rate_equilibria(population, nus, mechanism, config)`` call.
        """
        hit = self.retained(population, nus, mechanism, config)
        if hit is not None:
            return hit
        config = resolve_config(config)
        nus = tuple(map(float, nus))
        self.requests += 1
        self.requested_points += len(nus)
        if self.naive:
            self.engine_solves += 1
            try:
                batch = solve_rate_equilibria(population, nus, mechanism,
                                              config)
            except Exception:
                self.errors += 1
                raise
            return batch, 1, False
        batch_key, solve_key = _keys(population, nus, mechanism, config)
        existing = self._inflight.get(solve_key)
        if existing is not None:
            self.coalesced += 1
            batch, size = await self._wait(existing)
            return batch, size, True
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[_Outcome]" = loop.create_future()
        self._inflight[solve_key] = future
        future.add_done_callback(partial(self._settle, solve_key))
        pending = self._pending.get(batch_key)
        if pending is None:
            pending = _PendingBatch(
                population=population, mechanism=mechanism, config=config,
                timer=loop.call_later(self.window_seconds,
                                      self._window_closed, batch_key))
            self._pending[batch_key] = pending
        pending.entries.append(_PendingEntry(nus=nus, future=future))
        batch, size = await self._wait(future)
        return batch, size, False

    def retained(self, population: Population, nus: Tuple[float, ...],
                 mechanism: Optional[CommonCapAllocation],
                 config: Optional[SolverConfig] = None
                 ) -> Optional[Tuple[BatchRateEquilibrium, int, bool]]:
        """The retained outcome of a grid answered before, or ``None``.

        The synchronous first step of :meth:`solve`: a hit is counted as a
        coalesced request and returned as :meth:`solve` returns it, so the
        server answers it without awaiting anything; a miss counts nothing.
        """
        if self.naive:
            return None
        nus = tuple(map(float, nus))
        _, solve_key = _keys(population, nus, mechanism,
                             resolve_config(config))
        retained = self._retained.get(solve_key)
        if retained is None:
            return None
        self._retained.move_to_end(solve_key)
        self.requests += 1
        self.requested_points += len(nus)
        self.coalesced += 1
        self.retained_hits += 1
        batch, size = retained
        return batch, size, True

    def admit(self) -> None:
        """Count a request the server now holds (its head and body are read).

        Pair every call with one :meth:`release`.
        """
        self._admitted += 1

    def release(self) -> None:
        """Stop counting a request (its response is written, or it failed)."""
        self._admitted -= 1
        self._flush_if_idle()

    @property
    def admitted(self) -> int:
        """Requests admitted and not yet released."""
        return self._admitted

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters for the ``/stats`` endpoint."""
        coalescable = self.requests if self.requests else 1
        return {
            "window_seconds": self.window_seconds,
            "naive": self.naive,
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
            "idle_flushes": self.idle_flushes,
            "window_flushes": self.window_flushes,
        }

    async def drain(self) -> None:
        """Flush every pending batch now and wait for in-flight solves."""
        for batch_key in list(self._pending):
            self._start_flush(batch_key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _settle(self, solve_key: _SolveKey,
                future: "asyncio.Future[_Outcome]") -> None:
        """Move a completed solve from in-flight to retained on success."""
        self._inflight.pop(solve_key, None)
        if future.cancelled() or future.exception() is not None:
            return
        batch, size = future.result()
        points = len(solve_key[1])
        if not 0 < points <= RETAINED_POINTS:
            return  # an empty grid, or over the whole budget
        self._retained[solve_key] = (batch, size)
        self.retained_points += points
        while self.retained_points > RETAINED_POINTS:
            evicted_key, _ = self._retained.popitem(last=False)
            self.retained_points -= len(evicted_key[1])

    async def _wait(self, future: "asyncio.Future[_Outcome]") -> _Outcome:
        """Await a shared future as one waiting request.

        Shielded, so the future survives this waiter's cancellation.  The
        idle check runs one loop turn later, so requests whose bytes arrived
        together are all admitted and waiting before it flushes.
        """
        self._waiting += 1
        try:
            asyncio.get_running_loop().call_soon(self._flush_if_idle)
            return await asyncio.shield(future)
        finally:
            self._waiting -= 1

    def _flush_if_idle(self) -> None:
        """Flush every pending batch when no admitted request can join one."""
        if 0 < self._admitted <= self._waiting:
            for batch_key in list(self._pending):
                self.idle_flushes += 1
                self._start_flush(batch_key)

    def _window_closed(self, batch_key: _BatchKey) -> None:
        self.window_flushes += 1
        self._start_flush(batch_key)

    def _start_flush(self, batch_key: _BatchKey) -> None:
        # The batch leaves ``_pending`` here, before its task runs: a key
        # is flushed once, and a request arriving meanwhile opens a new
        # batch instead of joining (or re-flushing) this one.
        pending = self._pending.pop(batch_key)
        pending.timer.cancel()
        task = asyncio.ensure_future(self._flush(pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _flush(self, pending: _PendingBatch) -> None:
        entries = pending.entries
        self.batches += 1
        self.batched_requests += len(entries)
        if len(entries) > 1:
            self.fused_requests += len(entries)
        union = sorted({nu for entry in entries for nu in entry.nus})
        self.union_points += len(union)
        self.engine_solves += 1
        step = max(1, SOLVE_SLICE_CELLS // max(1, len(pending.population)))
        try:
            slices: List[BatchRateEquilibrium] = []
            # An empty union (library callers only) is one empty slice.
            for start in range(0, max(1, len(union)), step):
                if slices:
                    await asyncio.sleep(0)  # let the loop serve others
                slices.append(warm_equilibrium_cache(
                    pending.population, union[start:start + step],
                    pending.mechanism, config=pending.config))
        except Exception as error:
            self.errors += 1
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        solved = BatchRateEquilibrium(
            population=pending.population,
            nus=np.concatenate([part.nus for part in slices]),
            common_caps=np.concatenate([part.common_caps
                                        for part in slices]),
            mechanism=slices[0].mechanism)
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

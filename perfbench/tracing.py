"""Outside-in tracing: wrap each layer's public functions from the outside.

Nothing under ``src/`` knows it is being traced.  :func:`install` replaces
each traced name where its caller looks it up (a class attribute, or a
module global such as ``repro.service.server.parse_solve_request``) with a
wrapper that records into a :class:`Tracer`.

A span's *self* time is its duration minus the time covered by the spans
nested inside it on the same thread, so the self times of all spans add up
to the time spent inside the outermost traced calls.  Each thread keeps its
own span stack and totals (the service solves on a worker thread while the
event loop parses and serialises), and everything stays in memory until
:meth:`Tracer.report` is called at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Observer = Callable[[Dict[str, float], tuple, dict, Any], None]


class _ThreadTotals:
    """Span stack and running totals of one thread."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory span and counter store."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._lock = threading.Lock()
        #: ``(start, end)`` of every span whose name was registered with
        #: ``keep=True`` (the service's per-request and per-batch spans).
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._counters: Dict[str, "itertools.count[int]"] = {}

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._lock:
                self._threads.append(totals)
        return totals

    def add(self, counter: str, value: float = 1.0) -> None:
        """Add ``value`` to a free-form counter."""
        self._totals().counts[counter] += value

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def span(self, name: str, function: Callable[..., Any], *,
             observe: Optional[Observer] = None,
             keep: bool = False) -> Callable[..., Any]:
        """``function`` recorded as a nested span called ``name``."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            totals = tracer._totals()
            frame = [0.0]
            totals.stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                totals.stack.pop()
                if totals.stack:
                    totals.stack[-1][0] += duration
                totals.self_s[name] += duration - frame[0]
                totals.total_s[name] += duration
                totals.calls[name] += 1
                if keep:
                    tracer.intervals[name].append((start, end))
            if observe is not None:
                observe(totals.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str,
                function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with its calls counted but not timed.

        For the hottest calls (half a million per FIG8): ``next`` on an
        ``itertools.count`` is one C call and never loses an increment.
        """
        calls = self._counters.setdefault(name, itertools.count())

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            next(calls)
            return function(*args, **kwargs)

        return wrapper

    def async_interval(self, name: str,
                       function: Callable[..., Any]) -> Callable[..., Any]:
        """A coroutine function recorded as a flat ``(start, end)`` interval.

        Concurrent requests interleave on one event loop, so their spans
        cannot nest on a stack; they are kept as intervals instead.
        """
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                tracer.intervals[name].append((start, perf_counter()))

        return wrapper

    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, Any]:
        """Totals merged over every thread (JSON-serialisable)."""
        merged: Dict[str, Dict[str, float]] = {
            "self_s": defaultdict(float), "total_s": defaultdict(float),
            "calls": defaultdict(float), "counts": defaultdict(float)}
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for key, source in (("self_s", totals.self_s),
                                ("total_s", totals.total_s),
                                ("calls", totals.calls),
                                ("counts", totals.counts)):
                for name, value in source.items():
                    merged[key][name] += value
        for name, calls in self._counters.items():
            # ``repr`` shows the next value ("count(5)") without using it.
            merged["calls"][name] += int(repr(calls)[len("count("):-1])
        report: Dict[str, Any] = {key: dict(value)
                                  for key, value in merged.items()}
        report["intervals"] = {name: list(spans)
                               for name, spans in self.intervals.items()}
        return report


def _patch(owner: Any, attribute: str,
           make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    """Replace ``owner.attribute`` (function, method or property) in place."""
    current = owner.__dict__[attribute] if isinstance(owner, type) else \
        getattr(owner, attribute)
    if isinstance(current, property):
        setattr(owner, attribute, property(make(current.fget)))
    elif isinstance(current, classmethod):
        setattr(owner, attribute, classmethod(make(current.__func__)))
    else:
        setattr(owner, attribute, make(current))


# ---------------------------------------------------------------------- #
# Observers: counts read off arguments and results
# ---------------------------------------------------------------------- #
def _grid_points(counts: Dict[str, float], args: tuple, kwargs: dict,
                 result: Any) -> None:
    counts["batch.grid_points"] += len(result.nus)


def _solve_caps_points(counts: Dict[str, float], args: tuple, kwargs: dict,
                       result: Any) -> None:
    counts["equilibrium.solve_caps_points"] += len(result)


def _split_steps(counts: Dict[str, float], args: tuple, kwargs: dict,
                 result: Any) -> None:
    counts["migration.bisection_steps"] += result.iterations


def _outcome_observer() -> Observer:
    """Sum iterations over *distinct* outcomes (cache hits return the same
    object, whose iterations were already counted)."""
    seen: Dict[int, Any] = {}

    def observe(counts: Dict[str, float], args: tuple, kwargs: dict,
                result: Any) -> None:
        if id(result) in seen:
            return
        seen[id(result)] = result  # keeps the id from being reused
        counts["cp_game.iterations"] += result.iterations
        counts["cp_game.unconverged"] += 0 if result.converged else 1

    return observe


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap every traced layer boundary.  ``service`` adds the server's."""
    from repro.core import cp_game, duopoly, migration
    from repro.network import equilibrium, provider
    from repro.simulation import batch

    profile = equilibrium.ExponentialMaxMinProfile
    span = tracer.span

    _patch(provider.Population, "subset",
           lambda f: span("provider.subset", f))
    _patch(profile, "solve_cap", lambda f: span("equilibrium.solve_cap", f))
    _patch(profile, "carried_scalar",
           lambda f: tracer.counter("equilibrium.carried_scalar", f))
    _patch(profile, "carried",
           lambda f: tracer.counter("equilibrium.carried_grid", f))
    _patch(profile, "__init__",
           lambda f: span("equilibrium.profile_build", f))
    _patch(profile, "from_sorted",
           lambda f: span("equilibrium.profile_build", f))

    def multi_target_only(function: Callable[..., Any]) -> Callable[..., Any]:
        # A one-point grid takes the scalar fast path (counted as a
        # ``solve_cap`` call); only real multi-target solves are spans here.
        traced = span("equilibrium.solve_caps", function,
                      observe=_solve_caps_points)

        @functools.wraps(function)
        def wrapper(self: Any, nus: Any, *args: Any, **kwargs: Any) -> Any:
            if getattr(nus, "ndim", 1) == 1 and len(nus) == 1:
                return function(self, nus, *args, **kwargs)
            return traced(self, nus, *args, **kwargs)

        return wrapper

    _patch(equilibrium.CommonCapProfile, "solve_caps", multi_target_only)

    _patch(cp_game.CPPartitionGame, "competitive_equilibrium",
           lambda f: span("cp_game.equilibrium", f,
                          observe=_outcome_observer()))
    _patch(duopoly, "solve_market_split",
           lambda f: span("migration.split", f, observe=_split_steps))
    _patch(migration, "isp_outcome_at_share",
           lambda f: span("migration.share_probe", f))
    _patch(duopoly.DuopolyGame, "capacity_sweep",
           lambda f: span("duopoly.capacity_sweep", f))

    _patch(batch, "solve_rate_equilibria",
           lambda f: span("batch.solve", f, observe=_grid_points))
    _patch(batch, "warm_equilibrium_cache", lambda f: span("batch.warm", f))
    for name in ("consumer_surpluses", "premium_revenues", "aggregate_rates",
                 "utilizations"):
        _patch(batch.BatchRateEquilibrium, name,
               lambda f: span("batch.aggregates", f))

    if service:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    from repro.service import protocol, scheduler, server
    from repro.simulation import batch

    span = tracer.span
    _patch(protocol, "paper_population",
           lambda f: span("populations.build", f))
    _patch(server, "parse_solve_request",
           lambda f: span("protocol.parse", f))
    _patch(server, "build_solve_response",
           lambda f: span("protocol.serialize", f))
    # The scheduler imported these names at module load; rebind them to the
    # traced batch-layer versions.  The engine span wraps the batch span.
    scheduler.solve_rate_equilibria = batch.solve_rate_equilibria
    scheduler.warm_equilibrium_cache = span(
        "scheduler.engine", batch.warm_equilibrium_cache, keep=True)
    _patch(scheduler.MicroBatchScheduler, "solve",
           lambda f: tracer.async_interval("scheduler.solve", f))

    # The server decodes request bodies and encodes response bodies through
    # its module-level ``json`` name.
    def dumps(payload: Any, **kwargs: Any) -> str:
        text = json.dumps(payload, **kwargs)
        if isinstance(payload, dict) and "series" in payload:
            tracer.add("protocol.response_bytes", len(text))
            tracer.add("protocol.responses")
        return text

    server.json = types.SimpleNamespace(
        loads=span("protocol.parse", json.loads),
        dumps=span("protocol.serialize", dumps),
        JSONDecodeError=json.JSONDecodeError)

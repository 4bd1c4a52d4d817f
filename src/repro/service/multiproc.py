"""Multi-process equilibrium serving: shared-nothing workers on one port.

``repro-netneutrality serve --workers N`` forks ``N`` worker processes that
all accept on the same TCP port.  Each worker is a complete single-process
server — its own event loop, :class:`~repro.service.scheduler.MicroBatchScheduler`
and (copy-on-write, therefore effectively private) LRU
caches — so workers share *nothing* at runtime and scale across cores
without locks.  Kernel-level connection distribution comes from
``SO_REUSEPORT``: every worker binds its own listening socket to the one
``(host, port)`` and the kernel spreads incoming connections across them.
Platforms without ``SO_REUSEPORT`` fall back to one parent-bound listening
socket inherited through ``fork`` by every worker (all workers accept on
the shared socket instead).

Coordination is deliberately minimal:

* **Startup** — each worker binds its listeners (the shared port plus a
  private *direct* listener on an ephemeral port), reports readiness over a
  pipe, and waits; once every worker is up, the parent broadcasts the full
  worker directory and the workers start accepting.  The parent prints the
  ``serving on ...`` line only after the whole group is ready.
* **Stats** — ``GET /stats`` on the shared port lands on an arbitrary
  worker, which fans ``/stats?scope=local`` out to every peer's direct
  address and answers with the merged view (aggregate counters at the top
  level — so single-process consumers like the load generator keep working
  unchanged — plus a ``workers`` list with each worker's own payload).
* **Shutdown** — SIGTERM/SIGINT to the parent forwards SIGTERM to every
  worker (the parent holds both signals from before the first fork until
  it forwards them, so one sent during start-up is not fatal); each worker
  drains gracefully (stops accepting, closes idle keep-alive connections,
  finishes in-flight solves) and exits 0; the parent reaps the group and
  exits 0 only when every worker drained cleanly.

Served bytes are bit-identical to a single-process server (and therefore
to direct ``solve_rate_equilibria`` calls) for any worker count: workers
run the very same serving stack, and the solver caches they warm privately
can only ever hold values that recomputation would reproduce bit-for-bit.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["WorkerSettings", "serve_multiprocess", "merge_worker_stats",
           "bind_reuseport"]

#: Seconds the parent waits for one worker's readiness report.
_READY_TIMEOUT_SECONDS = 30.0
#: Seconds the parent waits for a worker to drain after SIGTERM before
#: escalating to SIGKILL.
_DRAIN_TIMEOUT_SECONDS = 20.0
#: Parent supervision poll interval while the group is serving.
_POLL_SECONDS = 0.2

#: Signals the coordinator forwards to its workers as a graceful drain.
_SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: ``/stats`` counters that are configuration, not activity — merged by
#: taking the first worker's value instead of summing.
_CONFIG_STAT_KEYS = frozenset({
    "window_seconds", "naive", "maxsize", "schema",
})


@dataclass(frozen=True)
class WorkerSettings:
    """Everything one worker needs to run its serving loop."""

    host: str
    port: int
    window_seconds: float
    naive: bool
    max_requests: Optional[int]
    idle_timeout: Optional[float]


def bind_reuseport(host: str, port: int) -> Optional[socket.socket]:
    """A TCP socket bound to ``(host, port)`` with ``SO_REUSEPORT`` set,
    or ``None`` when the platform does not support the option."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return None
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def _worker_main(index: int, settings: WorkerSettings,
                 inherited: Optional[socket.socket],
                 conn: Connection) -> None:
    """One worker process: serve until drained, exit 0 on a clean drain."""
    import asyncio

    from repro.cache import clear_all_caches

    # Fork copies whatever the parent had resident; start cold so every
    # worker's caches hold only what *it* served.
    clear_all_caches()
    try:
        exit_code = asyncio.run(_worker_serve(index, settings, inherited,
                                              conn))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        exit_code = 0
    sys.exit(exit_code)


async def _worker_serve(index: int, settings: WorkerSettings,
                        inherited: Optional[socket.socket],
                        conn: Connection) -> int:
    import asyncio

    from repro.service.server import EquilibriumServer

    if inherited is None:
        shared = bind_reuseport(settings.host, settings.port)
        if shared is None:  # pragma: no cover - parent checked already
            raise RuntimeError("SO_REUSEPORT unavailable and no inherited "
                               "socket was passed")
        shared.listen(128)
    else:
        shared = inherited
    server = EquilibriumServer(
        settings.host, settings.port,
        window_seconds=settings.window_seconds,
        naive=settings.naive,
        max_requests=settings.max_requests,
        idle_timeout=settings.idle_timeout,
        worker_index=index)
    loop = asyncio.get_running_loop()
    for signum in _SHUTDOWN_SIGNALS:
        loop.add_signal_handler(signum, server.request_shutdown)
    # The coordinator forked this process with the shutdown signals held;
    # one that arrived since is delivered to the drain handler now.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SHUTDOWN_SIGNALS)
    direct_host, direct_port = await server.start_direct()
    # Report readiness, then wait for the whole group's directory before
    # accepting: the first request a worker sees must already find the
    # merged-stats fan-out wired up.
    conn.send(("ready", index, direct_host, direct_port))
    message = conn.recv()
    if message[0] != "peers":  # pragma: no cover - parent protocol fixed
        raise RuntimeError(f"unexpected control message {message!r}")
    server.set_peers([tuple(peer) for peer in message[1]])
    conn.close()
    await server.start(sock=shared)
    await server.serve_until_closed()
    return 0


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
def serve_multiprocess(settings: WorkerSettings, workers: int) -> int:
    """Run ``workers`` shared-nothing serving processes; block until done.

    Returns the process exit code: 0 when every worker drained cleanly
    after SIGTERM/SIGINT (or its ``--max-requests`` bound), non-zero when
    any worker died unexpectedly or had to be killed.
    """
    if workers < 2:
        raise ValueError("serve_multiprocess needs workers >= 2")
    # Hold SIGTERM/SIGINT from before the first fork until _supervise
    # forwards them: one delivered in between would kill this process and
    # orphan the workers (each unblocks its own once its loop handles them).
    previous_mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                           _SHUTDOWN_SIGNALS)
    try:
        return _start_and_supervise(settings, workers)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous_mask)


def _start_and_supervise(settings: WorkerSettings, workers: int) -> int:
    context = multiprocessing.get_context("fork")

    # Resolve the port up front (port 0 must mean ONE ephemeral port shared
    # by the whole group, not one per worker) and decide the acceptor
    # strategy. The placeholder REUSEPORT socket stays bound until every
    # worker has bound its own, so the port cannot be stolen in between.
    inherited: Optional[socket.socket] = None
    placeholder = bind_reuseport(settings.host, settings.port)
    if placeholder is not None:
        resolved_port = int(placeholder.getsockname()[1])
    else:  # no SO_REUSEPORT: bind once here, workers inherit via fork
        inherited = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        inherited.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        inherited.bind((settings.host, settings.port))
        inherited.listen(128)
        resolved_port = int(inherited.getsockname()[1])
    settings = replace(settings, port=resolved_port)

    processes: List[multiprocessing.process.BaseProcess] = []
    pipes: List[Connection] = []
    try:
        for index in range(workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(index, settings, inherited, child_conn),
                name=f"repro-serve-{index}")
            process.start()
            child_conn.close()
            processes.append(process)
            pipes.append(parent_conn)
        peers = _collect_ready(pipes, processes)
        for conn in pipes:
            conn.send(("peers", peers))
            conn.close()
    except Exception as error:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=_DRAIN_TIMEOUT_SECONDS)
        print(f"error: multi-process serve failed to start: {error}",
              file=sys.stderr)
        return 1
    finally:
        if placeholder is not None:
            placeholder.close()
        if inherited is not None:
            inherited.close()

    print(f"serving on http://{settings.host}:{resolved_port} "
          f"({workers} workers, window {settings.window_seconds * 1000.0:g} "
          f"ms, {'naive' if settings.naive else 'micro-batching'})",
          flush=True)
    return _supervise(processes)


def _collect_ready(pipes: List[Connection],
                   processes: List[multiprocessing.process.BaseProcess]
                   ) -> List[Tuple[int, str, int]]:
    """Wait for every worker's readiness report; return the directory."""
    peers: List[Tuple[int, str, int]] = []
    for position, conn in enumerate(pipes):
        if not conn.poll(_READY_TIMEOUT_SECONDS):
            raise RuntimeError(
                f"worker {position} did not report ready within "
                f"{_READY_TIMEOUT_SECONDS:g}s "
                f"(alive={processes[position].is_alive()})")
        message = conn.recv()
        if message[0] != "ready":  # pragma: no cover - worker protocol fixed
            raise RuntimeError(f"unexpected control message {message!r}")
        _tag, index, host, port = message
        peers.append((int(index), str(host), int(port)))
    return sorted(peers)


def _supervise(processes: List[multiprocessing.process.BaseProcess]) -> int:
    """Forward shutdown signals, reap workers, aggregate exit codes."""
    shutting_down = False

    def forward(signum: int, _frame: Any) -> None:
        nonlocal shutting_down
        shutting_down = True
        for process in processes:
            if process.is_alive() and process.pid is not None:
                os.kill(process.pid, signal.SIGTERM)

    previous = {signum: signal.signal(signum, forward)
                for signum in _SHUTDOWN_SIGNALS}
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SHUTDOWN_SIGNALS)
    try:
        while True:
            alive = [process for process in processes if process.is_alive()]
            if not alive:
                break
            if not shutting_down and len(alive) < len(processes):
                # A worker died without a shutdown being requested: take
                # the rest down rather than limping along under capacity.
                shutting_down = True
                for process in alive:
                    if process.pid is not None:
                        os.kill(process.pid, signal.SIGTERM)
            alive[0].join(timeout=_POLL_SECONDS)
        exit_codes: List[int] = []
        for process in processes:
            process.join(timeout=_DRAIN_TIMEOUT_SECONDS)
            if process.is_alive():  # pragma: no cover - drain hang
                process.kill()
                process.join()
                exit_codes.append(1)
            else:
                exit_codes.append(abs(int(process.exitcode or 0)))
        return max(exit_codes)
    finally:
        for signum, handler in sorted(previous.items()):
            signal.signal(signum, handler)


# --------------------------------------------------------------------------- #
# Stats merging (pure, tested without processes)
# --------------------------------------------------------------------------- #
def merge_worker_stats(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker ``/stats`` payloads into the multi-worker view.

    The top level keeps the single-process shape — ``server``,
    ``scheduler`` and ``caches`` hold counters *summed* across reachable
    workers (configuration values like ``window_seconds`` or ``maxsize``
    are taken from the first worker; rates are recomputed from the summed
    numerators/denominators) — and ``workers`` lists every worker's own
    payload, ordered by worker index.
    """
    reachable = [payload for payload in payloads
                 if not payload.get("unreachable")]
    merged: Dict[str, Any] = {
        "schema": 1,
        "workers": sorted(payloads,
                          key=lambda p: p.get("worker", {}).get("index", -1)),
        "worker_count": len(payloads),
        "unreachable_workers": len(payloads) - len(reachable),
    }
    merged["server"] = _sum_counters(
        [payload.get("server", {}) for payload in reachable])
    scheduler = _sum_counters(
        [payload.get("scheduler", {}) for payload in reachable])
    requests = scheduler.get("requests", 0)
    if isinstance(requests, (int, float)) and requests:
        scheduler["coalesce_rate"] = scheduler.get("coalesced", 0) / requests
    merged["scheduler"] = scheduler
    cache_names = sorted({name for payload in reachable
                          for name in payload.get("caches", {})})
    merged["caches"] = {
        name: _merge_cache_stats(
            [payload["caches"][name] for payload in reachable
             if name in payload.get("caches", {})])
        for name in cache_names
    }
    return merged


def _sum_counters(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum numeric counters across workers; config keys take the first."""
    merged: Dict[str, Any] = {}
    for block in blocks:
        for key in sorted(block):
            value = block[key]
            if key in _CONFIG_STAT_KEYS or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                merged.setdefault(key, value)
            else:
                current = merged.get(key, 0)
                merged[key] = (current if isinstance(current, (int, float))
                               else 0) + value
    return merged


def _merge_cache_stats(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-cache merge: summed counters, recomputed hit rate."""
    merged = _sum_counters(blocks)
    merged.pop("hit_rate", None)
    hits = merged.get("hits", 0)
    misses = merged.get("misses", 0)
    total = (hits if isinstance(hits, (int, float)) else 0) + (
        misses if isinstance(misses, (int, float)) else 0)
    merged["hit_rate"] = (hits / total) if total else 0.0
    return merged

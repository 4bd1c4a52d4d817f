"""Equilibrium-as-a-service: a long-lived asyncio HTTP/1.1 server.

Stdlib only — a deliberately small HTTP/1.1 implementation, one
:class:`asyncio.Protocol` per connection (request line + headers +
``Content-Length`` body, keep-alive), enough for the JSON API and the load
generator without new runtime deps.

Endpoints:

* ``POST /solve``   — solve an equilibrium request (see
  :mod:`repro.service.protocol` and ARTIFACTS.md for the schema).
  ``detail: true`` responses are streamed with ``Transfer-Encoding:
  chunked`` (per-grid-point blocks, never a fully-buffered body) to
  HTTP/1.1 clients; HTTP/1.0 clients get a buffered body.
* ``GET  /stats``   — solver-cache statistics (``all_cache_stats()``) plus
  the scheduler's coalescing / batch-fusion counters.  In multi-process
  mode (see :mod:`repro.service.multiproc`) the response carries the
  aggregate view at the top level plus a ``workers`` list with every
  worker's own counters; ``GET /stats?scope=local`` always answers with
  only the serving worker's numbers.
* ``GET  /healthz`` — liveness probe.

A connection reads each request head line by line as its bytes arrive.
Requests that need no await — ``/healthz``, local ``/stats``, every 4xx
and ``POST /solve`` hits on a retained outcome
(:meth:`MicroBatchScheduler.retained`) — are answered inside
``data_received``.  Any other request runs in one task, and the connection
stops reading until its response is written, so pipelined requests are
answered in order and the receive buffer stays bounded.  Chunked streams
wait for the transport to drain (``pause_writing``/``resume_writing``), so
a slow reader pins at most one fragment plus the transport's buffer.
Against the stream-reader server this replaced, serve_mixed ``wall_s``
fell from 0.161 s to 0.132 s (medians of ten alternating pairs on a
2-core machine, all ten won), and ``bench_service``'s hot run from
0.034 s to 0.026 s.

Connection hygiene: the ``Connection`` header is compared
case-insensitively (RFC 9112 — ``Connection: Close`` closes), the request
line's HTTP version decides the keep-alive *default* (HTTP/1.0 defaults to
close, HTTP/1.1 to keep-alive), and idle keep-alive connections are closed
after ``idle_timeout`` seconds so forgotten clients can neither pin a
connection forever nor stall a graceful shutdown.  One timer per
connection bounds every wait for bytes — the next request line, each
further header line, the body — with the idle bound from the moment the
previous line arrived (at least 15/16 of it: the deadline is moved only
when it lags by more), so slow but steady clients are served and stalled
ones are closed and counted (``idle_timeouts``).  Shutdown
(:meth:`EquilibriumServer.close`, or :meth:`request_shutdown` from a
signal handler) closes the listeners and every connection without a
request in flight, lets in-flight requests finish their response, then
drains the scheduler.

Malformed requests are answered with a structured JSON error and the
configured 4xx status; the connection (and the server) stays up.  A
request whose framing is unknown — a request or header line over 64 KiB,
64 header lines, a ``Content-Length`` that is not plain digits,
conflicting ``Content-Length`` values, or any ``Transfer-Encoding`` —
gets one 400 ``bad_http`` and the connection is closed (RFC 9112 §6), so
unread bytes never parse as a request.  Requests of different connections
are dispatched concurrently on one event loop, which is what gives
micro-batching its cross-request reach.  Solves run on that loop too, in
bounded slices (see :mod:`repro.service.scheduler`), so every connection
keeps being read and answered between slices.  The scheduler is told which
requests the server holds (from a complete request to its written
response), so a batch closes as soon as all of them are waiting on solves
instead of waiting out the window.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from functools import partial
from typing import (Any, Awaitable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union, cast)

from repro.cache import all_cache_stats
from repro.errors import ModelValidationError
from repro.service.protocol import (
    RequestError,
    SolveRequest,
    build_solve_response,
    error_payload,
    parse_solve_request,
    solve_response_chunks,
)
from repro.service.scheduler import DEFAULT_WINDOW_SECONDS, MicroBatchScheduler
from repro.simulation.batch import BatchRateEquilibrium

__all__ = ["EquilibriumServer", "MAX_BODY_BYTES", "DEFAULT_IDLE_TIMEOUT"]

#: Largest accepted request body; far above any sane grid, far below a DoS.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest accepted request or header line, without its line ending.
_MAX_LINE_BYTES = 64 * 1024
#: Lines a head may hold after its request line, the blank line included.
_MAX_HEADER_LINES = 64

#: Idle keep-alive connections are closed after this many seconds unless
#: the server was configured otherwise (``--idle-timeout``).
DEFAULT_IDLE_TIMEOUT = 30.0

#: Share of the idle bound by which a connection's read deadline may lag
#: before it is moved (see ``_HttpConnection._extend_deadline``).
_BOUND_SLACK = 1 / 16

#: Grace period for in-flight requests to finish during shutdown before
#: their tasks are cancelled outright.
_DRAIN_GRACE_SECONDS = 10.0

#: Timeout for one peer's ``/stats?scope=local`` fetch in the merged view.
_PEER_STATS_TIMEOUT = 2.0

_STATUS_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}

#: A handler's response body: a JSON object, its encoded bytes, or an
#: iterator of pre-encoded fragments to stream with chunked transfer
#: encoding.
_Payload = Union[Dict[str, Any], bytes, Iterator[bytes]]
_Answer = Tuple[int, _Payload]
#: An answer at once, or one that has to be awaited.
_Dispatched = Union[_Answer, Awaitable[_Answer]]
#: ``(end of head, method, target, http version, headers, body length)``.
_Head = Tuple[int, str, str, str, Dict[str, str], int]


class _HttpViolation(Exception):
    """A protocol-level violation; the connection is closed after replying."""


class EquilibriumServer:
    """The serving loop around a :class:`MicroBatchScheduler`.

    ``naive=True`` turns off batching/coalescing for baseline measurements.
    ``idle_timeout`` bounds how long a keep-alive connection may sit
    between requests (``None`` disables the bound).  ``worker_index`` tags
    this server as one worker of a multi-process group (see
    :mod:`repro.service.multiproc`); :meth:`set_peers` wires the group's
    direct addresses in for the merged ``/stats`` view.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 naive: bool = False,
                 max_requests: Optional[int] = None,
                 idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
                 worker_index: Optional[int] = None) -> None:
        if idle_timeout is not None and idle_timeout <= 0.0:
            raise ValueError(
                f"idle_timeout must be > 0 or None, got {idle_timeout!r}")
        self._host = host
        self._port = port
        self._max_requests = max_requests
        self._idle_timeout = idle_timeout
        self.worker_index = worker_index
        self.scheduler = MicroBatchScheduler(window_seconds, naive=naive)
        self._server: Optional[asyncio.base_events.Server] = None
        self._direct_server: Optional[asyncio.base_events.Server] = None
        self._peers: List[Tuple[int, str, int]] = []
        self._closing = asyncio.Event()
        self._connections: Set[_HttpConnection] = set()
        self._shutdown_begun = False
        self._shutdown_complete = asyncio.Event()
        self.requests_total = 0
        self.solve_requests = 0
        self.request_errors = 0
        self.idle_timeouts = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind and start accepting connections (port 0 = ephemeral).

        ``sock`` serves on an already-bound listening socket instead of
        ``host``/``port`` — the multi-process mode's ``SO_REUSEPORT``
        (or inherited-socket) acceptors enter here.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        if sock is not None:
            self._server = await loop.create_server(
                partial(_HttpConnection, self), sock=sock)
        else:
            self._server = await loop.create_server(
                partial(_HttpConnection, self), self._host, self._port)

    async def start_direct(self) -> Tuple[str, int]:
        """Open this worker's private (direct) listener on an ephemeral port.

        The direct address reaches *this* worker specifically — connections
        to the shared ``SO_REUSEPORT`` port land on an arbitrary worker —
        and is what the merged ``/stats`` fan-out dials.  Serves the same
        connections as the shared listener.
        """
        if self._direct_server is not None:
            raise RuntimeError("direct listener already started")
        self._direct_server = await asyncio.get_running_loop().create_server(
            partial(_HttpConnection, self), "127.0.0.1", 0)
        address = self._direct_server.sockets[0].getsockname()
        return str(address[0]), int(address[1])

    def set_peers(self, peers: Sequence[Tuple[int, str, int]]) -> None:
        """Install the worker group's ``(index, host, port)`` directory."""
        self._peers = sorted(peers)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def serve_until_closed(self) -> None:
        """Serve until :meth:`close` is called (or max_requests is hit).

        Binds nothing when a shutdown was already requested.
        """
        if self._server is None and not self._closing.is_set():
            await self.start()
        await self._closing.wait()
        await self._shutdown()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (signal-handler safe, synchronous).

        Wakes :meth:`serve_until_closed`, which stops accepting, closes
        idle connections, finishes in-flight requests and drains the
        scheduler.
        """
        self._closing.set()

    async def close(self) -> None:
        """Stop accepting, finish in-flight requests, drain the scheduler."""
        self._closing.set()
        # When nobody is inside serve_until_closed, shut down directly.
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._shutdown_begun:
            await self._shutdown_complete.wait()
            return
        self._shutdown_begun = True
        try:
            listeners = [server for server in (self._server,
                                               self._direct_server)
                         if server is not None]
            self._server = self._direct_server = None
            for server in listeners:
                server.close()
            # Connections without a request in flight close now; in-flight
            # requests get a grace period to finish their response.
            current = asyncio.current_task()
            tasks = []
            for connection in list(self._connections):
                task = connection.task
                if task is None:
                    connection.close()
                elif task is not current:
                    tasks.append(task)
            if tasks:
                _done, pending = await asyncio.wait(
                    tasks, timeout=_DRAIN_GRACE_SECONDS)
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            # Only now: since Python 3.12 ``wait_closed`` also waits for
            # every connection a listener accepted to close.
            for server in listeners:
                await server.wait_closed()
            await self.scheduler.drain()
        finally:
            self._shutdown_complete.set()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str, target: str, body: bytes, *,
                  allow_stream: bool = True) -> _Dispatched:
        """The answer to one request, or an awaitable of it when the
        request needs a solve or the merged stats view."""
        path, _, query = target.partition("?")
        if path == "/solve":
            if method != "POST":
                return 405, error_payload("method_not_allowed",
                                          "/solve accepts POST only")
            return self._handle_solve(body, allow_stream=allow_stream)
        if path == "/stats":
            if method != "GET":
                return 405, error_payload("method_not_allowed",
                                          "/stats accepts GET only")
            if self._peers and "scope=local" not in query.split("&"):
                return self._merged_stats()
            return 200, self.stats()
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("method_not_allowed",
                                          "/healthz accepts GET only")
            return 200, {"schema": 1, "status": "ok"}
        return 404, error_payload("not_found", f"no route for {path!r}")

    def _handle_solve(self, body: bytes, *, allow_stream: bool
                      ) -> _Dispatched:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.request_errors += 1
            return 400, error_payload("bad_json",
                                      f"request body is not JSON: {error}")
        try:
            request = parse_solve_request(payload)
        except RequestError as error:
            self.request_errors += 1
            return error.status, error_payload(error.code, error.message)
        self.solve_requests += 1
        try:
            outcome = self.scheduler.retained(
                request.population, request.nus, request.mechanism,
                request.config)
        except Exception as error:  # keep serving on solver faults
            return self._solve_failed(error)
        if outcome is None:
            return self._solve(request, allow_stream=allow_stream)
        return self._solve_answer(request, *outcome, allow_stream=allow_stream)

    async def _solve(self, request: SolveRequest, *, allow_stream: bool
                     ) -> _Answer:
        try:
            outcome = await self.scheduler.solve(
                request.population, request.nus, request.mechanism,
                request.config)
        except Exception as error:  # keep serving on solver faults
            return self._solve_failed(error)
        return self._solve_answer(request, *outcome, allow_stream=allow_stream)

    def _solve_failed(self, error: Exception) -> _Answer:
        self.request_errors += 1
        if isinstance(error, ModelValidationError):
            return 400, error_payload("bad_request", str(error))
        return 500, error_payload("solver_error",
                                  f"{type(error).__name__}: {error}")

    def _solve_answer(self, request: SolveRequest,
                      batch: BatchRateEquilibrium,
                      batch_size: int, coalesced: bool, *,
                      allow_stream: bool) -> _Answer:
        if request.detail and allow_stream:
            return 200, solve_response_chunks(request, batch,
                                              coalesced=coalesced,
                                              batch_size=batch_size)

        def body() -> bytes:
            return _encode(build_solve_response(
                request, batch, coalesced=coalesced, batch_size=batch_size))

        if coalesced and request.price is None and not request.detail:
            # Every request coalesced onto this batch shares its population,
            # grid, solver key, mechanism and batch size, hence its body:
            # encode that once, beside the batch's memoised aggregates.
            return 200, batch.memoised(
                ("coalesced_body", request.mechanism_name,
                 request.config.cache_key(), batch_size), body)
        return 200, body()

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: cache + scheduler + server counters."""
        payload: Dict[str, Any] = {
            "schema": 1,
            "caches": all_cache_stats(),
            "scheduler": self.scheduler.stats(),
            "server": {
                "requests_total": self.requests_total,
                "solve_requests": self.solve_requests,
                "request_errors": self.request_errors,
                "idle_timeouts": self.idle_timeouts,
            },
        }
        if self.worker_index is not None:
            payload["worker"] = {"index": self.worker_index,
                                 "pid": os.getpid()}
        return payload

    async def _merged_stats(self) -> _Answer:
        """The multi-worker ``/stats`` view: per-worker + aggregate.

        Fans ``GET /stats?scope=local`` out to every peer's direct address
        and merges: the top level keeps the single-process shape (summed
        ``server``/``scheduler``/``caches`` counters, so existing
        consumers — the load generator's before/after deltas included —
        read aggregate numbers unchanged) and a ``workers`` list carries
        each worker's own payload.  An unreachable worker is reported in
        its slot, never fatal to the view.
        """
        from repro.service.multiproc import merge_worker_stats

        async def fetch(index: int, host: str, port: int) -> Dict[str, Any]:
            if index == self.worker_index:
                return self.stats()
            from repro.service.client import ServiceClient
            try:
                async with ServiceClient(host, port) as client:
                    status, payload = await asyncio.wait_for(
                        client.request("GET", "/stats?scope=local"),
                        timeout=_PEER_STATS_TIMEOUT)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                return {"worker": {"index": index}, "unreachable": True}
            if status != 200:  # pragma: no cover - peers always serve stats
                return {"worker": {"index": index}, "unreachable": True}
            return payload

        payloads = await asyncio.gather(
            *[fetch(index, host, port) for index, host, port in self._peers])
        return 200, merge_worker_stats(list(payloads))


class _HttpConnection(asyncio.Protocol):
    """One client connection: reads, dispatches and answers its requests.

    At most one request of a connection is in flight (``task``); while it
    is, and while the transport's write buffer is over its high-water
    mark, the connection stops reading.
    """

    _transport: asyncio.Transport

    def __init__(self, server: EquilibriumServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()
        #: Bytes after the buffer's last LF: the line being received.
        self._tail = 0
        #: The head being read, then the head of a body still arriving.
        self._reader: Optional[_HeadReader] = None
        self._head: Optional[_Head] = None
        self.task: Optional["asyncio.Task[None]"] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._deadline = 0.0
        self._eof = False
        self._write_paused = False
        self._drained: Optional["asyncio.Future[None]"] = None

    # ------------------------------------------------------------------ #
    # asyncio.Protocol callbacks
    # ------------------------------------------------------------------ #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self._server._connections.add(self)
        if self._server._closing.is_set():
            self._transport.close()
            return
        self._extend_deadline()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        newline = data.rfind(b"\n")
        self._tail = (self._tail + len(data) if newline < 0
                      else len(data) - newline - 1)
        if self.task is not None or self._write_paused:
            return  # read again once the response in progress is written
        if self._head is None:  # reading a head
            if newline >= 0:
                self._extend_deadline()
            elif self._tail <= _MAX_LINE_BYTES:
                return  # no line completed, and this one is not too long
        self._process()

    def eof_received(self) -> bool:
        self._eof = True
        if self.task is None and not self._write_paused:
            self._process()
        return True  # answer what was sent before closing

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        waiter, self._drained = self._drained, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(ConnectionResetError("Connection lost"))

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        waiter, self._drained = self._drained, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
        if self.task is None:
            self._resume_reading()
            self._loop.call_soon(self._process)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._transport.close()

    def _process(self) -> None:
        """Answer buffered requests in order until one needs a task, the
        next one is incomplete, or the connection closes."""
        server = self._server
        while self.task is None and not self._write_paused:
            if self._transport.is_closing():
                return
            if server._closing.is_set():
                self._transport.close()
                return
            try:
                request = self._next_request()
            except _HttpViolation as violation:
                self._refuse(violation)
                return
            if request is None:
                if self._eof:  # nothing more will complete it
                    self._transport.close()
                return
            self._serve(*request)

    def _next_request(self) -> Optional[Tuple[_Head, bytes]]:
        """The next complete request in the buffer, consumed, or ``None``."""
        buffer = self._buffer
        if self._head is None:
            if not buffer:
                return None
            if self._reader is None:
                self._reader = _HeadReader()
            self._head = self._reader.read(buffer, self._eof)
            if self._head is None:
                return None
            self._reader = None
        head = self._head
        start, length = head[0], head[5]
        if len(buffer) < start + length:
            return None
        body = bytes(buffer[start:start + length])
        del buffer[:start + length]
        self._tail = min(self._tail, len(buffer))
        self._head = None
        return head, body

    def _serve(self, head: _Head, body: bytes) -> None:
        server = self._server
        _, method, target, version, headers, _ = head
        keep_alive = _wants_keep_alive(version, headers)
        server.requests_total += 1
        # The scheduler counts the request from now to its written
        # response, whichever way it ends: batches flush early only while
        # every counted request is waiting on a solve.
        server.scheduler.admit()
        try:
            # HTTP/1.0 cannot frame a chunked stream; buffer for it.
            answer = server._dispatch(method, target, body,
                                      allow_stream=(version == "HTTP/1.1"))
        except BaseException:
            server.scheduler.release()
            raise
        if isinstance(answer, tuple):
            status, payload = answer
            if isinstance(payload, (dict, bytes)):
                if server._closing.is_set():
                    keep_alive = False  # draining: tell the client we're done
                self._write(_buffered_response(status, payload, keep_alive))
                server.scheduler.release()
                self._after_response(keep_alive)
                return
        if self._timer is not None:  # no read bound while answering
            self._timer.cancel()
            self._timer = None
        self._transport.pause_reading()
        self.task = self._loop.create_task(
            self._answer_later(answer, keep_alive))

    async def _answer_later(self, answer: _Dispatched,
                            keep_alive: bool) -> None:
        server = self._server
        try:
            try:
                if isinstance(answer, tuple):
                    status, payload = answer
                else:
                    status, payload = await answer
                if server._closing.is_set():
                    keep_alive = False  # draining: tell the client we're done
                if isinstance(payload, (dict, bytes)):
                    self._write(_buffered_response(status, payload,
                                                   keep_alive))
                else:
                    await self._stream(status, payload, keep_alive)
            finally:
                self.task = None
                server.scheduler.release()
        except ConnectionError:
            self._transport.close()  # client went away mid-response
            return
        except BaseException:
            self._transport.close()
            raise
        self._after_response(keep_alive)
        if not self._transport.is_closing():
            if not self._write_paused:
                self._resume_reading()
            self._extend_deadline()
            self._process()

    def _after_response(self, keep_alive: bool) -> None:
        if not keep_alive:
            self._transport.close()
            return
        max_requests = self._server._max_requests
        if (max_requests is not None
                and self._server.solve_requests >= max_requests):
            self._server._closing.set()
            self._transport.close()

    def _refuse(self, violation: _HttpViolation) -> None:
        self._write(_buffered_response(
            400, error_payload("bad_http", str(violation)), False))
        self._transport.close()

    # ------------------------------------------------------------------ #
    # Writing, reading, timing
    # ------------------------------------------------------------------ #
    def _write(self, data: bytes) -> None:
        if not self._transport.is_closing():
            self._transport.write(data)

    async def _stream(self, status: int, chunks: Iterator[bytes],
                      keep_alive: bool) -> None:
        """Write one response as HTTP chunks, one per fragment.

        Waits for the transport to drain whenever its buffer is over the
        high-water mark, so the server's buffering stays bounded by one
        fragment (plus the socket buffer) no matter how large the body —
        the point of the ``detail: true`` streaming mode.
        """
        self._write(_response_head(status, "Transfer-Encoding: chunked",
                                   keep_alive))
        await self._drain()
        for chunk in chunks:
            if chunk:  # a zero-length chunk would terminate the stream
                self._write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await self._drain()
        self._write(b"0\r\n\r\n")
        await self._drain()

    async def _drain(self) -> None:
        if self._transport.is_closing():
            raise ConnectionResetError("Connection lost")
        if self._write_paused:
            waiter: "asyncio.Future[None]" = self._loop.create_future()
            self._drained = waiter
            await waiter

    def _resume_reading(self) -> None:
        if not self._eof:  # a socket at EOF has nothing more to read
            self._transport.resume_reading()

    def _extend_deadline(self) -> None:
        """Give the next wait for bytes the idle bound from now, lazily as
        nginx moves its timers: a deadline lagging by at most
        ``_BOUND_SLACK`` of the bound stays put, so a request head that
        arrived in one segment re-arms no timer."""
        bound = self._server._idle_timeout
        if bound is None:
            return
        deadline = self._loop.time() + bound
        if (self._timer is not None
                and deadline - self._deadline <= _BOUND_SLACK * bound):
            return
        if self._timer is not None:
            self._timer.cancel()
        self._deadline = deadline
        self._timer = self._loop.call_at(deadline, self._timed_out)

    def _timed_out(self) -> None:
        """An idle keep-alive connection or a stalled request: close it
        without an answer (slow-loris guard)."""
        self._timer = None
        self._server.idle_timeouts += 1
        self._transport.close()


class _HeadReader:
    """Reads one request head as its bytes arrive.

    Lines end at LF (a CR before it is stripped with the rest of the line's
    whitespace) and each is checked once, as soon as it is complete, so a
    head split over many segments is scanned once; the head ends at the
    first empty line after the request line.
    """

    __slots__ = ("_offset", "_request", "_headers", "_lengths", "_count")

    def __init__(self) -> None:
        self._offset = 0  # start of the first line not read yet
        self._request: Optional[List[str]] = None
        self._headers: Dict[str, str] = {}
        self._lengths: List[str] = []
        self._count = 0

    def read(self, buffer: bytearray, at_eof: bool) -> Optional[_Head]:
        """The head once its blank line is in ``buffer``, else ``None``.

        At EOF a trailing partial line counts as a line.  Raises
        :class:`_HttpViolation` as soon as what arrived cannot be a valid
        head.
        """
        end = _blank_line_end(buffer, self._offset)
        lines = buffer[self._offset:end if end >= 0 else len(buffer)
                       ].decode("latin-1").split("\n")
        partial = lines.pop()  # what follows the last LF
        if end >= 0:
            del lines[-1]  # the blank line
        elif at_eof and partial:
            lines.append(partial)
            partial = ""
        for line in lines:
            if len(line) > _MAX_LINE_BYTES:
                raise self._too_long()
            if self._request is None:
                parts = line.split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                    raise _HttpViolation("malformed HTTP request line")
                self._request = parts
            else:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                self._headers[name] = value.strip()
                if name == "content-length":
                    self._lengths += value.split(",")
                self._count += 1
                if self._count == _MAX_HEADER_LINES:
                    raise _HttpViolation("too many header lines")
        if end >= 0:
            return self._head(end)
        if len(partial) > _MAX_LINE_BYTES:
            raise self._too_long()
        if at_eof:
            raise _HttpViolation("connection closed inside headers")
        self._offset = len(buffer) - len(partial)
        return None

    def _head(self, end: int) -> _Head:
        if "transfer-encoding" in self._headers:
            # Only Content-Length framing is read; a coded body left unread
            # would be parsed as the next request, so close.
            raise _HttpViolation("Transfer-Encoding is not supported")
        assert self._request is not None
        method, target, version = self._request
        return (end, method.upper(), target, version, self._headers,
                _content_length(self._lengths))

    def _too_long(self) -> _HttpViolation:
        kind = "request" if self._request is None else "header"
        return _HttpViolation(f"{kind} line longer than {_MAX_LINE_BYTES} bytes")


def _blank_line_end(buffer: bytearray, offset: int) -> int:
    """Offset just past the first empty line that starts at or after
    ``offset`` (itself the start of a line), or -1."""
    start = max(offset - 1, 0)
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start, crlf + 1 if crlf >= 0 else len(buffer))
    if lf >= 0:
        return lf + 2
    return crlf + 3 if crlf >= 0 else -1


def _content_length(values: List[str]) -> int:
    """The body length from every ``Content-Length`` value (RFC 9112 §6.3).

    Each value must be plain ASCII digits and all of them must agree;
    anything else leaves the framing unknown.
    """
    lengths = {value.strip() for value in values}
    if not lengths:
        return 0
    if len(lengths) > 1:
        raise _HttpViolation(
            f"conflicting Content-Length values {sorted(lengths)!r}")
    (raw,) = lengths
    if not (raw.isascii() and raw.isdigit()):
        raise _HttpViolation(f"bad Content-Length {raw!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise _HttpViolation(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    return length


def _wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """Keep-alive per RFC 9112: header tokens are case-insensitive and the
    HTTP version sets the default (1.1 persistent, 1.0 close)."""
    connection = headers.get("connection", "").strip().lower()
    if connection == "close":
        return False
    if connection == "keep-alive":
        return True
    return version == "HTTP/1.1"


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _response_head(status: int, framing: str, keep_alive: bool) -> bytes:
    return (f"HTTP/1.1 {status} {_STATUS_PHRASES.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n{framing}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
            ).encode("latin-1")


def _buffered_response(status: int, payload: Union[Dict[str, Any], bytes],
                       keep_alive: bool) -> bytes:
    """One response with a ``Content-Length`` body, head and body joined."""
    if isinstance(payload, dict):
        payload = _encode(payload)
    return _response_head(status, f"Content-Length: {len(payload)}",
                          keep_alive) + payload

"""Equilibrium-as-a-service: a long-lived asyncio HTTP/1.1 server.

Stdlib only — a deliberately small HTTP/1.1 implementation over asyncio
streams (request line + headers + ``Content-Length`` body, keep-alive),
enough for the JSON API and the load generator without new runtime deps.

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

Connection hygiene: the ``Connection`` header is compared
case-insensitively (RFC 9112 — ``Connection: Close`` closes), the request
line's HTTP version decides the keep-alive *default* (HTTP/1.0 defaults to
close, HTTP/1.1 to keep-alive), and idle keep-alive connections are closed
after ``idle_timeout`` seconds so forgotten clients can neither pin a
handler task forever nor stall a graceful shutdown; every header line and
the body of a request get the same bound, each read its own (at least
15/16 of it: a deadline is moved only when it lags by more).  Shutdown
(:meth:`EquilibriumServer.close`, or :meth:`request_shutdown` from a
signal handler) stops accepting, closes every idle connection, lets
in-flight requests finish their response, then drains the scheduler.

Malformed requests are answered with a structured JSON error and the
configured 4xx status; the connection (and the server) stays up.  A
request whose body framing is unknown — a ``Content-Length`` that is not
plain digits, conflicting ``Content-Length`` values, or any
``Transfer-Encoding`` — gets one 400 ``bad_http`` and the connection is
closed (RFC 9112 §6), so unread body bytes never parse as a request.
Requests are dispatched concurrently on one event loop, which is what
gives micro-batching its cross-request reach.  Solves run on that loop
too, in bounded slices (see :mod:`repro.service.scheduler`), so every
connection's reader keeps going between slices.  The scheduler is told
which requests the server holds (from the request line to the written
response), so a batch closes as soon as all of them are waiting on solves
instead of waiting out the window.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.cache import all_cache_stats
from repro.errors import ModelValidationError
from repro.service.protocol import (
    RequestError,
    build_solve_response,
    error_payload,
    parse_solve_request,
    solve_response_chunks,
)
from repro.service.scheduler import DEFAULT_WINDOW_SECONDS, MicroBatchScheduler

__all__ = ["EquilibriumServer", "MAX_BODY_BYTES", "DEFAULT_IDLE_TIMEOUT"]

#: Largest accepted request body; far above any sane grid, far below a DoS.
MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 64

#: Idle keep-alive connections are closed after this many seconds unless
#: the server was configured otherwise (``--idle-timeout``).
DEFAULT_IDLE_TIMEOUT = 30.0

#: Share of the idle bound by which a request's read deadline may lag
#: before it is moved (see ``EquilibriumServer._extend_bound``).
_BOUND_SLACK = 1 / 16

#: Grace period for in-flight requests to finish during shutdown before
#: their connection tasks are cancelled outright.
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
#: ``(method, target, http version, headers, body)`` of one parsed request.
_ParsedRequest = Tuple[str, str, str, Dict[str, str], bytes]


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
        self._connections: Set["asyncio.Task[None]"] = set()
        # Connections parked between requests, closed by a shutdown.
        self._idle: Set[asyncio.StreamWriter] = set()
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
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port)

    async def start_direct(self) -> Tuple[str, int]:
        """Open this worker's private (direct) listener on an ephemeral port.

        The direct address reaches *this* worker specifically — connections
        to the shared ``SO_REUSEPORT`` port land on an arbitrary worker —
        and is what the merged ``/stats`` fan-out dials.  Serves the same
        handler as the shared listener.
        """
        if self._direct_server is not None:
            raise RuntimeError("direct listener already started")
        self._direct_server = await asyncio.start_server(
            self._handle_connection, "127.0.0.1", 0)
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
            # Idle connections close now; in-flight requests get a grace
            # period to finish their response.
            for writer in self._idle:
                writer.close()
            current = asyncio.current_task()
            tasks = [task for task in self._connections if task is not current]
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
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while not self._closing.is_set():
            request_line = await self._read_request_line(reader, writer)
            if not request_line:  # clean EOF, idle timeout, or shutdown
                break
            # The scheduler counts the request from its request line to its
            # written response, whichever way it ends: batches flush early
            # only while every counted request is waiting on a solve.
            self.scheduler.admit()
            try:
                keep_open = await self._serve_request(request_line, reader,
                                                      writer)
            finally:
                self.scheduler.release()
            if not keep_open:
                break

    async def _serve_request(self, request_line: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> bool:
        """Read and answer one request; whether the connection stays open."""
        try:
            method, target, version, headers, body = (
                await self._read_request(request_line, reader))
        except _HttpViolation as violation:
            await _write_response(
                writer, 400, error_payload("bad_http", str(violation)),
                keep_alive=False)
            return False
        except TimeoutError:
            # Slow-loris guard: stalled mid-request, close quietly.
            self.idle_timeouts += 1
            return False
        keep_alive = _wants_keep_alive(version, headers)
        self.requests_total += 1
        # HTTP/1.0 cannot frame a chunked stream; buffer for it.
        status, payload = await self._dispatch(
            method, target, body, allow_stream=(version == "HTTP/1.1"))
        if self._closing.is_set():
            keep_alive = False  # draining: tell the client we're done
        await _write_response(writer, status, payload, keep_alive=keep_alive)
        if not keep_alive:
            return False
        if (self._max_requests is not None
                and self.solve_requests >= self._max_requests):
            self._closing.set()
            return False
        return True

    async def _read_request(self, request_line: bytes,
                            reader: asyncio.StreamReader) -> _ParsedRequest:
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpViolation("malformed HTTP request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        headers: Dict[str, str] = {}
        lengths: List[str] = []
        # One timeout for the whole request, moved before each read so
        # that every read gets the idle bound.
        async with asyncio.timeout(None) as bound:
            for _ in range(_MAX_HEADER_LINES):
                self._extend_bound(bound)
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise _HttpViolation("connection closed inside headers")
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                headers[name] = value.strip()
                if name == "content-length":
                    lengths += value.split(",")
            else:
                raise _HttpViolation("too many header lines")
            if "transfer-encoding" in headers:
                # Only Content-Length framing is read; a coded body left
                # unread would be parsed as the next request, so close.
                raise _HttpViolation("Transfer-Encoding is not supported")
            length = _content_length(lengths)
            self._extend_bound(bound)
            body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body

    async def _read_request_line(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> bytes:
        """The next request line, or ``b""`` to close the connection.

        Bounded by the idle timeout, and cut short by a shutdown, which
        closes every connection parked here: an idle keep-alive client can
        neither pin this handler task nor stall a graceful drain.
        """
        self._idle.add(writer)
        try:
            async with asyncio.timeout(self._idle_timeout):
                return await reader.readline()
        except TimeoutError:
            self.idle_timeouts += 1
            return b""
        finally:
            self._idle.discard(writer)

    def _extend_bound(self, bound: asyncio.Timeout) -> None:
        """Give the next read of a request the idle bound from now, lazily
        as nginx moves its timers: a deadline lagging by at most
        ``_BOUND_SLACK`` of the bound stays put, so a request head that
        arrived in one segment re-arms no timer."""
        if self._idle_timeout is None:
            return
        deadline = asyncio.get_running_loop().time() + self._idle_timeout
        current = bound.when()
        if (current is None
                or deadline - current > _BOUND_SLACK * self._idle_timeout):
            bound.reschedule(deadline)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, method: str, target: str, body: bytes, *,
                        allow_stream: bool = True
                        ) -> Tuple[int, _Payload]:
        path, _, query = target.partition("?")
        if path == "/solve":
            if method != "POST":
                return 405, error_payload("method_not_allowed",
                                          "/solve accepts POST only")
            return await self._handle_solve(body, allow_stream=allow_stream)
        if path == "/stats":
            if method != "GET":
                return 405, error_payload("method_not_allowed",
                                          "/stats accepts GET only")
            if self._peers and "scope=local" not in query.split("&"):
                return 200, await self._merged_stats()
            return 200, self.stats()
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("method_not_allowed",
                                          "/healthz accepts GET only")
            return 200, {"schema": 1, "status": "ok"}
        return 404, error_payload("not_found", f"no route for {path!r}")

    async def _handle_solve(self, body: bytes, *, allow_stream: bool
                            ) -> Tuple[int, _Payload]:
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
            batch, batch_size, coalesced = await self.scheduler.solve(
                request.population, request.nus, request.mechanism,
                request.config)
        except ModelValidationError as error:
            self.request_errors += 1
            return 400, error_payload("bad_request", str(error))
        except Exception as error:  # keep serving on solver faults
            self.request_errors += 1
            return 500, error_payload("solver_error",
                                      f"{type(error).__name__}: {error}")
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

    async def _merged_stats(self) -> Dict[str, Any]:
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
        return merge_worker_stats(list(payloads))


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


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload: _Payload, *, keep_alive: bool) -> None:
    """Write one response: a buffered body, or a chunked stream.

    A stream writes each fragment as one HTTP chunk and drains the
    transport after every write, so the server's buffering stays bounded
    by one fragment (plus the socket buffer) no matter how large the body
    — the point of the ``detail: true`` streaming mode.
    """
    if isinstance(payload, dict):
        payload = _encode(payload)
    framing = (f"Content-Length: {len(payload)}"
               if isinstance(payload, bytes) else "Transfer-Encoding: chunked")
    head = (f"HTTP/1.1 {status} {_STATUS_PHRASES.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n{framing}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
            ).encode("latin-1")
    if isinstance(payload, bytes):
        writer.write(head + payload)
    else:
        writer.write(head)
        await writer.drain()
        for chunk in payload:
            if chunk:  # a zero-length chunk would terminate the stream
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk
                             + b"\r\n")
                await writer.drain()
        writer.write(b"0\r\n\r\n")
    await writer.drain()

"""A minimal asyncio client for the equilibrium service.

Stdlib only, like the server: one persistent keep-alive connection per
client, JSON in / JSON out.  Used by the serving-layer tests and the load
generator; external callers can use any HTTP client (the wire format is
plain HTTP/1.1 + JSON).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

__all__ = ["ServiceClient", "ServiceResponse"]

#: What every request resolves to: ``(http status, decoded JSON payload)``.
ServiceResponse = Tuple[int, Dict[str, Any]]


class ServiceClient:
    """One keep-alive HTTP/1.1 connection to an :class:`EquilibriumServer`.

    Not safe for concurrent use from multiple tasks — HTTP/1.1 pipelining
    is deliberately out of scope.  Open one client per concurrent caller
    (the load generator does exactly that).
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def solve(self, payload: Dict[str, Any]) -> ServiceResponse:
        """``POST /solve`` with ``payload`` as the JSON body."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return await self.request("POST", "/solve", body)

    async def stats(self) -> ServiceResponse:
        """``GET /stats``."""
        return await self.request("GET", "/stats")

    async def healthz(self) -> ServiceResponse:
        """``GET /healthz``."""
        return await self.request("GET", "/healthz")

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> ServiceResponse:
        """One round trip; reconnects once if the server closed the socket."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self._host}:{self._port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> ServiceResponse:
        """The next response; any framing or payload defect is a
        :class:`ConnectionError`, after which the connection is closed
        (its byte stream can no longer be trusted)."""
        try:
            return await self._read_framed_response()
        except ConnectionError:
            await self.close()
            raise
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ValueError) as error:
            # EOF inside a declared body, a head or line past the stream
            # limit, or a body that is not UTF-8 JSON.
            await self.close()
            raise ConnectionError(f"malformed response: {error!r}") from error

    async def _read_framed_response(self) -> ServiceResponse:
        assert self._reader is not None
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                raise ConnectionError("server closed the connection") from error
            raise ConnectionError("connection closed inside headers") from error
        status_line, *lines = head[:-4].split(b"\r\n")
        parts = status_line.decode("latin-1").split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or not _is_digits(parts[1], 3)):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        lengths: list[str] = []
        encodings: list[str] = []
        close_after = False
        for line in lines:
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise ConnectionError(f"malformed header line {line!r}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length":
                lengths.append(value)
            elif name == "transfer-encoding":
                encodings.append(value.lower())
            elif name == "connection" and value.lower() == "close":
                close_after = True
        if encodings:
            if encodings != ["chunked"] or lengths:
                raise ConnectionError(
                    f"unsupported framing {encodings!r} with lengths {lengths!r}")
            raw = await self._read_chunked_body()
        else:
            length = _content_length(lengths)
            raw = await self._reader.readexactly(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8"))
        if close_after:
            await self.close()
        if not isinstance(payload, dict):
            raise ConnectionError(f"non-object response payload: {payload!r}")
        return status, payload

    async def _read_chunked_body(self) -> bytes:
        """Decode a ``Transfer-Encoding: chunked`` body (streamed detail
        responses) into one buffer."""
        assert self._reader is not None
        pieces: list[bytes] = []
        while True:
            size_line = await self._reader.readline()
            if not size_line.endswith(b"\n"):
                raise ConnectionError("connection closed inside chunked body")
            # chunk-size = 1*HEXDIG, optionally followed by chunk extensions.
            size_field = size_line.split(b";", 1)[0].rstrip(b" \t\r\n")
            if not (size_field and all(byte in _HEX_DIGITS for byte in size_field)):
                raise ConnectionError(f"malformed chunk size {size_line!r}")
            size = int(size_field, 16)
            if size == 0:
                # Trailer section: read through the blank terminator line.
                while True:
                    trailer = await self._reader.readline()
                    if trailer in (b"\r\n", b"\n"):
                        return b"".join(pieces)
                    if not trailer.endswith(b"\n"):
                        raise ConnectionError(
                            "connection closed inside chunk trailers")
            pieces.append(await self._reader.readexactly(size))
            separator = await self._reader.readexactly(2)
            if separator != b"\r\n":
                raise ConnectionError("missing CRLF after chunk")


#: The bytes a chunk size may use (RFC 9112 §7.1: ``1*HEXDIG``).
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")


def _is_digits(text: str, count: Optional[int] = None) -> bool:
    """True when ``text`` is ASCII decimal digits only (``count`` of them)."""
    return (text.isascii() and text.isdigit()
            and (count is None or len(text) == count))


def _content_length(values: list[str]) -> int:
    """The body length from every ``Content-Length`` value (RFC 9112 §6.3).

    Mirrors the server's check: each value must be plain ASCII digits
    (``int()`` alone would accept ``+2`` and ``0_2``) and all of them must
    agree.  A response without one has no framing this client reads.
    """
    if not values:
        raise ConnectionError("response has neither Content-Length nor chunking")
    if len(set(values)) > 1 or not _is_digits(values[0]):
        raise ConnectionError(f"bad Content-Length {values!r}")
    return int(values[0])

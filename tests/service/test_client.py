"""Strict response framing in :class:`ServiceClient`.

The client reads raw bytes from a :class:`asyncio.StreamReader`, so every
case here feeds a response straight into one — no server involved.  Only
ASCII hex digits frame a chunk and only ASCII decimal digits a
``Content-Length`` (Python's ``int()`` alone would also take ``+2``,
``0_2`` or ``0x2``), and every malformed, truncated or non-JSON response
raises :class:`ConnectionError`, the one error callers such as the load
generator handle.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service.client import ServiceClient


def read_response(raw: bytes):
    """``ServiceClient._read_response`` over ``raw`` followed by EOF."""
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        client = ServiceClient("127.0.0.1", 0)
        client._reader = reader
        return await client._read_response()

    return asyncio.run(read())


def buffered(body: bytes, length: str, status: str = "200") -> bytes:
    return (f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode("latin-1") + body


def chunked(*pieces: tuple[str, bytes]) -> bytes:
    head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    chunks = b"".join(size.encode("latin-1") + b"\r\n" + data + b"\r\n"
                      for size, data in pieces)
    return head + chunks + b"0\r\n\r\n"


class TestWellFramedResponses:
    def test_content_length_body(self):
        assert read_response(buffered(b'{"a": 1}', "8")) == (200, {"a": 1})

    def test_chunked_body_with_extension_and_trailer(self):
        raw = chunked(("3;name=value", b'{"a'), ("A", b'": [1, 2]}'))
        raw = raw[:-2] + b"Trailer-Field: x\r\n\r\n"
        assert read_response(raw) == (200, {"a": [1, 2]})

    def test_upper_case_hex_and_repeated_equal_lengths(self):
        assert read_response(chunked(("D", b'{"key": true}'))) == (
            200, {"key": True})
        raw = (b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n"
               b"Content-Length: 2\r\n\r\n{}")
        assert read_response(raw) == (404, {})


@pytest.mark.parametrize("raw", [
    pytest.param(chunked(("+2", b"{}")), id="chunk-plus"),
    pytest.param(chunked(("0_2", b"{}")), id="chunk-underscore"),
    pytest.param(chunked(("0x2", b"{}")), id="chunk-0x"),
    pytest.param(chunked((" 2", b"{}")), id="chunk-leading-space"),
    pytest.param(chunked(("-5", b"{}")), id="chunk-negative"),
    pytest.param(chunked(("-1", b"{}")), id="chunk-minus-one"),
    pytest.param(chunked(("abc", b"{}")), id="chunk-not-hex"),
    pytest.param(chunked(("", b"{}")), id="chunk-empty"),
    pytest.param(buffered(b"{}", "+2"), id="length-plus"),
    pytest.param(buffered(b"{}", "0_2"), id="length-underscore"),
    pytest.param(buffered(b"{}", "-5"), id="length-negative"),
    pytest.param(buffered(b"{}", "abc"), id="length-not-digits"),
    pytest.param(buffered(b"{}", "2", status="abc"), id="status-not-digits"),
    pytest.param(buffered(b"{}", "2", status="2000"), id="status-four-digits"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                 b"Content-Length: 3\r\n\r\n{} ", id="length-conflict"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                 id="length-and-chunked"),
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n{}",
                 id="unknown-coding"),
    pytest.param(b"HTTP/1.1 200 OK\r\n\r\n{}", id="no-framing"),
    pytest.param(b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2"
                 b"\r\n\r\n{}", id="header-without-colon"),
    pytest.param(buffered(b'{"a": 1}', "9"), id="truncated-body"),
    pytest.param(chunked(("4", b"{}"))[:-5], id="truncated-chunk"),
    pytest.param(chunked(("2", b"{}"))[:-2], id="truncated-trailer"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Len", id="truncated-headers"),
    pytest.param(b"", id="closed"),
    pytest.param(buffered(b"not json", "8"), id="not-json"),
    pytest.param(buffered(b"\xff\xfe", "2"), id="not-utf8"),
    pytest.param(buffered(b"[1]", "3"), id="not-an-object"),
    pytest.param(b"HTTP/1.1 200 OK\r\nX: " + b"x" * 70_000 + b"\r\n",
                 id="header-past-stream-limit"),
])
def test_malformed_response_raises_connection_error(raw):
    with pytest.raises(ConnectionError):
        read_response(raw)


# --------------------------------------------------------------------------- #
# Fuzzing: responses built from labelled parts, then raw bytes
# --------------------------------------------------------------------------- #
_PAYLOADS = st.dictionaries(st.text(max_size=4),
                            st.integers() | st.text(max_size=4), max_size=3)


def _bad_decimal(length: int) -> list[str]:
    return [f"+{length}", f"0_{length}", f"-{length}", f"{length}x",
            f"{length + 1}", "", f"{length}.0"]


def _bad_hex(size: int) -> list[str]:
    return [f"+{size:x}", f"0_{size:x}", f"0x{size:x}", f"-{size:x}",
            f" {size:x}", f"{size:x}g", f"{size + 1:x}", ""]


@st.composite
def labelled_responses(draw):
    """``(raw bytes, expected result or None when the response is bad)``."""
    payload = draw(_PAYLOADS)
    body = json.dumps(payload).encode("utf-8")
    good = True
    status = draw(st.sampled_from(["200", "400", "503", "20", "2000", "2x0"]))
    good &= len(status) == 3 and status.isdigit()
    body_kind = draw(st.sampled_from(["object", "object", "array", "text"]))
    if body_kind == "array":
        body, good = json.dumps([payload]).encode("utf-8"), False
    elif body_kind == "text":
        body, good = body + b"}", False
    head = f"HTTP/1.1 {status} Reason\r\n"
    if draw(st.booleans()):
        length = draw(st.sampled_from([str(len(body))] * 3
                                      + _bad_decimal(len(body))))
        good &= length == str(len(body))
        raw = (head + f"Content-Length: {length}\r\n\r\n").encode() + body
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(body) - 1)),
                                   max_size=3)))
        pieces = [body[start:end] for start, end
                  in zip([0] + cuts, cuts + [len(body)]) if end > start]
        raw = (head + "Transfer-Encoding: chunked\r\n\r\n").encode()
        for piece in pieces:
            size = draw(st.sampled_from([f"{len(piece):x}"] * 4
                                        + [f"{len(piece):X};ext=1"]
                                        + _bad_hex(len(piece))))
            good &= size.split(";")[0].upper() == f"{len(piece):X}"
            raw += size.encode() + b"\r\n" + piece + b"\r\n"
        raw += b"0\r\n\r\n"
    cut = draw(st.integers(0, len(raw)))
    good &= cut == len(raw)
    return raw[:cut], ((int(status), payload) if good else None)


@given(case=labelled_responses())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_framing_returns_only_when_valid(case):
    raw, expected = case
    if expected is None:
        with pytest.raises(ConnectionError):
            read_response(raw)
    else:
        assert read_response(raw) == expected


@given(raw=st.binary(max_size=200)
       | st.builds(lambda tail: b"HTTP/1.1 200 OK\r\n" + tail,
                   st.binary(max_size=200)))
@settings(max_examples=80, deadline=None)
def test_fuzzed_bytes_raise_only_connection_error(raw):
    try:
        status, payload = read_response(raw)
    except ConnectionError:
        return
    assert 0 <= status <= 999 and isinstance(payload, dict)

"""Streamed ``detail: true`` responses: framing, bit-identity, memory.

The contract under test: an HTTP/1.1 ``detail: true`` response is sent
with ``Transfer-Encoding: chunked``, its decoded bytes are *identical* to
the buffered ``json.dumps(..., sort_keys=True)`` body, the generator never
materialises the full body (peak serialization memory stays far below the
body size), and HTTP/1.0 clients — which cannot parse chunked framing —
still get a correct buffered response.
"""

from __future__ import annotations

import asyncio
import json
import tracemalloc

from repro.service.client import ServiceClient
from repro.service.protocol import (
    build_solve_response,
    parse_solve_request,
    solve_response_chunks,
)
from repro.service.server import EquilibriumServer
from repro.simulation.batch import solve_rate_equilibria

DETAIL_REQUEST = {"population": {"count": 120, "seed": 5},
                  "mechanism": "maxmin", "nus": [40.0, 90.0, 140.0],
                  "detail": True}


def run(coro):
    return asyncio.run(coro)


async def with_server(body, **kwargs):
    kwargs.setdefault("window_seconds", 0.005)
    server = EquilibriumServer(port=0, **kwargs)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_closed())
    host, port = server.address
    try:
        return await body(host, port, server)
    finally:
        await server.close()
        await serve_task


def solved_request():
    request = parse_solve_request(dict(DETAIL_REQUEST))
    batch = solve_rate_equilibria(request.population, request.nus,
                                  request.mechanism, request.config)
    return request, batch


class TestChunkGenerator:
    def test_chunks_concatenate_to_canonical_buffered_body(self):
        request, batch = solved_request()
        buffered = build_solve_response(request, batch, coalesced=True,
                                        batch_size=3)
        streamed = b"".join(solve_response_chunks(request, batch,
                                                  coalesced=True,
                                                  batch_size=3))
        assert streamed == json.dumps(buffered,
                                      sort_keys=True).encode("utf-8")

    def test_byte_identity_at_1000_cp_workload(self):
        # Regression: at this scale, computing per-provider rows as
        # (alphas * demands) * thetas instead of the property's
        # alphas * (demands * thetas) rounds differently for hundreds of
        # matrix values, so the streamed body would diverge from the
        # buffered one.  The 120-CP fixture above happens not to expose it.
        payload = {"population": {"count": 1000, "seed": 0},
                   "mechanism": "maxmin",
                   "nus": [float(nu) for nu in range(40, 200, 40)],
                   "detail": True}
        request = parse_solve_request(payload)
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)
        buffered = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        streamed = b"".join(solve_response_chunks(request, batch,
                                                  coalesced=False,
                                                  batch_size=1))
        assert streamed == json.dumps(buffered,
                                      sort_keys=True).encode("utf-8")

    def test_streaming_never_materialises_the_full_body(self):
        # 30k CPs x 8 grid points: the buffered path materialises all 24
        # provider rows as Python lists plus the ~16 MB body string, while
        # the streamed path holds one ~650 kB row (plus json's transient
        # encoder state) at a time.  Peak memory must reflect that.
        payload = {"population": {"count": 30_000, "seed": 1},
                   "mechanism": "maxmin",
                   "nus": [float(nu) for nu in range(40, 200, 20)],
                   "detail": True}
        request = parse_solve_request(payload)
        batch = solve_rate_equilibria(request.population, request.nus,
                                      request.mechanism, request.config)

        def streamed():
            for _ in solve_response_chunks(request, batch, coalesced=False,
                                           batch_size=1):
                pass

        def buffered():
            json.dumps(build_solve_response(request, batch, coalesced=False,
                                            batch_size=1), sort_keys=True)

        # Each peak is taken after ``reset_peak()`` and relative to the size
        # traced just before, so it holds under ``python -X tracemalloc``
        # too, where tracing is already on (and is left on).
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            peaks = []
            for serialize in (streamed, buffered):
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                serialize()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            if not was_tracing:
                tracemalloc.stop()
        streamed_peak, buffered_peak = peaks

        assert streamed_peak < buffered_peak / 2, (
            f"streamed serialization peaked at {streamed_peak} bytes vs "
            f"{buffered_peak} buffered — it is buffering, not streaming")


class TestStreamedResponses:
    def test_detail_response_is_chunked_and_decodes_identically(self):
        async def body(host, port, server):
            raw_body = json.dumps(DETAIL_REQUEST,
                                  sort_keys=True).encode("utf-8")
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(raw_body) + raw_body)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            pieces = []
            while True:
                size = int((await reader.readline()).split(b";")[0], 16)
                if size == 0:
                    await reader.readline()
                    break
                pieces.append(await reader.readexactly(size))
                assert await reader.readexactly(2) == b"\r\n"
            writer.close()
            return head, b"".join(pieces)

        head, raw = run(with_server(body))
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Length" not in head
        request, batch = solved_request()
        buffered = build_solve_response(request, batch, coalesced=False,
                                        batch_size=1)
        assert raw == json.dumps(buffered, sort_keys=True).encode("utf-8")

    def test_client_transparently_decodes_chunked_responses(self):
        async def body(host, port, server):
            async with ServiceClient(host, port) as client:
                status, first = await client.solve(DETAIL_REQUEST)
                # The keep-alive connection survives the chunked response.
                status2, second = await client.solve(DETAIL_REQUEST)
            return status, first, status2, second

        status, first, status2, second = run(with_server(body))
        assert status == 200 and status2 == 200
        assert sorted(first["providers"]) == ["demands", "per_capita_rates",
                                              "thetas"]
        assert first["providers"] == second["providers"]
        request, batch = solved_request()
        assert first["providers"]["demands"] == batch.demands.tolist()
        assert first["providers"]["per_capita_rates"] == (
            batch.per_capita_rates.tolist())

    def test_http_10_detail_gets_a_buffered_body(self):
        async def body(host, port, server):
            raw_body = json.dumps(DETAIL_REQUEST,
                                  sort_keys=True).encode("utf-8")
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /solve HTTP/1.0\r\n"
                b"Content-Length: %d\r\n\r\n" % len(raw_body) + raw_body)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            raw = await reader.readexactly(length)
            writer.close()
            return head, raw

        head, raw = run(with_server(body))
        assert b"Transfer-Encoding" not in head
        payload = json.loads(raw.decode("utf-8"))
        request, batch = solved_request()
        assert payload["providers"]["demands"] == batch.demands.tolist()

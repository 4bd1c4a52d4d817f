"""End-to-end HTTP tests: an in-process server on an ephemeral port.

These pin the outward contract: served bytes match direct solves, identical
concurrent requests coalesce to one engine solve, malformed requests get a
structured 4xx while the server keeps serving, and /stats exposes the
cache + scheduler + server counters.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.allocation import MaxMinFairAllocation
from repro.service import scheduler as scheduler_module
from repro.service.client import ServiceClient
from repro.service.server import EquilibriumServer, _HeadReader, _HttpViolation
from repro.simulation import batch as batch_module
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import paper_population

POPULATION_SPEC = {"count": 80, "seed": 3}
BASE_REQUEST = {"population": POPULATION_SPEC, "mechanism": "maxmin",
                "nus": [50.0, 100.0]}


def run(coro):
    return asyncio.run(coro)


async def with_server(body, **kwargs):
    """Run ``body(host, port, server)`` against a live ephemeral server."""
    kwargs.setdefault("window_seconds", 0.01)
    server = EquilibriumServer(port=0, **kwargs)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_closed())
    host, port = server.address
    try:
        return await body(host, port, server)
    finally:
        await server.close()
        await serve_task


async def solve_once(host, port, payload):
    async with ServiceClient(host, port) as client:
        return await client.solve(payload)


class TestSolveEndpoint:
    def test_response_bit_identical_to_direct_solve(self):
        payload = dict(BASE_REQUEST, price=1.5, detail=True)

        async def body(host, port, server):
            return await solve_once(host, port, payload)

        status, response = run(with_server(body))
        assert status == 200
        population = paper_population(**POPULATION_SPEC)
        direct = solve_rate_equilibria(population, (50.0, 100.0),
                                       MaxMinFairAllocation())
        assert response["fingerprint"] == population.fingerprint().hex()
        series = response["series"]
        assert series["aggregate_rates"] == direct.aggregate_rates.tolist()
        assert series["utilizations"] == direct.utilizations.tolist()
        assert series["consumer_surpluses"] == (
            direct.consumer_surpluses().tolist())
        assert series["premium_revenues"] == (
            direct.premium_revenues(1.5).tolist())
        providers = response["providers"]
        assert providers["thetas"] == direct.thetas.tolist()
        assert providers["demands"] == direct.demands.tolist()
        assert providers["per_capita_rates"] == (
            direct.per_capita_rates.tolist())
        assert response["solver"]["cache_key"][0] == "solver"

    def test_identical_concurrent_requests_coalesce_to_one_solve(self):
        async def body(host, port, server):
            responses = await asyncio.gather(*[
                solve_once(host, port, BASE_REQUEST) for _ in range(8)])
            return responses, server.scheduler.stats()

        responses, stats = run(with_server(body))
        assert all(status == 200 for status, _ in responses)
        assert stats["engine_solves"] == 1
        assert stats["coalesced"] == 7
        bodies = [body for _, body in responses]
        assert sorted(body["served"]["coalesced"] for body in bodies) == (
            [False] + [True] * 7)
        # Every client got byte-identical series.
        canonical = json.dumps(bodies[0]["series"], sort_keys=True)
        assert all(json.dumps(body["series"], sort_keys=True) == canonical
                   for body in bodies)

    def test_union_fusion_returns_each_client_its_own_grid(self):
        grids = [[50.0, 100.0], [100.0, 150.0], [75.0]]

        async def body(host, port, server):
            responses = await asyncio.gather(*[
                solve_once(host, port, dict(BASE_REQUEST, nus=grid))
                for grid in grids])
            return responses, server.scheduler.stats()

        responses, stats = run(with_server(body))
        assert stats["engine_solves"] == 1
        population = paper_population(**POPULATION_SPEC)
        for grid, (status, body) in zip(grids, responses):
            assert status == 200
            assert body["nus"] == grid
            assert body["served"]["batch_size"] == len(grids)
            direct = solve_rate_equilibria(population, grid,
                                           MaxMinFairAllocation())
            assert body["series"]["aggregate_rates"] == (
                direct.aggregate_rates.tolist())
            assert body["series"]["consumer_surpluses"] == (
                direct.consumer_surpluses().tolist())

    def test_coalesced_body_is_encoded_once_per_batch(self, monkeypatch):
        from repro.service import server as server_module

        built = []
        real = server_module.build_solve_response

        def counting(request, batch, **kwargs):
            built.append(kwargs["coalesced"])
            return real(request, batch, **kwargs)

        monkeypatch.setattr(server_module, "build_solve_response", counting)
        priced = dict(BASE_REQUEST, price=1.5)

        async def body(host, port, server):
            async with ServiceClient(host, port) as client:
                plain = [await client.solve(BASE_REQUEST) for _ in range(3)]
                with_price = [await client.solve(priced) for _ in range(2)]
            return plain, with_price

        plain, with_price = run(with_server(body))
        # Solved, then encoded once for the retained hits, then reused; a
        # priced request (a retained hit on the same grid) is encoded each
        # time.
        assert built == [False, True, True, True]
        assert plain[1] == plain[2]
        assert plain[2][1]["served"] == {"coalesced": True, "batch_size": 1}
        assert plain[0][1]["series"] == plain[2][1]["series"]
        assert with_price[0] == with_price[1]
        assert "premium_revenues" in with_price[1][1]["series"]

    def test_fingerprint_follow_up_hits_resident_population(self):
        async def body(host, port, server):
            _, first = await solve_once(host, port, BASE_REQUEST)
            return await solve_once(host, port, {
                "fingerprint": first["fingerprint"], "nus": [60.0]})

        status, response = run(with_server(body))
        assert status == 200
        assert response["nus"] == [60.0]


class TestErrorHandling:
    def test_malformed_requests_get_4xx_and_server_stays_up(self):
        async def body(host, port, server):
            async with ServiceClient(host, port) as client:
                bad_json = await client.request("POST", "/solve", b"{nope")
                bad_grid = await client.solve(
                    dict(BASE_REQUEST, nus=[-1.0]))
                unknown_field = await client.solve(
                    dict(BASE_REQUEST, shard=3))
                unknown_fp = await client.solve(
                    {"fingerprint": "00" * 16, "nus": [1.0]})
                not_found = await client.request("GET", "/missing")
                bad_method = await client.request("PUT", "/solve")
                # The same connection still serves a valid request.
                recovered = await client.solve(BASE_REQUEST)
            return (bad_json, bad_grid, unknown_field, unknown_fp,
                    not_found, bad_method, recovered, server.stats())

        (bad_json, bad_grid, unknown_field, unknown_fp, not_found,
         bad_method, recovered, stats) = run(with_server(body))
        assert (bad_json[0], bad_json[1]["error"]["code"]) == (
            400, "bad_json")
        assert (bad_grid[0], bad_grid[1]["error"]["code"]) == (
            400, "bad_grid")
        assert (unknown_field[0], unknown_field[1]["error"]["code"]) == (
            400, "unknown_field")
        assert (unknown_fp[0], unknown_fp[1]["error"]["code"]) == (
            404, "unknown_fingerprint")
        assert not_found[0] == 404
        assert bad_method[0] == 405
        assert recovered[0] == 200
        assert stats["server"]["request_errors"] == 4

    def test_oversized_detail_request_is_413_and_connection_survives(self):
        nus = [10.0 + index for index in range(4096)]
        oversized = {"population": {"count": 1025, "seed": 3}, "nus": nus,
                     "detail": True}

        async def body(host, port, server):
            async with ServiceClient(host, port) as client:
                refused = await client.solve(oversized)
                aggregates = await client.solve(
                    dict(oversized, detail=False, nus=nus[:8]))
            return refused, aggregates

        refused, aggregates = run(with_server(body))
        assert (refused[0], refused[1]["error"]["code"]) == (
            413, "grid_too_large")
        assert aggregates[0] == 200
        assert len(aggregates[1]["series"]["aggregate_rates"]) == 8

    def test_http_violation_closes_connection_with_400(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            raw = await reader.read(4096)
            writer.close()
            await writer.wait_closed()
            # A fresh connection still works.
            status, _ = await solve_once(host, port, BASE_REQUEST)
            return raw, status

        raw, status = run(with_server(body))
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"bad_http" in raw
        assert status == 200


async def raw_request(reader, writer, *, version="HTTP/1.1", headers=()):
    """One ``GET /healthz`` on an open socket; returns (head, body, eof).

    ``eof`` is True when the server closed the connection afterwards.
    """
    lines = [f"GET /healthz {version}", "Host: t"]
    lines += list(headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length)
    eof = (await reader.read(1)) == b"" if b"close" in head.lower() else False
    return head, body, eof


class TestConnectionHygiene:
    """The RFC 9112 keep-alive semantics fixed in this change."""

    def test_connection_close_is_case_insensitive(self):
        # The pre-fix comparison was exact ("close"), so "Close"/"CLOSE"
        # left the connection open against the client's explicit wish.
        async def body(host, port, server):
            results = []
            for token in ("close", "Close", "CLOSE"):
                reader, writer = await asyncio.open_connection(host, port)
                head, _, eof = await raw_request(
                    reader, writer, headers=(f"Connection: {token}",))
                results.append((token, b"Connection: close" in head, eof))
                writer.close()
            return results

        for token, advertised_close, closed in run(with_server(body)):
            assert advertised_close, f"Connection: {token} not honoured"
            assert closed, f"Connection: {token} left the socket open"

    def test_http_10_defaults_to_close(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            head, _, eof = await raw_request(reader, writer,
                                             version="HTTP/1.0")
            writer.close()
            return head, eof

        head, eof = run(with_server(body))
        assert b"Connection: close" in head
        assert eof

    def test_http_10_keep_alive_header_persists_the_connection(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            first, _, _ = await raw_request(
                reader, writer, version="HTTP/1.0",
                headers=("Connection: keep-alive",))
            # Same socket serves a second request.
            second, _, _ = await raw_request(
                reader, writer, version="HTTP/1.0",
                headers=("Connection: keep-alive",))
            writer.close()
            return first, second

        first, second = run(with_server(body))
        assert b"Connection: keep-alive" in first
        assert b"Connection: keep-alive" in second

    def test_http_11_defaults_to_keep_alive(self):
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            first, _, _ = await raw_request(reader, writer)
            second, _, _ = await raw_request(reader, writer)
            writer.close()
            return first, second

        first, second = run(with_server(body))
        assert b"Connection: keep-alive" in first
        assert b"Connection: keep-alive" in second

    def test_idle_keep_alive_connection_times_out(self):
        # Pre-fix, an idle keep-alive client pinned its handler task
        # forever; now the server closes it after idle_timeout.
        async def body(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            await raw_request(reader, writer)  # one served request
            closed = await asyncio.wait_for(reader.read(1), timeout=5.0)
            writer.close()
            return closed, server.stats()["server"]["idle_timeouts"]

        closed, timeouts = run(with_server(body, idle_timeout=0.2))
        assert closed == b""  # server closed the idle socket
        assert timeouts >= 1

    def test_shutdown_completes_with_idle_client_attached(self):
        # Pre-fix, close() hung until every idle keep-alive client went
        # away on its own; now the idle reader wakes on the closing event.
        async def scenario():
            server = EquilibriumServer(port=0, window_seconds=0.005,
                                       idle_timeout=30.0)
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_closed())
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            await raw_request(reader, writer)  # park an idle keep-alive
            await asyncio.wait_for(server.close(), timeout=5.0)
            await asyncio.wait_for(serve_task, timeout=5.0)
            assert await reader.read(1) == b""
            writer.close()
            return True

        assert run(scenario())


class TestStatsAndLifecycle:
    def test_stats_exposes_caches_scheduler_and_server_counters(self):
        async def body(host, port, server):
            await solve_once(host, port, BASE_REQUEST)
            async with ServiceClient(host, port) as client:
                health = await client.healthz()
                stats = await client.stats()
            return health, stats

        (health_status, health), (stats_status, stats) = run(
            with_server(body))
        assert (health_status, health["status"]) == (200, "ok")
        assert stats_status == 200
        assert stats["schema"] == 1
        assert "service_populations" in stats["caches"]
        assert "class_caps" in stats["caches"]
        assert stats["scheduler"]["requests"] >= 1
        assert stats["server"]["solve_requests"] >= 1

    def test_max_requests_shuts_the_server_down_cleanly(self):
        async def body(host, port, server):
            statuses = []
            for _ in range(2):
                status, _ = await solve_once(host, port, BASE_REQUEST)
                statuses.append(status)
            return statuses

        async def scenario():
            server = EquilibriumServer(port=0, window_seconds=0.005,
                                       max_requests=2)
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_closed())
            host, port = server.address
            statuses = await body(host, port, server)
            await asyncio.wait_for(serve_task, timeout=5.0)
            return statuses

        assert run(scenario()) == [200, 200]

    def test_close_before_serving_binds_no_listener(self):
        # ``close()`` can run before a ``serve_until_closed`` task is first
        # scheduled; the task must then not bind a listener that nothing
        # would ever close.
        async def scenario():
            server = EquilibriumServer(port=0, window_seconds=0.005)
            serve_task = asyncio.create_task(server.serve_until_closed())
            await server.close()
            await asyncio.wait_for(serve_task, timeout=5.0)
            with pytest.raises(RuntimeError, match="not listening"):
                server.address

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(scenario())
            gc.collect()
        leaks = [str(warning.message) for warning in caught
                 if issubclass(warning.category, ResourceWarning)]
        assert leaks == []

    def test_naive_server_reports_no_coalescing(self):
        async def body(host, port, server):
            await asyncio.gather(*[
                solve_once(host, port, BASE_REQUEST) for _ in range(4)])
            return server.scheduler.stats()

        stats = run(with_server(body, naive=True))
        assert stats["naive"] is True
        assert stats["engine_solves"] == 4
        assert stats["coalesced"] == 0


async def exchange_raw(host, port, data, *, timeout=5.0):
    """Send raw bytes, half-close, and read until the server closes.

    A reset counts as a close: the server may drop a connection whose
    unread request bytes it refused.
    """
    reader, writer = await asyncio.open_connection(host, port)
    received = b""
    try:
        writer.write(data)
        writer.write_eof()
        await writer.drain()
        while True:
            chunk = await asyncio.wait_for(reader.read(65536), timeout)
            if not chunk:
                break
            received += chunk
    except ConnectionError:
        pass
    finally:
        writer.close()
    return received


def response_statuses(data):
    """The status of every complete buffered response in ``data``."""
    statuses = []
    while data:
        head, found, rest = data.partition(b"\r\n\r\n")
        if not found:
            break
        statuses.append(int(head.split(b" ", 2)[1]))
        match = re.search(rb"(?im)^content-length: *(\d+)", head)
        length = int(match.group(1)) if match else 0
        data = rest[length:]
    return statuses


def response_bodies(data):
    """The decoded JSON body of every complete buffered response."""
    bodies = []
    while data:
        head, found, rest = data.partition(b"\r\n\r\n")
        if not found:
            break
        length = int(re.search(rb"(?im)^content-length: *(\d+)",
                               head).group(1))
        bodies.append(json.loads(rest[:length]))
        data = rest[length:]
    return bodies


def healthz_bytes(*headers, body=b""):
    lines = ["GET /healthz HTTP/1.1", "Host: t", "Connection: close",
             *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def settled(predicate, timeout=5.0):
    """Whether ``predicate()`` holds within ``timeout`` seconds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


class TestWorkConservingFlush:
    def test_lone_request_does_not_wait_out_the_window(self):
        async def body(host, port, server):
            status, _ = await asyncio.wait_for(
                solve_once(host, port, BASE_REQUEST), timeout=5.0)
            return status, server.scheduler.stats()

        status, stats = run(with_server(body, window_seconds=30.0))
        assert status == 200
        assert stats["batches"] == 1
        assert (stats["idle_flushes"], stats["window_flushes"]) == (1, 0)

    def test_admitted_count_returns_to_zero(self):
        """Every way a request can end releases its admission."""
        truncated = (b"POST /solve HTTP/1.1\r\nContent-Length: 40\r\n\r\n"
                     b"{\"nus\"")
        solve = json.dumps(BASE_REQUEST).encode()
        valid = (b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                 % len(solve)) + solve

        async def body(host, port, server):
            admitted = []

            async def record():
                admitted.append(await settled(
                    lambda: server.scheduler.admitted == 0))

            # Malformed: a JSON error, then a framing violation.
            await exchange_raw(host, port, b"POST /solve HTTP/1.1\r\n"
                               b"Connection: close\r\n"
                               b"Content-Length: 5\r\n\r\n{nope")
            await record()
            await exchange_raw(host, port, b"garbage\r\n\r\n")
            await record()
            # Idle timeout in the middle of a body.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(truncated)
            closed = await asyncio.wait_for(reader.read(1), timeout=5.0)
            writer.close()
            await record()
            # Client disconnects: inside the headers, inside the body, and
            # while its solve runs.
            for data in (b"POST /solve HTTP/1.1\r\nHost: t", truncated,
                         valid):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                await writer.drain()
                writer.close()
                await record()
            status, _ = await solve_once(host, port, BASE_REQUEST)
            await record()
            return admitted, closed, status, server.stats()["server"]

        admitted, closed, status, counters = run(
            with_server(body, idle_timeout=0.3))
        assert admitted == [True] * 7
        assert closed == b""
        assert counters["idle_timeouts"] >= 1
        assert status == 200


def post_bytes(payload, *headers):
    body = json.dumps(payload).encode()
    lines = ["POST /solve HTTP/1.1", "Host: t", "Connection: close",
             f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"), body


class TestRequestReadBounds:
    """Every header line and the body get the idle timeout, each read its
    own: slow but steady clients are served, stalled ones are closed."""

    def test_slow_header_lines_inside_the_timeout_are_served(self):
        head, body = post_bytes(BASE_REQUEST, "X-One: 1", "X-Two: 2")
        lines = head.split(b"\r\n")

        async def client(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            # Seven pauses of 0.15 s: over a second in total, each pause
            # well inside the 0.6 s bound.
            for line in lines[:-2]:
                writer.write(line + b"\r\n")
                await writer.drain()
                await asyncio.sleep(0.15)
            writer.write(b"\r\n")
            await asyncio.sleep(0.15)
            writer.write(body)
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            return raw, server.stats()["server"]

        raw, counters = run(with_server(client, idle_timeout=0.6))
        assert response_statuses(raw) == [200]
        assert counters["idle_timeouts"] == 0

    def test_trickled_header_lines_are_served(self):
        """Lines closer together than the bound's slack move the deadline
        lazily, but never let it fall behind by more than the slack."""
        extra = [f"X-Line-{index}: {index}" for index in range(40)]
        head, body = post_bytes(BASE_REQUEST, *extra)

        async def client(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            # 40+ lines 0.02 s apart: 0.8 s in all against a 0.5 s bound.
            for line in head.split(b"\r\n")[:-2]:
                writer.write(line + b"\r\n")
                await writer.drain()
                await asyncio.sleep(0.02)
            writer.write(b"\r\n" + body)
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            return raw, server.stats()["server"]

        raw, counters = run(with_server(client, idle_timeout=0.5))
        assert response_statuses(raw) == [200]
        assert counters["idle_timeouts"] == 0

    @pytest.mark.parametrize("cut", ["headers", "body"])
    def test_stall_mid_request_closes_and_counts(self, cut):
        head, body = post_bytes(BASE_REQUEST)
        data = head[:-4] if cut == "headers" else head + body[:-5]

        async def client(host, port, server):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(data)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return raw, server.stats()["server"]

        raw, counters = run(with_server(client, idle_timeout=0.2))
        assert raw == b""  # closed without an answer
        assert counters["idle_timeouts"] == 1
        assert counters["requests_total"] == 0


class TestSolveSlicesOnTheLoop:
    def test_other_requests_are_answered_between_slices(self, monkeypatch):
        # One grid point per slice: the 200-point solve takes 200 slices,
        # and the loop answers the health check and the retained hit sent
        # after its first slice before it answers the solve itself.
        count = POPULATION_SPEC["count"]
        monkeypatch.setattr(scheduler_module, "SOLVE_SLICE_CELLS", count)
        real = batch_module.warm_equilibrium_cache
        first_slice = asyncio.Event()
        slices = []

        def recording(population, nus, *args, **kwargs):
            if len(population) == count:
                slices.append(len(nus))
                first_slice.set()
            return real(population, nus, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "warm_equilibrium_cache",
                            recording)
        wide = dict(BASE_REQUEST, nus=[1.0 + k for k in range(200)])
        order = []

        async def record(label, request):
            status, _ = await request
            order.append((label, status, len(slices)))

        async def client(host, port, server):
            await solve_once(host, port, BASE_REQUEST)  # retained from now
            first_slice.clear()
            slices.clear()
            solve = asyncio.create_task(
                record("solve", solve_once(host, port, wide)))
            await first_slice.wait()
            async with ServiceClient(host, port) as other:
                await record("healthz", other.healthz())
                await record("retained", other.solve(BASE_REQUEST))
            await solve
            return server.scheduler.stats()

        stats = run(with_server(client))
        assert [label for label, _, _ in order] == [
            "healthz", "retained", "solve"]
        assert all(status == 200 for _, status, _ in order)
        assert order[1][2] < 200  # answered while the solve was slicing
        assert slices == [1] * 200
        assert stats["retained_hits"] == 1


class TestRequestFraming:
    """Strict ``Content-Length`` framing (RFC 9112 section 6)."""

    @pytest.mark.parametrize("value", ["+55", "5_5", "-55", "0x37",
                                       "55 55", "\u00b2"])
    def test_non_digit_content_length_is_400(self, value):
        async def body(host, port, server):
            return await exchange_raw(host, port, healthz_bytes(
                f"Content-Length: {value}", body=b"x" * 55))

        raw = run(with_server(body))
        assert response_statuses(raw) == [400]
        assert b"bad_http" in raw

    @pytest.mark.parametrize("headers", [
        ("Content-Length: 2", "Content-Length: 55"),
        ("Content-Length: 55", "Content-Length: 2"),
        ("Content-Length: 55, 2",),
    ])
    def test_conflicting_content_lengths_are_400_and_close(self, headers):
        async def body(host, port, server):
            # No ``Connection: close``: the server must close by itself.
            data = ("POST /solve HTTP/1.1\r\n" + "\r\n".join(headers)
                    + "\r\n\r\n").encode() + b"x" * 55
            return await exchange_raw(host, port, data)

        raw = run(with_server(body))
        assert response_statuses(raw) == [400]
        assert b"bad_http" in raw and b"Connection: close" in raw

    def test_agreeing_content_lengths_are_accepted(self):
        async def body(host, port, server):
            return await exchange_raw(host, port, healthz_bytes(
                "Content-Length: 3", "Content-Length: 3, 3", body=b"abc"))

        assert response_statuses(run(with_server(body))) == [200]

    @pytest.mark.parametrize("coding", ["chunked", "gzip, chunked",
                                        "identity"])
    def test_transfer_encoding_gets_one_error_and_a_close(self, coding):
        async def body(host, port, server):
            data = (f"POST /solve HTTP/1.1\r\nTransfer-Encoding: {coding}"
                    f"\r\n\r\n").encode() + b"5\r\nhello\r\n0\r\n\r\n"
            raw = await exchange_raw(host, port, data)
            return raw, server.stats()["server"]

        raw, counters = run(with_server(body))
        assert response_statuses(raw) == [400]
        assert b"bad_http" in raw
        assert counters["requests_total"] == 0  # no second request parsed


    def test_over_long_header_line_is_400_and_close(self):
        # A line over 64 KiB used to escape the handler as a ValueError:
        # no reply, and an unhandled exception in the loop's log.
        async def body(host, port, server):
            return await exchange_raw(host, port, healthz_bytes(
                "X-Long: " + "a" * 70_000))

        raw = run(with_server(body))
        assert response_statuses(raw) == [400]
        assert b"bad_http" in raw and b"Connection: close" in raw


class TestPipelining:
    def test_pipelined_hit_is_answered_after_the_cold_request(self):
        hot = dict(BASE_REQUEST, nus=[50.0, 100.0])
        cold = dict(BASE_REQUEST, nus=[30.0, 70.0, 120.0])

        def request(payload):
            body = json.dumps(payload).encode()
            return (b"POST /solve HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body)) + body

        async def body(host, port, server):
            await solve_once(host, port, hot)  # retained from now on
            # One segment: the hit could be answered at once, but must
            # wait for the cold solve ahead of it on its connection.
            raw = await exchange_raw(host, port,
                                     request(cold) + request(hot))
            return raw, server.scheduler.stats()

        raw, stats = run(with_server(body))
        assert response_statuses(raw) == [200, 200]
        first, second = response_bodies(raw)
        assert (first["nus"], second["nus"]) == (cold["nus"], hot["nus"])
        assert first["served"]["coalesced"] is False
        assert second["served"]["coalesced"] is True
        assert stats["retained_hits"] == 1


_FIELD = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF),
                 max_size=12)
_REQUEST_LINES = st.one_of(
    st.sampled_from(["POST /solve HTTP/1.1", "GET /healthz HTTP/1.1",
                     "GET /stats HTTP/1.0", "PUT /solve HTTP/1.1",
                     "GET /healthz HTTP/2.0", "", " "]),
    st.builds("{} {} {}".format, _FIELD, _FIELD, _FIELD))
_LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=96).map(str),
    st.sampled_from(["+5", "5_5", "-1", "0x10", "", "1e3", "3, 4",
                     str(1 << 40)]),
    _FIELD)
_HEADER_LINES = st.one_of(
    _LENGTHS.map("Content-Length: {}".format),
    st.sampled_from(["Transfer-Encoding: chunked", "Connection: close",
                     "Connection: keep-alive", "Host: t", "no colon",
                     ":", " folded"]),
    st.builds("{}: {}".format, _FIELD, _FIELD))
_HEADERS = st.one_of(
    st.lists(_HEADER_LINES, max_size=8),
    st.integers(min_value=65, max_value=90).map(
        lambda count: ["X-Flood: 1"] * count))
_RAW_REQUESTS = st.one_of(
    st.builds(lambda line, headers, body: "\r\n".join(
        [line, *headers, "", ""]).encode("latin-1") + body,
        _REQUEST_LINES, _HEADERS, st.binary(max_size=96)),
    st.binary(max_size=160))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_RAW_REQUESTS)
def test_fuzzed_requests_never_get_5xx_or_hang(data):
    """Raw request bytes get 4xx answers or a close — never a 5xx, never a
    hang past the idle timeout — and leave the server whole."""
    idle_timeout = 1.0

    async def body(host, port, server):
        raw = await exchange_raw(host, port, data,
                                 timeout=idle_timeout + 4.0)
        released = await settled(lambda: server.scheduler.admitted == 0)
        reader, writer = await asyncio.open_connection(host, port)
        head, _, _ = await raw_request(reader, writer)
        writer.close()
        return raw, released, head

    raw, released, head = run(with_server(body, idle_timeout=idle_timeout))
    assert all(status < 500 for status in response_statuses(raw)), raw
    assert released
    assert head.startswith(b"HTTP/1.1 200 ")


def read_head(segments, at_eof):
    """What a :class:`_HeadReader` makes of ``segments`` arriving in turn."""
    reader, buffer = _HeadReader(), bytearray()
    for index, segment in enumerate(segments):
        buffer += segment
        try:
            head = reader.read(buffer, at_eof and index == len(segments) - 1)
        except _HttpViolation as violation:
            return "refused", str(violation)
        if head is not None:
            return "head", head
    return "incomplete", None


@settings(max_examples=200, deadline=None)
@given(data=_RAW_REQUESTS,
       cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
       at_eof=st.booleans())
def test_head_reader_result_does_not_depend_on_segmentation(data, cuts,
                                                            at_eof):
    """Each line is read once as it completes; however the bytes are cut
    into segments, the head (or the refusal) is the one read at once."""
    points = sorted({min(cut, len(data)) for cut in cuts})
    segments = [data[start:end] for start, end
                in zip([0, *points], [*points, len(data)])]
    assert read_head(segments, at_eof) == read_head([data], at_eof)

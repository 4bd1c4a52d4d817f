"""End-to-end HTTP tests: an in-process server on an ephemeral port.

These pin the outward contract: served bytes match direct solves, identical
concurrent requests coalesce to one engine solve, malformed requests get a
structured 4xx while the server keeps serving, and /stats exposes the
cache + scheduler + server counters.
"""

from __future__ import annotations

import asyncio
import json

from repro.network.allocation import MaxMinFairAllocation
from repro.service.client import ServiceClient
from repro.service.server import EquilibriumServer
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

    def test_naive_server_reports_no_coalescing(self):
        async def body(host, port, server):
            await asyncio.gather(*[
                solve_once(host, port, BASE_REQUEST) for _ in range(4)])
            return server.scheduler.stats()

        stats = run(with_server(body, naive=True))
        assert stats["naive"] is True
        assert stats["engine_solves"] == 4
        assert stats["coalesced"] == 0

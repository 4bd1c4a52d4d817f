"""Multi-process serving: stats merging, bit-identity, graceful drain.

The merge function is pure and unit-tested directly; the process-level
contract (N workers on one ``SO_REUSEPORT`` port, merged ``/stats``,
SIGTERM drains every worker to exit 0) runs against a real
``repro-netneutrality serve --workers 2`` subprocess.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network.allocation import MaxMinFairAllocation
from repro.service.client import ServiceClient
from repro.service.multiproc import merge_worker_stats
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import paper_population

_BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")


def _worker_payload(index, *, requests=10, coalesced=4, hits=6, misses=2,
                    unreachable=False):
    if unreachable:
        return {"worker": {"index": index}, "unreachable": True}
    return {
        "schema": 1,
        "worker": {"index": index, "pid": 1000 + index},
        "server": {"requests_total": requests + 1,
                   "solve_requests": requests, "request_errors": 0,
                   "idle_timeouts": 1},
        "scheduler": {"window_seconds": 0.002, "naive": False,
                      "requests": requests,
                      "coalesced": coalesced,
                      "coalesce_rate": coalesced / requests,
                      "engine_solves": requests - coalesced, "errors": 0},
        "caches": {"class_caps": {"size": 3, "maxsize": 16384, "hits": hits,
                                  "misses": misses,
                                  "hit_rate": hits / (hits + misses),
                                  "evictions_maxsize": 0}},
    }


class TestMergeWorkerStats:
    def test_counters_sum_and_config_comes_from_first_worker(self):
        merged = merge_worker_stats([
            _worker_payload(0, requests=10, coalesced=4, hits=6, misses=2),
            _worker_payload(1, requests=30, coalesced=12, hits=18,
                            misses=6),
        ])
        assert merged["worker_count"] == 2
        assert merged["unreachable_workers"] == 0
        assert merged["server"]["solve_requests"] == 40
        assert merged["server"]["idle_timeouts"] == 2
        scheduler = merged["scheduler"]
        assert scheduler["requests"] == 40
        assert scheduler["coalesced"] == 16
        assert scheduler["coalesce_rate"] == pytest.approx(16 / 40)
        assert scheduler["window_seconds"] == 0.002  # config, not summed
        assert scheduler["naive"] is False
        class_caps = merged["caches"]["class_caps"]
        assert class_caps["hits"] == 24 and class_caps["misses"] == 8
        assert class_caps["hit_rate"] == pytest.approx(24 / 32)
        assert class_caps["maxsize"] == 16384  # config, not summed
        assert class_caps["size"] == 6  # entries are per-worker, so summed

    def test_retention_counters_sum_across_workers(self):
        payloads = [_worker_payload(0), _worker_payload(1)]
        for payload, hits, points in zip(payloads, (5, 7), (8, 12)):
            payload["scheduler"].update(retained_hits=hits,
                                        retained_points=points)
        scheduler = merge_worker_stats(payloads)["scheduler"]
        assert scheduler["retained_hits"] == 12
        assert scheduler["retained_points"] == 20  # retained per worker

    def test_flush_reason_counters_sum_across_workers(self):
        payloads = [_worker_payload(0), _worker_payload(1)]
        for payload, idle, window in zip(payloads, (5, 7), (1, 2)):
            payload["scheduler"].update(idle_flushes=idle,
                                        window_flushes=window)
        scheduler = merge_worker_stats(payloads)["scheduler"]
        assert (scheduler["idle_flushes"], scheduler["window_flushes"]) == (
            12, 3)

    def test_workers_list_is_ordered_by_index(self):
        merged = merge_worker_stats([_worker_payload(2),
                                     _worker_payload(0),
                                     _worker_payload(1)])
        assert [w["worker"]["index"] for w in merged["workers"]] == [0, 1, 2]

    def test_unreachable_worker_is_reported_not_summed(self):
        merged = merge_worker_stats([
            _worker_payload(0, requests=10, coalesced=4),
            _worker_payload(1, unreachable=True),
        ])
        assert merged["worker_count"] == 2
        assert merged["unreachable_workers"] == 1
        assert merged["scheduler"]["requests"] == 10
        assert any(w.get("unreachable") for w in merged["workers"])


def _spawn(*args):
    """A Python subprocess of the repository's ``src`` tree, its stdout
    and stderr on one text pipe."""
    root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, text=True,
                            cwd=str(root))


@pytest.fixture(scope="module")
def worker_group():
    """A real ``serve --workers 2`` subprocess on an ephemeral port."""
    process = _spawn("-m", "repro.cli", "serve", "--workers", "2",
                     "--port", "0", "--idle-timeout", "30")
    assert process.stdout is not None
    banner = process.stdout.readline()
    match = _BANNER.search(banner)
    if match is None:
        process.kill()
        process.communicate()
        raise RuntimeError(f"no serving banner: {banner!r}")
    yield match.group(1), int(match.group(2)), process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    process.communicate(timeout=30)  # reaps the group, closes its pipe


async def _solve(host, port, payload):
    async with ServiceClient(host, port) as client:
        return await client.solve(payload)


class TestWorkerGroup:
    @pytest.mark.parametrize("count,seed,nus", [
        (60, 0, (50.0, 100.0)),
        (60, 7, (25.0, 75.0, 125.0)),
        (150, 3, (40.0,)),
    ])
    def test_served_series_bit_identical_for_any_worker(self, worker_group,
                                                        count, seed, nus):
        host, port, _ = worker_group
        payload = {"population": {"count": count, "seed": seed},
                   "mechanism": "maxmin", "nus": list(nus)}
        # New connections each round, so the kernel is free to spread them
        # across both workers; every answer must still be bit-identical to
        # the direct solve.
        responses = [asyncio.run(_solve(host, port, payload))
                     for _ in range(4)]
        direct = solve_rate_equilibria(paper_population(count=count,
                                                        seed=seed),
                                       nus, MaxMinFairAllocation())
        for status, body in responses:
            assert status == 200
            assert body["series"]["aggregate_rates"] == (
                direct.aggregate_rates.tolist())
            assert body["series"]["utilizations"] == (
                direct.utilizations.tolist())
            assert body["series"]["consumer_surpluses"] == (
                direct.consumer_surpluses().tolist())

    def test_merged_stats_covers_both_workers(self, worker_group):
        host, port, _ = worker_group

        async def fetch():
            async with ServiceClient(host, port) as client:
                _, merged = await client.stats()
                _, local = await client.request("GET",
                                                "/stats?scope=local")
            return merged, local

        merged, local = asyncio.run(fetch())
        assert merged["worker_count"] == 2
        assert merged["unreachable_workers"] == 0
        indices = sorted(w["worker"]["index"] for w in merged["workers"])
        assert indices == [0, 1]
        pids = {w["worker"]["pid"] for w in merged["workers"]}
        assert len(pids) == 2  # genuinely distinct processes
        # Aggregate view keeps the single-process shape on top.
        assert "caches" in merged and "scheduler" in merged
        assert merged["server"]["solve_requests"] >= 1
        # scope=local answers with exactly one worker's payload.
        assert "workers" not in local
        assert local["worker"]["index"] in (0, 1)

    def test_sigterm_drains_both_workers_to_exit_zero(self, worker_group):
        host, port, process = worker_group

        # Park an idle keep-alive connection; the drain must not wait on it.
        async def park_and_terminate():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            process.send_signal(signal.SIGTERM)
            loop = asyncio.get_running_loop()
            exit_code = await loop.run_in_executor(
                None, lambda: process.wait(timeout=30))
            writer.close()
            return exit_code

        assert asyncio.run(park_and_terminate()) == 0


#: ``serve --workers 2`` with ``_supervise`` entered a second late, which
#: widens the start-up window between the banner and the coordinator's
#: signal handling.
_LATE_SUPERVISOR = """
import sys, time
from repro.cli import main
from repro.service import multiproc
supervise = multiproc._supervise
def late_supervise(processes):
    time.sleep(1.0)
    return supervise(processes)
multiproc._supervise = late_supervise
sys.exit(main(["serve", "--workers", "2", "--port", "0"]))
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_at_the_banner_drains_the_group():
    """A SIGTERM that arrives before the coordinator forwards signals is
    held, not fatal: the group still drains to exit 0 and leaves no
    worker behind."""
    process = _spawn("-c", _LATE_SUPERVISOR)
    pids = []
    try:
        assert process.stdout is not None
        match = _BANNER.search(process.stdout.readline())
        assert match is not None
        host, port = match.group(1), int(match.group(2))

        async def worker_pids():
            async with ServiceClient(host, port) as client:
                _, merged = await client.stats()
            return [worker["worker"]["pid"] for worker in merged["workers"]]

        pids = asyncio.run(worker_pids())
        assert len(pids) == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert not [pid for pid in pids if _alive(pid)]
    finally:
        # Orphans of a coordinator the signal killed hold its stdout open.
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        if process.poll() is None:
            process.kill()
        process.communicate(timeout=30)


def test_single_worker_cli_rejects_bad_flags():
    from repro.cli import main
    assert main(["serve", "--workers", "0"]) == 2
    assert main(["serve", "--idle-timeout", "-1"]) == 2

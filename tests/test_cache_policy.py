"""Cache policy: every solver cache is bounded by its entry count alone.

Pins the ``maxsize >= 1`` contract, the exact counter set that
``stats()`` / ``all_cache_stats()`` / ``GET /stats`` report, and the
resident-population bound of the service's ``service_populations`` cache.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache import LRUCache, all_cache_stats
from repro.service import protocol
from repro.service.protocol import RequestError, parse_solve_request

STATS_KEYS = {"size", "maxsize", "hits", "misses", "hit_rate",
              "evictions_maxsize"}


class TestMaxsize:
    @pytest.mark.parametrize("maxsize", [0, None, -1, 2.5, "64"])
    def test_maxsize_must_be_an_integer_of_at_least_one(self, maxsize):
        with pytest.raises(ValueError):
            LRUCache(maxsize=maxsize)

    def test_one_entry_cache_keeps_the_latest_put(self):
        cache = LRUCache(maxsize=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") is None and cache.get("b") == 2
        assert cache.stats()["evictions_maxsize"] == 1

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)  # refreshes "a"; still two entries
        assert len(cache) == 2 and cache.stats()["evictions_maxsize"] == 0
        cache.put("c", 4)  # "b" is now the least recently used
        assert cache.get("b") is None and cache.get("a") == 3

    def test_get_or_compute_caches_a_none_value(self):
        cache = LRUCache(maxsize=2)
        calls = []
        for _ in range(2):
            assert cache.get_or_compute("a", lambda: calls.append(1)) is None
        assert calls == [1]
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_clear_drops_entries_and_counters(self):
        cache = LRUCache(maxsize=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("b")
        cache.clear()
        assert cache.stats() == {"size": 0, "maxsize": 1, "hits": 0,
                                 "misses": 0, "hit_rate": 0.0,
                                 "evictions_maxsize": 0}

    def test_registered_cache_bounds(self):
        stats = all_cache_stats()
        assert stats["class_caps"]["maxsize"] == 16384
        assert stats["partition_outcomes"]["maxsize"] == 512
        assert stats["service_populations"]["maxsize"] == 64


class TestStatsShape:
    def test_stats_carry_exactly_the_count_counters(self):
        assert set(LRUCache(maxsize=4).stats()) == STATS_KEYS

    def test_all_cache_stats_carry_exactly_the_count_counters(self):
        stats = all_cache_stats()
        assert {"class_caps", "partition_outcomes",
                "service_populations"} <= stats.keys()
        for entry in stats.values():
            assert set(entry) == STATS_KEYS

    def test_server_stats_carry_exactly_the_count_counters(self):
        from repro.service.server import EquilibriumServer

        async def scenario():
            server = EquilibriumServer(port=0, window_seconds=0.005)
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_closed())
            try:
                return server.stats()
            finally:
                await server.close()
                await serve_task

        payload = asyncio.run(scenario())
        assert "class_caps" in payload["caches"]
        for entry in payload["caches"].values():
            assert set(entry) == STATS_KEYS


class TestResidentPopulationBound:
    def test_service_populations_hold_thirty_two_populations(self):
        # Each resolved population takes two entries (spec and
        # fingerprint), so the 64-entry cache keeps the latest 32.
        protocol._POPULATION_CACHE.clear()
        fingerprints = []
        for seed in range(33):
            request = parse_solve_request({
                "population": {"count": 5, "seed": seed}, "nus": [1.0]})
            fingerprints.append(request.population.fingerprint().hex())
        assert len(set(fingerprints)) == 33
        with pytest.raises(RequestError) as excinfo:
            parse_solve_request({"fingerprint": fingerprints[0],
                                 "nus": [1.0]})
        assert excinfo.value.code == "unknown_fingerprint"
        assert excinfo.value.status == 404
        for fingerprint in (fingerprints[1], fingerprints[-1]):
            request = parse_solve_request({"fingerprint": fingerprint,
                                           "nus": [1.0]})
            assert request.population.fingerprint().hex() == fingerprint

"""Cache memory-pressure policy: byte budgets and counters.

Pins the eviction layer added for the long-lived service: approximate
entry sizing, the ``REPRO_CACHE_MAX_BYTES`` environment knob, the
maxsize/byte-budget interaction, and the eviction counters surfaced
through ``stats()`` / ``all_cache_stats()`` / ``GET /stats``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cache import (
    MAX_BYTES_ENV_VAR,
    LRUCache,
    approx_size,
    all_cache_stats,
)


def sized_cache(**kwargs):
    """A cache whose sizer charges each int value its own number of bytes."""
    kwargs.setdefault("sizer", lambda value: int(value))
    return LRUCache(**kwargs)


class TestByteBudget:
    def test_byte_budget_evicts_lru_until_it_holds(self):
        cache = sized_cache(maxsize=None, max_bytes=100)
        cache.put("a", 40)
        cache.put("b", 40)
        cache.put("c", 40)  # 120 > 100: evicts "a", the LRU
        assert cache.get("a") is None
        assert cache.get("b") == 40 and cache.get("c") == 40
        stats = cache.stats()
        assert stats["evictions_bytes"] == 1
        assert stats["evictions_maxsize"] == 0
        assert stats["current_bytes"] == 80

    def test_recency_protects_entries_from_byte_eviction(self):
        cache = sized_cache(maxsize=None, max_bytes=100)
        cache.put("a", 40)
        cache.put("b", 40)
        assert cache.get("a") == 40  # refresh "a"
        cache.put("c", 40)  # now "b" is the LRU
        assert cache.get("b") is None
        assert cache.get("a") == 40

    def test_oversize_value_is_rejected_not_stored(self):
        cache = sized_cache(maxsize=None, max_bytes=100)
        cache.put("small", 10)
        cache.put("huge", 500)  # bigger than the whole budget
        assert cache.get("huge") is None
        assert cache.get("small") == 10  # resident entries untouched
        assert cache.stats()["rejected_oversize"] == 1

    def test_overwrite_replaces_the_old_entry_size(self):
        cache = sized_cache(maxsize=None, max_bytes=100)
        cache.put("a", 80)
        cache.put("a", 30)
        assert cache.stats()["current_bytes"] == 30
        cache.put("b", 60)  # 90 <= 100, no eviction needed
        assert cache.get("a") == 30 and cache.get("b") == 60

    def test_maxsize_and_byte_budget_interact(self):
        # maxsize evicts on entry count, max_bytes on the size sum; the
        # counters attribute each eviction to the bound that caused it.
        cache = sized_cache(maxsize=2, max_bytes=100)
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)  # entry-count eviction ("a")
        assert cache.get("a") is None
        cache.put("d", 95)  # byte eviction: 95 + 10 + 10 > 100
        stats = cache.stats()
        assert stats["evictions_maxsize"] >= 1
        assert stats["evictions_bytes"] >= 1
        assert cache.stats()["current_bytes"] <= 100
        assert len(cache) <= 2


class TestEnvConfiguration:
    def test_named_cache_reads_env_budget(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "4096")
        cache = LRUCache(maxsize=4, name="policy-env-test")
        assert cache.max_bytes == 4096

    def test_unnamed_cache_ignores_env(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "4096")
        cache = LRUCache(maxsize=4)
        assert cache.max_bytes is None

    def test_explicit_bounds_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "4096")
        cache = LRUCache(maxsize=4, name="policy-env-explicit",
                         max_bytes=128)
        assert cache.max_bytes == 128

    @pytest.mark.parametrize("raw", ["garbage", "-5", "0", "1.5.2"])
    def test_garbage_env_budget_raises(self, monkeypatch, raw):
        # A typo in a memory budget must not silently disable the budget.
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, raw)
        with pytest.raises(ValueError):
            LRUCache(maxsize=4, name="policy-env-garbage")

    def test_invalid_constructor_bounds_raise(self):
        with pytest.raises(ValueError):
            LRUCache(max_bytes=0)
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)


class TestApproxSize:
    def test_numpy_arrays_are_sized_exactly(self):
        array = np.zeros((100, 50), dtype=np.float64)
        size = approx_size(array)
        assert array.nbytes <= size <= array.nbytes + 1024

    def test_composite_values_walk_their_arrays(self):
        arrays = {"a": np.zeros(1000), "b": np.ones(2000)}
        assert approx_size(arrays) >= 3000 * 8

    def test_population_inside_a_value_is_a_cheap_reference(self):
        # Thousands of cached outcomes share one resident population;
        # charging each entry for its columns would evict everything.
        from repro.workloads.populations import paper_population

        population = paper_population(count=5000)
        full = approx_size(population)
        assert full >= 5000 * 8  # root: charged its column bytes
        nested = approx_size({"population": population, "x": 1.0})
        assert nested < 1000  # reference cost, not column bytes

    def test_shared_arrays_in_one_entry_count_once(self):
        array = np.zeros(10_000)
        single = approx_size([array])
        double = approx_size([array, array])
        assert double < single + 1024


class TestRegisteredCacheStats:
    def test_all_cache_stats_carries_eviction_counters(self):
        stats = all_cache_stats()
        assert "class_caps" in stats
        for entry in stats.values():
            for key in ("evictions_maxsize", "evictions_bytes",
                        "rejected_oversize", "current_bytes", "max_bytes"):
                assert key in entry

    def test_server_stats_surface_the_new_counters(self):
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
        class_caps = payload["caches"]["class_caps"]
        assert "evictions_bytes" in class_caps
        assert "rejected_oversize" in class_caps
        assert "idle_timeouts" in payload["server"]

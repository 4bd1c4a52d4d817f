"""Concurrency-safety stress tests for :class:`repro.cache.LRUCache`.

The equilibrium service runs its batch solves on executor threads while the
event loop keeps accepting requests, so the shared solver caches are
hammered from several threads at once.  These tests pin the lock contract:
no exceptions, no lost counter updates, the size bound holds, and the
single-threaded semantics (hit/miss accounting, eviction order) are
unchanged.
"""

from __future__ import annotations

import threading

from repro.cache import LRUCache

THREADS = 8
OPS_PER_THREAD = 2000


def _run_threads(worker) -> list[Exception]:
    """Run ``worker(thread_index)`` on THREADS threads; collect exceptions."""
    errors: list[Exception] = []
    lock = threading.Lock()

    def run(index: int) -> None:
        try:
            worker(index)
        except Exception as error:  # pragma: no cover - failure path
            with lock:
                errors.append(error)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestConcurrentAccess:
    def test_mixed_get_put_storm_keeps_invariants(self):
        cache = LRUCache(maxsize=64)

        def worker(index: int) -> None:
            for op in range(OPS_PER_THREAD):
                key = ("k", (index * OPS_PER_THREAD + op) % 200)
                if op % 3 == 0:
                    cache.put(key, op)
                else:
                    value = cache.get(key)
                    assert value is None or isinstance(value, int)
                assert len(cache) <= 64

        assert _run_threads(worker) == []
        assert len(cache) <= 64
        stats = cache.stats()
        # Every get() resolved to exactly one hit or one miss: 2/3 of the
        # per-thread ops are gets, and no update may be lost under the lock.
        expected_gets = THREADS * sum(
            1 for op in range(OPS_PER_THREAD) if op % 3 != 0)
        assert stats["hits"] + stats["misses"] == expected_gets

    def test_get_or_compute_storm_counts_every_probe(self):
        cache = LRUCache(maxsize=64)
        computed = []
        computed_lock = threading.Lock()

        def worker(index: int) -> None:
            for op in range(OPS_PER_THREAD):
                key = ("k", op % 50)

                def compute() -> int:
                    with computed_lock:
                        computed.append(key)
                    return op

                value = cache.get_or_compute(key, compute)
                assert isinstance(value, int)

        assert _run_threads(worker) == []
        stats = cache.stats()
        # Each call probes exactly once; the probe is a hit or a miss.
        assert stats["hits"] + stats["misses"] == THREADS * OPS_PER_THREAD
        # Misses and computations line up one-to-one (the lock is released
        # around compute(), so concurrent first touches may both compute —
        # each such race also counted a miss).
        assert stats["misses"] == len(computed)
        assert len(cache) == 50

    def test_concurrent_clear_does_not_corrupt(self):
        cache = LRUCache(maxsize=32)

        def worker(index: int) -> None:
            for op in range(OPS_PER_THREAD):
                key = ("k", op % 80)
                if index == 0 and op % 97 == 0:
                    cache.clear()
                elif op % 2 == 0:
                    cache.put(key, op)
                else:
                    cache.get(key)
                    cache.stats()
                    key in cache  # noqa: B015 - exercising __contains__

        assert _run_threads(worker) == []
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] >= 0 and stats["misses"] >= 0

    def test_single_threaded_semantics_unchanged(self):
        """The lock must not alter hit/miss accounting or eviction order."""
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency of "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats == {"size": 2, "maxsize": 2, "hits": 3, "misses": 1,
                         "hit_rate": 0.75, "evictions_maxsize": 1}

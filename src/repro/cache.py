"""A small LRU cache used by the equilibrium and game solvers.

The solvers memoise pure computations (rate equilibria of immutable
populations, CP-partition outcomes of fixed game instances), so cache hits
are guaranteed to be bit-identical to recomputation.  ``functools.lru_cache``
is unsuitable because the cached functions take numpy arrays and optional
collaborator objects; this class keys on explicitly-constructed hashable
tuples instead and exposes hit/miss counters for the benchmark harness.

The one bound is the entry count (``maxsize``).  Entries never go stale
(every cached computation is pure over immutable inputs), so nothing
expires by age; ``SolverConfig(cache_policy="bypass")`` is how a caller
runs without the caches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["LRUCache", "clear_all_caches", "all_cache_stats"]

_MISSING = object()

#: Every named LRUCache registers itself here so the whole solver-cache
#: hierarchy can be cleared (or reported on) in one call.
_REGISTRY: "dict[str, LRUCache]" = {}


def clear_all_caches() -> None:
    """Clear every registered solver cache (class caps, partitions, ...)."""
    for cache in _REGISTRY.values():
        cache.clear()


def all_cache_stats() -> Dict[str, Dict[str, Any]]:
    """Hit/miss statistics of every registered solver cache, by name."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


class LRUCache:
    """Mapping of at most ``maxsize`` entries with least-recently-used eviction.

    Thread-safe: a single lock serialises every read, insert, eviction and
    counter update.  The equilibrium service solves on its event loop and
    needs no lock, but the caches are process-wide, and library callers
    may solve from several threads at once.  Single-threaded callers (the
    games, sweeps, runner and service) observe exactly the unlocked
    behaviour.
    """

    def __init__(self, maxsize: int = 1024, name: Optional[str] = None) -> None:
        if not isinstance(maxsize, int) or maxsize < 1:
            raise ValueError(f"maxsize must be an integer >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions_maxsize = 0
        if name is not None:
            _REGISTRY[name] = self

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used entry when full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions_maxsize += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing a miss.

        ``compute`` is a zero-argument callable invoked only on a miss; hit
        and miss counters behave exactly as with :meth:`get` + :meth:`put`.
        The lock is *not* held while ``compute`` runs (a
        long solve must not block every other cache user), so two threads
        racing on the same missing key may both compute it — the cached
        computations are pure, so the duplicate work is benign and
        last-write-wins is correct.
        """
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions_maxsize = 0

    def stats(self) -> Dict[str, Any]:
        """Counters for reports: size, bound, hits, misses, evictions."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions_maxsize": self.evictions_maxsize,
            }

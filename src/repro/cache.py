"""A small LRU cache used by the equilibrium and game solvers.

The solvers memoise pure computations (rate equilibria of immutable
populations, CP-partition outcomes of fixed game instances), so cache hits
are guaranteed to be bit-identical to recomputation.  ``functools.lru_cache``
is unsuitable because the cached functions take numpy arrays and optional
collaborator objects; this class keys on explicitly-constructed hashable
tuples instead and exposes hit/miss counters for the benchmark harness.

Besides the entry-count bound (``maxsize``), a cache can be bounded by an
**approximate byte budget** (``max_bytes``, or the ``REPRO_CACHE_MAX_BYTES``
environment variable for every registered cache).  It exists for the
long-lived equilibrium service: a worker process that resolves many large
populations must shed old entries under memory pressure instead of growing
until the OOM killer finds it.  Entries never go stale (every cached
computation is pure over immutable inputs), so nothing expires by age.
Entry sizes are *approximate* (see :func:`approx_size`): numpy array
buffers dominate every cached value in this codebase, and those are sized
exactly; Python object overhead is estimated.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["LRUCache", "clear_all_caches", "all_cache_stats", "approx_size"]

_MISSING = object()

#: Environment variable consulted for every *registered* (named) cache that
#: does not set an explicit byte budget of its own.
MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Every named LRUCache registers itself here so the whole solver-cache
#: hierarchy can be cleared (or reported on) in one call.
_REGISTRY: "dict[str, LRUCache]" = {}

#: Flat per-object overhead assumed for references/small scalars (bytes).
_SCALAR_BYTES = 32
#: Flat overhead assumed per container / composite object (bytes).
_CONTAINER_BYTES = 64
#: Size charged for a non-root shared collaborator (see :func:`approx_size`).
_SHARED_REF_BYTES = 48


def clear_all_caches() -> None:
    """Clear every registered solver cache (class caps, partitions, ...)."""
    for cache in _REGISTRY.values():
        cache.clear()


def all_cache_stats() -> Dict[str, Dict[str, Any]]:
    """Hit/miss statistics of every registered solver cache, by name."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def _env_positive(variable: str, convert: Callable[[str], Any]) -> Any:
    """A positive numeric environment override, or ``None`` when unset.

    Raises ``ValueError`` on garbage: a typo in a memory budget must not
    silently disable the budget.
    """
    raw = os.environ.get(variable)
    if raw is None or not raw.strip():
        return None
    try:
        value = convert(raw.strip())
    except ValueError:
        raise ValueError(
            f"{variable} must be a positive number, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{variable} must be positive, got {raw!r}")
    return value


def _is_population(value: Any) -> bool:
    """Duck-typed check for :class:`repro.network.provider.Population`.

    Kept import-free: ``cache`` sits below ``network`` in the layering, so
    it recognises populations structurally (value-fingerprinted columnar
    containers) rather than by class identity.
    """
    return (hasattr(value, "fingerprint") and hasattr(value, "_columns")
            and hasattr(value, "alphas"))


def approx_size(value: Any) -> int:
    """Approximate resident bytes of one cache entry.

    Numpy array buffers (which dominate every cached value here — partition
    outcomes' rate vectors, population columns) are counted exactly
    via ``nbytes``; dataclasses, mappings, sequences and plain objects are
    walked recursively with a flat per-object overhead estimate.  Shared
    references inside one entry are counted once (memoised by ``id``).

    One deliberate heuristic: a :class:`Population` reached *inside* a
    composite value (e.g. ``PartitionOutcome.population``) is charged a flat
    reference cost, not its column bytes — thousands of cached outcomes
    share one resident population, and charging every entry for it would
    evict the whole cache long before the memory is real.  A population
    that *is* the cached value (the service's resident-population cache) is
    sized in full.
    """
    return _approx_size(value, seen=set(), root=True)


def _approx_size(value: Any, seen: "set[int]", root: bool) -> int:
    if value is None or isinstance(value, (bool, int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(value, (bytes, bytearray, str)):
        return _CONTAINER_BYTES + len(value)
    marker = id(value)
    if marker in seen:
        return 0
    seen.add(marker)
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):  # numpy arrays (and anything array-like)
        return _CONTAINER_BYTES + nbytes
    if _is_population(value):
        if not root:
            return _SHARED_REF_BYTES
        columns = getattr(value, "_columns", {})
        total = _CONTAINER_BYTES
        for key in sorted(columns):
            total += _approx_size(columns[key], seen, root=False)
        return total
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _CONTAINER_BYTES + sum(
            _approx_size(getattr(value, field.name), seen, root=False)
            for field in dataclasses.fields(value))
    if isinstance(value, dict):
        return _CONTAINER_BYTES + sum(
            _approx_size(key, seen, root=False)
            + _approx_size(item, seen, root=False)
            for key, item in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return _CONTAINER_BYTES + sum(
            _approx_size(item, seen, root=False) for item in value)
    attributes = getattr(value, "__dict__", None)
    if isinstance(attributes, dict):  # plain objects (max-min profiles, ...)
        return _CONTAINER_BYTES + sum(
            _approx_size(item, seen, root=False)
            for _, item in sorted(attributes.items(), key=lambda kv: kv[0]))
    return int(sys.getsizeof(value, _CONTAINER_BYTES))


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Thread- and task-safe: a single lock serialises every read, insert,
    eviction and counter update, so the caches can serve as warm shared
    state for the equilibrium service, whose solves run on executor threads
    while the event loop keeps accepting requests.  Single-threaded callers
    (the games, sweeps and runner) observe exactly the pre-lock behaviour.
    A ``maxsize`` of ``None`` disables bounding (useful in tests), ``0``
    disables caching entirely (every lookup misses), which gives a one-line
    way to compare cached and uncached runs.

    ``max_bytes`` adds an approximate byte budget on top of ``maxsize``:
    inserts evict least-recently-used entries until the budget holds, and a
    single value larger than the whole budget is rejected outright (counted
    in ``rejected_oversize``).  Named caches fall back to the
    ``REPRO_CACHE_MAX_BYTES`` environment variable when ``max_bytes`` is
    not set explicitly, which is how the serving CLI applies one memory
    policy to every registered cache.
    """

    def __init__(self, maxsize: Optional[int] = 1024,
                 name: Optional[str] = None, *,
                 max_bytes: Optional[int] = None,
                 sizer: Optional[Callable[[Any], int]] = None) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0 or None, got {maxsize!r}")
        if name is not None and max_bytes is None:
            max_bytes = _env_positive(MAX_BYTES_ENV_VAR, int)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0 or None, got {max_bytes!r}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.name = name
        self._sizer = sizer if sizer is not None else approx_size
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
        self._current_bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions_maxsize = 0
        self.evictions_bytes = 0
        self.rejected_oversize = 0
        if name is not None:
            _REGISTRY[name] = self

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    # ------------------------------------------------------------------ #
    # Internal bookkeeping (call with the lock held)
    # ------------------------------------------------------------------ #
    def _drop(self, key: Hashable) -> None:
        if key in self._data:
            del self._data[key]
            self._current_bytes -= self._sizes.pop(key, 0)

    def _evict_lru(self) -> None:
        key, _ = self._data.popitem(last=False)
        self._current_bytes -= self._sizes.pop(key, 0)

    # ------------------------------------------------------------------ #
    # Mapping API
    # ------------------------------------------------------------------ #
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
        """Insert ``key``, evicting least-recently-used entries as needed.

        Eviction honours both bounds: the entry count (``maxsize``) and the
        approximate byte budget (``max_bytes``).
        """
        with self._lock:
            if self.maxsize == 0:
                return
            size = self._sizer(value) if self.max_bytes is not None else 0
            if self.max_bytes is not None and size > self.max_bytes:
                # Larger than the whole budget: caching it would evict
                # everything else and still bust the bound.
                self._drop(key)
                self.rejected_oversize += 1
                return
            if key in self._data:
                self._current_bytes -= self._sizes.pop(key, 0)
                self._data.move_to_end(key)
            self._data[key] = value
            self._sizes[key] = size
            self._current_bytes += size
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._evict_lru()
                self.evictions_maxsize += 1
            if self.max_bytes is not None:
                while self._current_bytes > self.max_bytes and len(self._data) > 1:
                    self._evict_lru()
                    self.evictions_bytes += 1

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
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._current_bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions_maxsize = 0
            self.evictions_bytes = 0
            self.rejected_oversize = 0

    def stats(self) -> Dict[str, Any]:
        """Counters for reports: size, hits, misses, evictions, bytes."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "current_bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
                "evictions_maxsize": self.evictions_maxsize,
                "evictions_bytes": self.evictions_bytes,
                "rejected_oversize": self.rejected_oversize,
            }

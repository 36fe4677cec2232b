"""Thread-safe LRU cache with hit/miss accounting and versioned entries.

The engine's result cache: bounded, least-recently-used eviction, and
counters precise enough to drive the throughput benchmarks (hit rate is a
first-class metric of the serving layer). A ``maxsize`` of ``None`` means
unbounded; ``0`` disables caching entirely while keeping the accounting
(every lookup is a miss).

Entries are stored by :meth:`LRUCache.put_versioned` with the data version
they were computed against. A :meth:`LRUCache.get_versioned` lookup whose
version no longer matches drops the entry, counts an *invalidation* (and a
miss: the caller must recompute), and keeps hit-rate statistics honest.
Mutators stay O(1): they only bump a version counter, and stale entries
are evicted lazily on their next lookup. ``None`` is a legal cached
value, so a lookup's default is :data:`MISSING`; compare with ``is``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

#: Sentinel distinguishing "absent from cache" from any cached value
#: (including falsy ones: ``None``, empty results, 0, ...).
MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's accounting."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: Optional[int]
    #: Entries dropped because their stored version went stale (each also
    #: counts as a miss: the caller had to recompute).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """A JSON-ready snapshot (used by ``/stats`` and JSON reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded mapping with LRU eviction and hit/miss counters.

    All operations take an internal lock, so the request threads of one
    :class:`~repro.engine.explorer.CommunityExplorer` can share the cache.
    """

    def __init__(self, maxsize: Optional[int] = 1024) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0 or None, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get_versioned(self, key: Hashable, version: Any, default: Any = MISSING) -> Any:
        """Look up an entry stored by :meth:`put_versioned`.

        A present entry whose stored version equals ``version`` is a hit.
        A present entry with any other version is *stale*: it is removed,
        counted as an invalidation plus a miss, and ``default`` is returned.
        """
        with self._lock:
            entry = self._data.get(key, MISSING)
            if entry is MISSING:
                self._misses += 1
                return default
            entry_version, value = entry
            if entry_version != version:
                del self._data[key]
                self._invalidations += 1
                self._misses += 1
                return default
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def put_versioned(self, key: Hashable, version: Any, value: Any) -> None:
        """Insert/refresh ``key`` tagged with the data ``version`` it reflects.

        Evicts the least recently used entry when full.
        """
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (version, value)
            if self.maxsize is not None:
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/invalidation counters."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            self._invalidations = 0

    def stats(self) -> CacheStats:
        """An immutable :class:`CacheStats` snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
                invalidations=self._invalidations,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"LRUCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses}, evictions={s.evictions})"
        )

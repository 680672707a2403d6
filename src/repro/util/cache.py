"""A byte-budgeted LRU cache with hit/miss statistics.

TimeCrypt keeps the hot part of the encrypted aggregation index in memory
(the paper uses the caffeine library); the index-cache size directly drives
the small-cache experiment in Figure 7.  The cache here charges each entry a
caller-supplied weight (bytes) and evicts least-recently-used entries when
the budget is exceeded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0


@dataclass(slots=True)
class _Entry(Generic[V]):
    value: V
    weight: int = field(default=1)


class LRUCache(Generic[K, V]):
    """Least-recently-used cache bounded by total entry weight.

    Parameters
    ----------
    capacity:
        Maximum total weight held by the cache.  With the default
        ``weigher`` (every entry weighs 1) this is simply a max entry count.
    weigher:
        Optional callable mapping a value to its weight in arbitrary units
        (typically bytes).
    """

    def __init__(self, capacity: int, weigher: Optional[Callable[[V], int]] = None) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._weigher = weigher or (lambda _value: 1)
        self._entries: "OrderedDict[K, _Entry[V]]" = OrderedDict()
        self._weight = 0
        # repro: allow[REPRO005] a bare LRUCache is a library object, not a process component; owners register it (ServerEngine exposes its cache as engine.index_cache)
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def weight(self) -> int:
        """Current total weight of cached entries."""
        return self._weight

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value, updating recency, or ``default``."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def peek(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value without updating recency or statistics."""
        entry = self._entries.get(key)
        return entry.value if entry is not None else default

    def put(self, key: K, value: V) -> None:
        """Insert or replace an entry, evicting as needed to respect capacity."""
        weight = max(1, self._weigher(value))
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._weight -= existing.weight
        self._entries[key] = _Entry(value=value, weight=weight)
        self._weight += weight
        self.stats.insertions += 1
        self._evict()

    def get_or_load(self, key: K, loader: Callable[[], V]) -> V:
        """Return the cached value, loading and caching it on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value
        self.stats.misses += 1
        value = loader()
        self.put(key, value)
        return value

    def invalidate(self, key: K) -> bool:
        """Drop an entry; returns True when it was present."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._weight -= entry.weight
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._weight = 0

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate over (key, value) pairs from least to most recently used."""
        for key, entry in self._entries.items():
            yield key, entry.value

    def _evict(self) -> None:
        while self._weight > self._capacity and self._entries:
            _key, entry = self._entries.popitem(last=False)
            self._weight -= entry.weight
            self.stats.evictions += 1

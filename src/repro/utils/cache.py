"""A minimal LRU cache for encode memoisation.

The fuzzing loop memoises ``child bytes → encode result`` per input so
repeated children (ubiquitous for discrete strategies like ``shift``)
are encoded once.  Unbounded, that dict would accumulate thousands of
10 000-dimensional rows for continuous strategies whose children never
repeat — :class:`LRUCache` caps it with least-recently-used eviction at
the depth where hits actually occur (one iteration's children).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["LRUCache", "resolve_with_cache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    max_entries:
        Capacity; inserting beyond it evicts the least recently used
        entry.  Both :meth:`get` hits and :meth:`put` updates refresh
        recency.

    Examples
    --------
    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)  # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> len(cache)
    2
    """

    def __init__(self, max_entries: int) -> None:
        # np.integer included: HDTestConfig accepts numpy ints, and a
        # capacity derived from its fields must not be rejected mid-fuzz.
        if not isinstance(max_entries, (int, np.integer)) or max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be a positive int, got {max_entries!r}"
            )
        self._max_entries = int(max_entries)
        self._data: OrderedDict[K, V] = OrderedDict()
        self._hits = 0
        self._misses = 0

    @property
    def max_entries(self) -> int:
        """Capacity of the cache."""
        return self._max_entries

    @property
    def hits(self) -> int:
        """Number of :meth:`get` calls that found their key."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of :meth:`get` calls that did not."""
        return self._misses

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> Optional[V]:
        """Return the cached value for *key* (refreshing it), else None."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return None
        self._data.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/update *key*, evicting the LRU entry when over capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self._max_entries:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are retained)."""
        self._data.clear()

    def __repr__(self) -> str:
        return (
            f"LRUCache(max_entries={self._max_entries}, size={len(self._data)}, "
            f"hits={self._hits}, misses={self._misses})"
        )


def resolve_with_cache(
    cache: LRUCache[K, V],
    keys: Sequence[K],
    compute_missing: Callable[[list[int]], Sequence[V]],
) -> list[V]:
    """One value per key, memoised through *cache*.

    ``compute_missing`` receives the positions (into *keys*) of the
    first occurrence of each key the cache doesn't hold, and must return
    one value per position, in order.  Every distinct key is computed at
    most once per call, and all values used this call are pinned in an
    iteration-local dict — LRU eviction in the shared cache can
    therefore never drop an entry between its lookup and its use.  This
    is the dedupe discipline shared by the sequential and batched
    fuzzing engines.
    """
    local: dict[K, Optional[V]] = {}
    misses: list[int] = []
    for position, key in enumerate(keys):
        if key not in local:
            local[key] = cache.get(key)
            if local[key] is None:
                misses.append(position)
    if misses:
        fresh = compute_missing(misses)
        if len(fresh) != len(misses):
            raise ConfigurationError(
                f"compute_missing returned {len(fresh)} values for {len(misses)} keys"
            )
        for position, value in zip(misses, fresh):
            local[keys[position]] = value
            cache.put(keys[position], value)
    return [local[key] for key in keys]

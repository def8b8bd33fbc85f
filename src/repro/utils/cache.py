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
from typing import Generic, Hashable, Optional, TypeVar

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["LRUCache"]

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

    @property
    def max_entries(self) -> int:
        """Capacity of the cache."""
        return self._max_entries

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: K) -> Optional[V]:
        """Return the cached value for *key* (refreshing it), else None."""
        try:
            value = self._data[key]
        except KeyError:
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/update *key*, evicting the LRU entry when over capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self._max_entries:
            self._data.popitem(last=False)

    def __repr__(self) -> str:
        return f"LRUCache(max_entries={self._max_entries}, size={len(self._data)})"

"""Tests for the bounded LRU cache behind encode memoisation."""

import doctest

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import cache as cache_module
from repro.utils.cache import LRUCache


class TestLRUCache:
    def test_roundtrip(self):
        cache = LRUCache(4)
        cache.put(b"a", 1)
        assert cache.get(b"a") == 1
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = LRUCache(4)
        assert cache.get(b"nope") is None

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_miss_leaves_recency_unchanged(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("z") is None  # a miss neither inserts nor refreshes
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_capacity_one_keeps_the_latest_entry(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        cache.put("b", 3)  # updating the only entry evicts nothing
        assert len(cache) == 1 and cache.get("b") == 3

    def test_docstring_example(self):
        failed, attempted = doctest.testmod(cache_module)
        assert attempted > 0 and failed == 0

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite: "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_capacity_never_exceeded(self):
        cache = LRUCache(3)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 3
        assert all(cache.get(i) == i for i in (47, 48, 49))

    def test_ndarray_values(self):
        cache = LRUCache(2)
        hv = np.ones(16, dtype=np.int8)
        cache.put(b"k", hv)
        assert np.array_equal(cache.get(b"k"), hv)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "big"])
    def test_invalid_capacity_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            LRUCache(bad)

    def test_numpy_integer_capacity_accepted(self):
        # HDTestConfig validation admits numpy ints; the cache must too.
        cache = LRUCache(np.int64(2))
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.max_entries == 2

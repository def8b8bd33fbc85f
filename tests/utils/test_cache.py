"""Tests for the bounded LRU cache behind encode memoisation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.cache import LRUCache, resolve_with_cache


class TestLRUCache:
    def test_roundtrip(self):
        cache = LRUCache(4)
        cache.put(b"a", 1)
        assert cache.get(b"a") == 1
        assert b"a" in cache
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

    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_clear(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

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


class TestResolveWithCache:
    def test_computes_each_distinct_key_once(self):
        cache = LRUCache(8)
        calls = []

        def compute(positions):
            calls.append(list(positions))
            return [f"v{p}" for p in positions]

        values = resolve_with_cache(cache, ["a", "b", "a", "c", "b"], compute)
        assert values == ["v0", "v1", "v0", "v3", "v1"]
        assert calls == [[0, 1, 3]]  # first occurrences only

    def test_uses_cache_hits(self):
        cache = LRUCache(8)
        cache.put("a", "cached")
        values = resolve_with_cache(cache, ["a", "b"], lambda ps: ["fresh"] * len(ps))
        assert values == ["cached", "fresh"]
        assert cache.get("b") == "fresh"

    def test_survives_eviction_within_one_call(self):
        # Capacity smaller than the batch: values used this call must be
        # pinned even though the cache evicts while filling.
        cache = LRUCache(1)
        keys = ["a", "b", "c", "a", "b"]
        values = resolve_with_cache(
            cache, keys, lambda ps: [keys[p].upper() for p in ps]
        )
        assert values == ["A", "B", "C", "A", "B"]
        assert len(cache) == 1

    def test_miscounting_compute_rejected(self):
        with pytest.raises(ConfigurationError, match="compute_missing"):
            resolve_with_cache(LRUCache(4), ["a", "b"], lambda ps: ["only-one"])

    def test_no_misses_no_compute_call(self):
        cache = LRUCache(4)
        cache.put("a", 1)

        def explode(_):
            raise AssertionError("should not be called")

        assert resolve_with_cache(cache, ["a", "a"], explode) == [1, 1]

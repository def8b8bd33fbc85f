"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import derive_seed, ensure_rng, spawn


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=10)
        b = ensure_rng(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 2**31, size=20)
        b = ensure_rng(2).integers(0, 2**31, size=20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        gen = ensure_rng(np.random.SeedSequence(5))
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_accepted(self):
        gen = ensure_rng(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ensure_rng(-1)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError, match="expected"):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestSpawn:
    def test_children_count(self):
        assert len(spawn(0, 5)) == 5

    def test_zero_children(self):
        assert spawn(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn(0, -1)

    def test_children_are_independent_streams(self):
        a, b = spawn(42, 2)
        assert not np.array_equal(
            a.integers(0, 2**31, size=50), b.integers(0, 2**31, size=50)
        )

    def test_spawn_deterministic_from_seed(self):
        first = [g.integers(0, 1000) for g in spawn(9, 3)]
        second = [g.integers(0, 1000) for g in spawn(9, 3)]
        assert first == second


class TestDeriveSeed:
    def test_range(self):
        seed = derive_seed(3)
        assert 0 <= seed < 2**63

    def test_deterministic(self):
        assert derive_seed(3) == derive_seed(3)

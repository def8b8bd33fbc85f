"""Tests for item memories (codebooks) and level memories."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdc.item_memory import ItemMemory, LevelMemory, RematerializedItemMemory
from repro.hdc.similarity import cosine
from repro.hdc.spaces import BinarySpace, BipolarSpace


class TestItemMemory:
    def test_shape_and_dtype(self):
        mem = ItemMemory(10, BipolarSpace(128), rng=0)
        assert mem.vectors.shape == (10, 128)
        assert mem.vectors.dtype == np.int8
        assert len(mem) == 10
        assert mem.dimension == 128

    def test_default_space_is_paper_dimension(self):
        mem = ItemMemory(3, rng=0)
        assert mem.dimension == 10_000

    def test_deterministic_given_seed(self):
        a = ItemMemory(5, BipolarSpace(64), rng=3)
        b = ItemMemory(5, BipolarSpace(64), rng=3)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_rows_mutually_pseudo_orthogonal(self):
        mem = ItemMemory(4, BipolarSpace(4096), rng=1)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(cosine(mem[i], mem[j])) < 5 / np.sqrt(4096)

    def test_scalar_lookup(self):
        mem = ItemMemory(4, BipolarSpace(32), rng=2)
        np.testing.assert_array_equal(mem.lookup(2), mem.vectors[2])

    def test_array_lookup_gathers(self):
        mem = ItemMemory(4, BipolarSpace(32), rng=2)
        out = mem.lookup(np.array([0, 0, 3]))
        assert out.shape == (3, 32)
        np.testing.assert_array_equal(out[0], out[1])

    def test_2d_index_lookup(self):
        mem = ItemMemory(4, BipolarSpace(16), rng=2)
        out = mem.lookup(np.zeros((2, 3), dtype=np.int64))
        assert out.shape == (2, 3, 16)

    def test_out_of_range_rejected(self):
        mem = ItemMemory(4, BipolarSpace(16), rng=0)
        with pytest.raises(ConfigurationError, match="out of range"):
            mem.lookup(4)
        with pytest.raises(ConfigurationError):
            mem.lookup(-1)

    def test_non_integer_index_rejected(self):
        mem = ItemMemory(4, BipolarSpace(16), rng=0)
        with pytest.raises(ConfigurationError):
            mem.lookup(np.array([0.5]))

    def test_vectors_view_is_read_only(self):
        mem = ItemMemory(2, BipolarSpace(8), rng=0)
        with pytest.raises(ValueError):
            mem.vectors[0, 0] = 5

    def test_from_vectors_roundtrip(self):
        original = ItemMemory(3, BipolarSpace(16), rng=4)
        rebuilt = ItemMemory.from_vectors(original.vectors)
        np.testing.assert_array_equal(rebuilt.vectors, original.vectors)
        assert rebuilt.dimension == 16

    def test_from_vectors_validates_alphabet(self):
        with pytest.raises(ConfigurationError):
            ItemMemory.from_vectors(np.zeros((2, 8), dtype=np.int8), BipolarSpace(8))

    def test_from_vectors_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            ItemMemory.from_vectors(np.ones(8, dtype=np.int8))

    def test_binary_space_memory(self):
        mem = ItemMemory(4, BinarySpace(32), rng=0)
        assert set(np.unique(mem.vectors)).issubset({0, 1})


class TestLevelMemory:
    def test_endpoints_are_pseudo_orthogonal(self):
        mem = LevelMemory(16, BipolarSpace(4096), rng=0)
        sim = cosine(mem[0], mem[15])
        assert abs(sim) < 0.1

    def test_adjacent_levels_highly_similar(self):
        mem = LevelMemory(16, BipolarSpace(4096), rng=1)
        assert cosine(mem[7], mem[8]) > 0.8

    def test_similarity_decays_monotonically(self):
        mem = LevelMemory(8, BipolarSpace(8192), rng=2)
        sims = [cosine(mem[0], mem[k]) for k in range(8)]
        assert all(sims[i] >= sims[i + 1] - 0.02 for i in range(7))

    def test_linear_decay_shape(self):
        mem = LevelMemory(11, BipolarSpace(10_000), rng=3)
        # cosine(level0, levelk) = 1 - k / (size - 1)
        for k in (2, 5, 8, 10):
            expected = 1 - k / 10
            assert cosine(mem[0], mem[k]) == pytest.approx(expected, abs=0.05)

    def test_single_level_allowed(self):
        mem = LevelMemory(1, BipolarSpace(64), rng=0)
        assert mem.size == 1

    def test_rows_stay_bipolar(self):
        mem = LevelMemory(5, BipolarSpace(256), rng=4)
        assert set(np.unique(mem.vectors)).issubset({-1, 1})

    def test_rejects_binary_space(self):
        with pytest.raises(ConfigurationError):
            LevelMemory(4, BinarySpace(64), rng=0)

    def test_deterministic(self):
        a = LevelMemory(6, BipolarSpace(64), rng=5)
        b = LevelMemory(6, BipolarSpace(64), rng=5)
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestRematerializedLookup:
    """A seed-only codebook looks rows up exactly as its stored twin does."""

    SPACES = {"bipolar": BipolarSpace(130), "binary": BinarySpace(130)}
    SIZE = 7

    @pytest.fixture(params=sorted(SPACES))
    def pair(self, request):
        remat = RematerializedItemMemory(self.SIZE, self.SPACES[request.param], seed=21)
        return remat, remat.materialize()

    @pytest.mark.parametrize(
        "index",
        [3, np.array([0, 6, 6, 2]), np.zeros((2, 3), dtype=np.int64),
         np.zeros(0, dtype=np.int64)],
        ids=["scalar", "gather", "2d", "empty"],
    )
    def test_matches_the_materialized_twin(self, pair, index):
        remat, stored = pair
        got = remat.lookup(index)
        np.testing.assert_array_equal(got, stored.lookup(index))
        assert got.dtype == np.int8

    @pytest.mark.parametrize(
        "index,match",
        [(-1, "out of range"), (SIZE, "out of range"), (np.array([0.5]), "integer")],
        ids=["negative", "size", "float"],
    )
    def test_rejects_what_the_twin_rejects(self, pair, index, match):
        for memory in pair:
            with pytest.raises(ConfigurationError, match=match):
                memory.lookup(index)

"""Tests for similarity measures."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.hdc.similarity import cosine, cosine_matrix
from repro.hdc.spaces import BipolarSpace

SPACE = BipolarSpace(2048)
TAIL_DIMS = [1, 63, 64, 65, 10_000]


def _float64_cosine(queries, references):
    return cosine_matrix(
        np.asarray(queries, dtype=np.float64), np.asarray(references, dtype=np.float64)
    )


class TestCosine:
    def test_self_similarity_is_one(self):
        hv = SPACE.random(rng=0)
        assert cosine(hv, hv) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        hv = SPACE.random(rng=1)
        assert cosine(hv, -hv) == pytest.approx(-1.0)

    def test_random_pair_near_zero(self):
        a = SPACE.random(rng=2)
        b = SPACE.random(rng=3)
        assert abs(cosine(a, b)) < 5 / np.sqrt(SPACE.dimension)

    def test_zero_vector_gives_zero(self):
        hv = SPACE.random(rng=4)
        assert cosine(np.zeros(SPACE.dimension), hv) == 0.0

    def test_scale_invariant(self):
        a = SPACE.random(rng=5).astype(np.float64)
        b = SPACE.random(rng=6).astype(np.float64)
        assert cosine(3.5 * a, b) == pytest.approx(cosine(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.ones(4), np.ones(5))

    def test_bipolar_cosine_hamming_relation(self):
        # For bipolar HVs: cosine = 1 - 2 * (fraction of differing components).
        a = SPACE.random(rng=16)
        b = SPACE.random(rng=17)
        assert cosine(a, b) == pytest.approx(1 - 2 * np.mean(a != b))

    def test_known_value(self):
        assert cosine([1, 0], [1, 1]) == pytest.approx(1 / np.sqrt(2))


class TestCosineMatrix:
    def test_matches_scalar_cosine(self):
        queries = SPACE.random(3, rng=7)
        refs = SPACE.random(4, rng=8)
        mat = cosine_matrix(queries, refs)
        assert mat.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert mat[i, j] == pytest.approx(cosine(queries[i], refs[j]))

    def test_1d_inputs_promoted(self):
        q = SPACE.random(rng=9)
        r = SPACE.random(rng=10)
        assert cosine_matrix(q, r).shape == (1, 1)

    def test_zero_rows_produce_zero(self):
        refs = SPACE.random(2, rng=11)
        queries = np.zeros((1, SPACE.dimension))
        np.testing.assert_array_equal(cosine_matrix(queries, refs), np.zeros((1, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    def test_dimension_mismatch(self, dtype):
        with pytest.raises(DimensionMismatchError):
            cosine_matrix(np.ones((2, 4), dtype=dtype), np.ones((2, 5), dtype=dtype))

    def test_3d_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cosine_matrix(np.ones((1, 2, 4)), np.ones((2, 4)))

    def test_values_in_unit_interval(self):
        mat = cosine_matrix(SPACE.random(5, rng=12), SPACE.random(5, rng=13))
        assert (mat <= 1.0 + 1e-12).all() and (mat >= -1.0 - 1e-12).all()

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    @pytest.mark.parametrize("n", [None, 1, 6])  # None: a single (D,) query
    def test_int8_sign_blocks_take_the_popcount_path(self, dim, n, popcount_calls):
        space = BipolarSpace(dim)
        queries, refs = space.random(n, rng=dim), space.random(4, rng=dim + 1)
        got = cosine_matrix(queries, refs)
        assert len(popcount_calls) == 1
        # Exact float equality: guided fitness ranks children by these.
        np.testing.assert_array_equal(got, _float64_cosine(queries, refs))

    def test_empty_int8_block(self):
        refs = SPACE.random(3, rng=14)
        got = cosine_matrix(np.zeros((0, SPACE.dimension), dtype=np.int8), refs)
        assert got.shape == (0, 3) and got.dtype == np.float64

    @pytest.mark.parametrize(
        "case", ["int8-zero", "int8-two", "float64-signs", "binary-int8"]
    )
    def test_other_blocks_keep_the_float_path(self, case, popcount_calls):
        queries, refs = SPACE.random(4, rng=15), SPACE.random(3, rng=16)
        if case == "int8-zero":
            queries[2, 5] = 0
        elif case == "int8-two":
            refs[1, 9] = 2
        elif case == "float64-signs":
            queries = queries.astype(np.float64)
        else:  # dense-binary family hypervectors: {0, 1} int8
            queries, refs = (queries > 0).astype(np.int8), (refs > 0).astype(np.int8)
        np.testing.assert_array_equal(
            cosine_matrix(queries, refs), _float64_cosine(queries, refs)
        )
        assert popcount_calls == []

"""Property tests for the packed uint64 kernels.

The load-bearing contract: packing is lossless and every kernel is
bit-identical to the corresponding computation on the unpacked {0, 1}
(or {-1, +1}) arrays — for every dimension, including ones that do not
divide 64.  ``TAIL_DIMS`` pins the masking edge cases (D = 1, one bit
in one word; 63/65 straddling a word boundary; 64 exactly one word;
10000, the paper scale with a 16-bit tail) across *every* kernel, and
the ``popcount_path`` fixture runs the popcount-consuming kernels under
both the hardware ``np.bitwise_count`` ufunc and the SWAR fallback
(what ``REPRO_NO_BITWISE_COUNT`` / numpy < 2.0 select).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdc.backends import packed as pk
from repro.hdc.similarity import cosine_matrix

DIMS = [1, 7, 63, 64, 65, 128, 200, 1000, 10000]
#: The masking edge-case matrix every packed kernel is pinned over.
TAIL_DIMS = [1, 63, 64, 65, 10000]


def _bits(rng, n, dim):
    return rng.integers(0, 2, size=(n, dim)).astype(np.int8)


def _signs(rng, n, dim):
    return (_bits(rng, n, dim) * 2 - 1).astype(np.int8)


@pytest.fixture(params=["hardware", "swar"])
def popcount_path(request, monkeypatch):
    """Run the test under both popcount implementations.

    ``hardware`` is skipped when numpy lacks ``bitwise_count`` (or the
    ``REPRO_NO_BITWISE_COUNT`` CI leg disabled it at import); ``swar``
    always runs, pinning the fallback the env var selects.
    """
    if request.param == "swar":
        monkeypatch.setattr(pk, "_HAVE_BITWISE_COUNT", False)
    elif not pk._HAVE_BITWISE_COUNT:
        pytest.skip("hardware popcount unavailable on this interpreter")
    return request.param


class TestPackRoundtrip:
    @pytest.mark.parametrize("dim", DIMS)
    def test_roundtrip(self, rng, dim):
        bits = _bits(rng, 5, dim)
        words = pk.pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape == (5, pk.packed_words(dim))
        np.testing.assert_array_equal(pk.unpack_bits(words, dim), bits)

    def test_single_vector(self, rng):
        bits = _bits(rng, 1, 100)[0]
        words = pk.pack_bits(bits)
        assert words.shape == (pk.packed_words(100),)
        np.testing.assert_array_equal(pk.unpack_bits(words, 100), bits)

    def test_tail_bits_zero(self, rng):
        words = pk.pack_bits(np.ones((3, 70), dtype=np.int8))
        # Components 70..127 of the second word must be zero.
        assert (words[:, 1] >> np.uint64(6) == 0).all()
        pk.check_packed(words, 70)

    def test_memory_is_eightfold_smaller(self, rng):
        bits = _bits(rng, 4, 1024)
        assert bits.nbytes == 8 * pk.pack_bits(bits).nbytes

    def test_empty_batch(self):
        words = pk.pack_bits(np.zeros((0, 100), dtype=np.int8))
        assert words.shape == (0, pk.packed_words(100))
        assert pk.unpack_bits(words, 100).shape == (0, 100)

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            pk.pack_bits(np.array([0, 1, 2]))

    def test_word_count_mismatch_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            pk.unpack_bits(pk.pack_bits(_bits(rng, 2, 128)), 200)

    def test_check_packed_flags_dirty_tail(self):
        words = pk.pack_bits(np.zeros((1, 70), dtype=np.int8))
        words[0, 1] |= np.uint64(1) << np.uint64(63)  # beyond component 70
        with pytest.raises(ConfigurationError, match="beyond"):
            pk.check_packed(words, 70)

    def test_check_packed_rejects_wrong_dtype(self):
        with pytest.raises(ConfigurationError, match="uint64"):
            pk.check_packed(np.zeros((1, 2), dtype=np.int64), 128)


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 0xFF, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(pk.popcount(words), [0, 1, 8, 64])

    def test_fallbacks_match_production(self, rng):
        """SWAR fallback, LUT reference, and popcount() all agree."""
        words = rng.integers(0, 2**63, size=(6, 9), dtype=np.int64).astype(np.uint64)
        expected = pk.popcount(words)
        np.testing.assert_array_equal(pk._popcount_swar(words), expected)
        np.testing.assert_array_equal(pk._popcount_lut(words), expected)

    def test_fallback_extremes(self):
        words = np.array([0, 1, 2**64 - 1, 2**63], dtype=np.uint64)
        np.testing.assert_array_equal(pk._popcount_swar(words), [0, 1, 64, 1])
        np.testing.assert_array_equal(pk._popcount_lut(words), [0, 1, 64, 1])

    def test_lut_fallback_empty(self):
        assert pk._popcount_lut(np.zeros((0, 3), dtype=np.uint64)).shape == (0, 3)
        assert pk._popcount_swar(np.zeros((0, 3), dtype=np.uint64)).shape == (0, 3)

    def test_env_gate_reported(self):
        # Whatever the environment says, the flag and behaviour agree.
        import numpy as _np

        expected = hasattr(_np, "bitwise_count") and pk._HAVE_BITWISE_COUNT
        assert pk.using_hardware_popcount() == expected


class TestBindAndBundle:
    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_bit_counts_match_column_sums(self, rng, dim):
        bits = _bits(rng, 9, dim)
        np.testing.assert_array_equal(
            pk.bit_counts(pk.pack_bits(bits), dim), bits.sum(axis=0)
        )

    def test_bit_counts_empty_stack(self):
        np.testing.assert_array_equal(
            pk.bit_counts(np.zeros((0, 2), dtype=np.uint64), 100), np.zeros(100)
        )


class TestHammingKernels:
    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_counts_match_unpacked(self, rng, dim, popcount_path):
        q, r = _bits(rng, 5, dim), _bits(rng, 3, dim)
        got = pk.hamming_counts(pk.pack_bits(q), pk.pack_bits(r))
        expected = (q[:, None, :] != r[None, :, :]).sum(axis=2)
        np.testing.assert_array_equal(got, expected)

    def test_counts_empty_queries(self, rng):
        refs = pk.pack_bits(_bits(rng, 3, 100))
        got = pk.hamming_counts(np.zeros((0, refs.shape[1]), dtype=np.uint64), refs)
        assert got.shape == (0, 3)


class TestBlockedPairwiseCounts:
    """One popcount pass per block of query rows, summed narrow, widened once.

    Pinned against the per-reference loop the kernels replaced, with
    blocks forced to three query rows so batches fall on either side of
    one and several block edges; 70 000 bits need a uint32 count.
    """

    ROWS = 3  # query rows per forced block

    @staticmethod
    def _per_reference(op, q, r):
        out = np.empty((q.shape[0], r.shape[0]), dtype=np.int64)
        for j in range(r.shape[0]):
            out[:, j] = pk._popcount_lut(op(q, r[j])).sum(axis=-1, dtype=np.int64)
        return out

    @pytest.mark.parametrize("dim", [65, 10000, 70000])
    def test_blocks_match_the_per_reference_loop(
        self, rng, dim, popcount_path, monkeypatch
    ):
        refs = pk.pack_bits(_bits(rng, 4, dim))
        words = refs.shape[1]
        block_bytes = self.ROWS * 8 * len(refs) * words
        scale = 1 if popcount_path == "hardware" else 8  # SWAR blocks are 1/8
        monkeypatch.setattr(pk, "BLOCK_ELEMS", scale * block_bytes)
        for n in (1, self.ROWS - 1, self.ROWS, self.ROWS + 1, 3 * self.ROWS + 2):
            q = pk.pack_bits(_bits(rng, n, dim))
            np.testing.assert_array_equal(
                pk.hamming_counts(q, refs),
                self._per_reference(np.bitwise_xor, q, refs),
            )

    def test_all_ones_count_every_bit(self, popcount_path):
        ones = pk.pack_bits(np.ones((2, 70000), dtype=np.int8))
        zeros = np.zeros_like(ones)
        np.testing.assert_array_equal(pk.hamming_counts(ones, zeros), 70000)


class TestSignPacking:
    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_roundtrip(self, rng, dim):
        values = _signs(rng, 5, dim)
        words = pk.pack_signs(values)
        assert words.dtype == np.uint64
        assert words.shape == (5, pk.packed_words(dim))
        pk.check_packed(words, dim)  # tail bits stay zeroed
        np.testing.assert_array_equal(pk.unpack_signs(words, dim), values)

    def test_sign_convention(self):
        # bit 1 ⇔ −1, little bit order: [-1, +1, -1] → 0b101 = 5.
        words = pk.pack_signs(np.array([-1, 1, -1], dtype=np.int8))
        assert words[0] == np.uint64(5)

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_xor_is_the_hadamard_bind(self, rng, dim):
        a, b = _signs(rng, 4, dim), _signs(rng, 4, dim)
        bound = np.bitwise_xor(pk.pack_signs(a), pk.pack_signs(b))
        np.testing.assert_array_equal(pk.unpack_signs(bound, dim), a * b)

    def test_non_bipolar_rejected(self):
        with pytest.raises(ConfigurationError):
            pk.pack_signs(np.array([0, 1, -1]))

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_sign_words_bipolarise_accumulators(self, rng, dim):
        # Eq. 1 with the deterministic zero policy (0 → +1), packed.
        acc = rng.integers(-3, 4, size=(6, dim))
        words = pk.sign_words(acc)
        pk.check_packed(words, dim)
        np.testing.assert_array_equal(
            pk.unpack_signs(words, dim), np.where(acc >= 0, 1, -1)
        )

    @pytest.mark.parametrize(
        "values,expected",
        [
            (np.array([1, -1, -1], dtype=np.int8), True),
            (np.array([[1], [-1]], dtype=np.int8), True),
            (np.array([1, 0, -1], dtype=np.int8), False),
            (np.array([1, 2, -1], dtype=np.int8), False),
            (np.array([1, -2, -1], dtype=np.int8), False),
            (np.array([1.0, -1.0]), False),
            (np.array([1, -1], dtype=np.int16), False),
            (np.zeros((0, 8), dtype=np.int8), False),
        ],
    )
    def test_is_sign_block(self, values, expected):
        assert pk.is_sign_block(values) is expected


class TestBitSlicedCounts:
    """The word-level training kernel vs the unpack-and-sum reference."""

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 101])
    def test_matches_column_sums(self, rng, dim, n, popcount_path):
        bits = _bits(rng, n, dim)
        words = pk.pack_bits(bits)
        got = pk.bit_sliced_counts(words, dim)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, bits.sum(axis=0))
        np.testing.assert_array_equal(got, pk.bit_counts(words, dim))

    @pytest.mark.parametrize("dim", [1, 63, 65])
    def test_batched_leading_axes(self, rng, dim):
        bits = _bits(rng, 4 * 17, dim).reshape(4, 17, dim)
        got = pk.bit_sliced_counts(pk.pack_bits(bits), dim)
        assert got.shape == (4, dim)
        np.testing.assert_array_equal(got, bits.sum(axis=1))

    def test_all_ones_saturates(self):
        # Every counter plane carries: the worst ripple/carry case.
        words = pk.pack_bits(np.ones((300, 130), dtype=np.int8))
        np.testing.assert_array_equal(
            pk.bit_sliced_counts(words, 130), np.full(130, 300)
        )

    def test_empty_stack(self):
        got = pk.bit_sliced_counts(np.zeros((0, 3), dtype=np.uint64), 130)
        np.testing.assert_array_equal(got, np.zeros(130, dtype=np.int64))

    def test_word_count_mismatch_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            pk.bit_sliced_counts(pk.pack_bits(_bits(rng, 3, 128)), 200)

    def test_single_vector_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            pk.bit_sliced_counts(pk.pack_bits(_bits(rng, 1, 64))[0], 64)


class TestCosineBipolar:
    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_bit_identical_to_dense(self, rng, dim, popcount_path):
        q, r = _signs(rng, 6, dim), _signs(rng, 4, dim)
        got = pk.cosine_matrix_packed_bipolar(
            pk.pack_signs(q), pk.pack_signs(r), dim
        )
        # Exact float equality — the guided fitness ranks by these.
        np.testing.assert_array_equal(got, cosine_matrix(q, r))

    def test_self_similarity_is_one(self, rng):
        q = pk.pack_signs(_signs(rng, 3, 10000))
        np.testing.assert_array_equal(
            np.diag(pk.cosine_matrix_packed_bipolar(q, q, 10000)), np.ones(3)
        )

    def test_opposite_is_minus_one(self):
        # D = 64: √64² is exact, so the endpoint value is exactly −1.
        values = np.ones((1, 64), dtype=np.int8)
        got = pk.cosine_matrix_packed_bipolar(
            pk.pack_signs(values), pk.pack_signs(-values), 64
        )
        np.testing.assert_array_equal(got, [[-1.0]])
        # At D = 65 the float dance (√65·√65 ≠ 65) matches dense exactly.
        odd = np.ones((1, 65), dtype=np.int8)
        np.testing.assert_array_equal(
            pk.cosine_matrix_packed_bipolar(pk.pack_signs(odd), pk.pack_signs(-odd), 65),
            cosine_matrix(odd, -odd),
        )

    def test_bad_dimension_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            pk.cosine_matrix_packed_bipolar(
                np.zeros((1, 1), dtype=np.uint64),
                np.zeros((1, 1), dtype=np.uint64),
                0,
            )

"""Tests for the record and n-gram encoders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EncodingError
from repro.hdc.encoders.ngram import DEFAULT_ALPHABET, NgramEncoder
from repro.hdc.encoders.record import RecordEncoder
from repro.hdc.ops import permute
from repro.hdc.similarity import cosine

DIM = 1024


class TestRecordEncoder:
    def test_output_shape_and_alphabet(self):
        enc = RecordEncoder(10, dimension=DIM, rng=0)
        hv = enc.encode(np.linspace(0, 1, 10))
        assert hv.shape == (DIM,)
        assert set(np.unique(hv)).issubset({-1, 1})

    def test_batch_shape(self):
        enc = RecordEncoder(6, dimension=DIM, rng=0)
        out = enc.encode_batch(np.random.default_rng(0).random((4, 6)))
        assert out.shape == (4, DIM)

    def test_quantize_clips_to_range(self):
        enc = RecordEncoder(3, levels=8, value_range=(0.0, 1.0), dimension=DIM, rng=0)
        levels = enc.quantize(np.array([-5.0, 0.5, 5.0]))
        np.testing.assert_array_equal(levels, [0, 4, 7])

    def test_linear_levels_give_smooth_similarity(self):
        enc = RecordEncoder(
            16, levels=32, level_encoding="linear", dimension=8192, rng=1
        )
        base = np.full(16, 0.5)
        near = enc.encode(base + 0.02)
        far = enc.encode(np.full(16, 0.95))
        ref = enc.encode(base)
        assert cosine(ref, near) > cosine(ref, far)

    def test_random_levels_are_brittle(self):
        # With the paper's random value memory, a one-level nudge on
        # every feature destroys similarity far more than with linear
        # levels — the effect HDTest's `rand` strategy exploits.
        kwargs = dict(n_features=32, levels=64, dimension=8192)
        lin = RecordEncoder(level_encoding="linear", rng=2, **kwargs)
        rnd = RecordEncoder(level_encoding="random", rng=2, **kwargs)
        base = np.full(32, 16.0 / 63.0)  # exactly level 16
        nudged = np.full(32, 18.0 / 63.0)  # exactly level 18
        assert lin.quantize(base[0:1])[0] != lin.quantize(nudged[0:1])[0]
        sim_lin = cosine(lin.encode(base), lin.encode(nudged))
        sim_rnd = cosine(rnd.encode(base), rnd.encode(nudged))
        assert sim_lin > sim_rnd + 0.2

    def test_invalid_level_encoding(self):
        with pytest.raises(ConfigurationError):
            RecordEncoder(4, level_encoding="cubic", dimension=DIM)

    def test_invalid_value_range(self):
        with pytest.raises(ConfigurationError):
            RecordEncoder(4, value_range=(1.0, 0.0), dimension=DIM)

    def test_wrong_record_length_rejected(self):
        enc = RecordEncoder(4, dimension=DIM, rng=0)
        with pytest.raises(EncodingError):
            enc.encode(np.zeros(5))

    def test_nan_rejected(self):
        enc = RecordEncoder(4, dimension=DIM, rng=0)
        with pytest.raises(EncodingError):
            enc.encode(np.array([0.0, np.nan, 0.0, 0.0]))

    def test_2d_single_rejected_by_encode(self):
        enc = RecordEncoder(4, dimension=DIM, rng=0)
        with pytest.raises(EncodingError):
            enc.encode(np.zeros((2, 4)))

    def test_deterministic(self):
        a = RecordEncoder(5, dimension=DIM, rng=3)
        b = RecordEncoder(5, dimension=DIM, rng=3)
        rec = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(a.encode(rec), b.encode(rec))


class TestNgramEncoder:
    def test_output_shape(self):
        enc = NgramEncoder(n=3, dimension=DIM, rng=0)
        hv = enc.encode("hello world")
        assert hv.shape == (DIM,)
        assert set(np.unique(hv)).issubset({-1, 1})

    def test_deterministic(self):
        a = NgramEncoder(n=3, dimension=DIM, rng=1)
        b = NgramEncoder(n=3, dimension=DIM, rng=1)
        np.testing.assert_array_equal(a.encode("abcdef"), b.encode("abcdef"))

    def test_trigram_matches_manual_binding(self):
        enc = NgramEncoder(n=3, dimension=DIM, rng=2)
        hv = enc.encode("abc")
        mem = enc.item_memory
        a, b, c = (mem[enc.indices("abc")[i]] for i in range(3))
        manual = permute(a, 2) * permute(b, 1) * c
        np.testing.assert_array_equal(hv, manual.astype(np.int8))

    def test_order_sensitivity(self):
        enc = NgramEncoder(n=3, dimension=8192, rng=3)
        fwd = enc.encode("abcdefgh" * 4)
        rev = enc.encode(("abcdefgh" * 4)[::-1])
        assert cosine(fwd, rev) < 0.3

    def test_shared_ngrams_raise_similarity(self):
        enc = NgramEncoder(n=3, dimension=8192, rng=4)
        a = enc.encode("the quick brown fox jumps")
        b = enc.encode("the quick brown fox sleeps")
        c = enc.encode("zzzzyyyyxxxxwwwwvvvvuuuu")
        assert cosine(a, b) > cosine(a, c)

    def test_too_short_text_rejected(self):
        enc = NgramEncoder(n=4, dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match="at least"):
            enc.encode("abc")

    def test_unknown_char_raise_policy(self):
        enc = NgramEncoder(n=2, dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match="not in alphabet"):
            enc.encode("ab!cd")

    def test_unknown_char_skip_policy(self):
        enc = NgramEncoder(n=2, dimension=DIM, rng=0, unknown_policy="skip")
        clean = NgramEncoder(n=2, dimension=DIM, rng=0)
        np.testing.assert_array_equal(enc.encode("ab!cd"), clean.encode("abcd"))

    def test_unknown_char_map_policy(self):
        enc = NgramEncoder(n=2, dimension=DIM, rng=0, unknown_policy="map")
        mapped = enc.indices("a!")
        assert mapped[1] == len(DEFAULT_ALPHABET) - 1

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ConfigurationError):
            NgramEncoder(alphabet="aab", dimension=DIM)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ConfigurationError):
            NgramEncoder(alphabet="", dimension=DIM)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            NgramEncoder(dimension=DIM, unknown_policy="ignore")

    def test_non_string_rejected(self):
        enc = NgramEncoder(dimension=DIM, rng=0)
        with pytest.raises(EncodingError):
            enc.encode(123)  # type: ignore[arg-type]


class TestNgramDeltaSurface:
    """The delta-encoder API the fuzzing engines consume (PR 3)."""

    def test_levels_is_alphabet_size(self):
        enc = NgramEncoder(alphabet="abc ", dimension=DIM, rng=0)
        assert enc.levels == 4

    def test_quantize_strings_matches_indices(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        rows = enc.quantize(["abc", "cba"])
        np.testing.assert_array_equal(rows[0], enc.indices("abc"))
        np.testing.assert_array_equal(rows[1], enc.indices("cba"))

    def test_quantize_codes_pass_through(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        codes = np.array([[0, 1, 2], [2, 2, 2]], dtype=np.uint8)
        out = enc.quantize(codes)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, codes)

    def test_quantize_promotes_one_code_row(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        out = enc.quantize(np.array([2, 0, 1], dtype=np.uint8))
        np.testing.assert_array_equal(out, [[2, 0, 1]])

    def test_quantize_rejects_code_blocks_above_two_dims(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match=r"\(n, L\)"):
            enc.quantize(np.zeros((2, 2, 3), dtype=np.uint8))

    def test_float_codes_rejected(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match="1-D integer"):
            enc.quantize(np.zeros((2, 4)))
        with pytest.raises(EncodingError, match="1-D integer"):
            enc.accumulate_batch(np.zeros((2, 4)))

    def test_accumulate_batch_codes_match_strings(self):
        enc = NgramEncoder(alphabet="abcd", dimension=DIM, rng=1)
        texts = ["abcdab", "ddccba"]
        np.testing.assert_array_equal(
            enc.accumulate_batch(enc.quantize(texts).astype(np.uint8)),
            enc.accumulate_batch(texts),
        )

    def test_accumulate_batch_rejects_a_bare_string(self):
        enc = NgramEncoder(alphabet="abcd", dimension=DIM, rng=1)
        with pytest.raises(EncodingError, match="not one string"):
            enc.accumulate_batch("abcdab")

    def test_quantize_rejects_ragged_strings(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match="length"):
            enc.quantize(["abc", "abcc"])

    def test_out_of_range_codes_rejected(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        with pytest.raises(EncodingError, match="codes"):
            enc.encode(np.array([0, 1, 7], dtype=np.int64))

    def test_encode_batch_codes_match_strings(self):
        enc = NgramEncoder(alphabet="abcd", dimension=DIM, rng=1)
        texts = ["abcdab", "ddccba"]
        codes = enc.quantize(texts)
        np.testing.assert_array_equal(enc.encode_batch(texts), enc.encode_batch(codes))

    def test_hvs_from_accumulators_matches_encode(self):
        enc = NgramEncoder(alphabet="abcd", dimension=DIM, rng=1)
        accs = enc.accumulate_batch(["abcdab"])
        np.testing.assert_array_equal(
            enc.hvs_from_accumulators(accs)[0], enc.encode("abcdab")
        )

    def test_accumulate_delta_shape_validation(self):
        enc = NgramEncoder(alphabet="abc", dimension=DIM, rng=0)
        levels = np.zeros((2, 5), dtype=np.int64)
        accs = np.zeros((2, DIM), dtype=np.int64)
        with pytest.raises(EncodingError):
            enc.accumulate_delta(levels, np.zeros((2, 4), dtype=np.int64), accs)
        with pytest.raises(EncodingError):
            enc.accumulate_delta(levels, levels, np.zeros((1, DIM), dtype=np.int64))
        with pytest.raises(EncodingError):
            enc.accumulate_delta(
                np.zeros((1, 2), dtype=np.int64),
                np.zeros((1, 2), dtype=np.int64),
                np.zeros((1, DIM), dtype=np.int64),
            )

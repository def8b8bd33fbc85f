"""Tests for the text mutation strategies on the text domain's code arrays."""

import numpy as np
import pytest

from repro.errors import MutationError
from repro.fuzz.mutations.text import CharSubstitution, CharTransposition


def _codes(n):
    return np.arange(n, dtype=np.uint8)


class TestCharSubstitution:
    def test_produces_n_children(self):
        codes = _codes(11)
        out = CharSubstitution().mutate(codes, 5, rng=0)
        assert out.shape == (5, 11) and out.dtype == codes.dtype

    def test_at_most_k_positions_changed(self):
        codes = _codes(16)
        out = CharSubstitution(chars_per_step=2).mutate(codes, 10, rng=0)
        assert ((out != codes).sum(axis=1) <= 2).all()

    def test_replacements_from_alphabet(self):
        codes = np.full(4, 7, dtype=np.uint8)
        out = CharSubstitution(alphabet="xyz").mutate(codes, 10, rng=0)
        assert set(out.ravel().tolist()) <= {0, 1, 2, 7}

    def test_chars_per_step_capped_at_length(self):
        out = CharSubstitution(chars_per_step=50).mutate(_codes(3), 2, rng=0)
        assert out.shape == (2, 3)

    def test_deterministic(self):
        a = CharSubstitution().mutate(_codes(11), 3, rng=4)
        b = CharSubstitution().mutate(_codes(11), 3, rng=4)
        np.testing.assert_array_equal(a, b)

    def test_empty_code_array_rejected(self):
        with pytest.raises(MutationError):
            CharSubstitution().mutate(_codes(0), 1, rng=0)

    @pytest.mark.parametrize("item", ["hello", 123, np.zeros(4)])
    def test_non_code_input_rejected(self, item):
        with pytest.raises(MutationError, match="1-D integer"):
            CharSubstitution().mutate(item, 1, rng=0)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(MutationError):
            CharSubstitution(alphabet="")


class TestCharTransposition:
    def test_multiset_preserved(self):
        codes = _codes(7)
        out = CharTransposition(swaps_per_step=2).mutate(codes, 5, rng=0)
        np.testing.assert_array_equal(np.sort(out, axis=1), np.tile(codes, (5, 1)))

    def test_adjacent_swap_only(self):
        codes = _codes(4)
        out = CharTransposition(swaps_per_step=1).mutate(codes, 20, rng=0)
        for child in out:
            diffs = np.flatnonzero(child != codes)
            assert len(diffs) in (0, 2)
            if len(diffs):
                assert diffs[1] == diffs[0] + 1

    def test_too_short_rejected(self):
        with pytest.raises(MutationError):
            CharTransposition().mutate(_codes(1), 1, rng=0)

    def test_string_input_rejected(self):
        with pytest.raises(MutationError, match="1-D integer"):
            CharTransposition().mutate("ab", 1, rng=0)

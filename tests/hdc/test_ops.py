"""Tests for the cyclic permutation ``ρ`` (Sec. III-A)."""

import numpy as np

from repro.hdc.ops import permute
from repro.hdc.similarity import cosine
from repro.hdc.spaces import BipolarSpace

SPACE = BipolarSpace(2048)


class TestPermute:
    def test_roundtrip(self):
        hv = SPACE.random(rng=15)
        np.testing.assert_array_equal(permute(permute(hv, 3), -3), hv)

    def test_shift_wraps(self):
        hv = np.arange(5)
        np.testing.assert_array_equal(permute(hv, 7), permute(hv, 2))

    def test_produces_orthogonal_vector(self):
        hv = SPACE.random(rng=16)
        assert abs(cosine(permute(hv, 1), hv)) < 5 / np.sqrt(SPACE.dimension)

    def test_batch_permutes_last_axis(self):
        batch = np.stack([np.arange(4), np.arange(4) + 10])
        out = permute(batch, 1)
        np.testing.assert_array_equal(out[0], [3, 0, 1, 2])
        np.testing.assert_array_equal(out[1], [13, 10, 11, 12])

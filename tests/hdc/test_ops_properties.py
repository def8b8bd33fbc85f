"""Property-based tests (hypothesis) for the cyclic permutation ``ρ``."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hdc.ops import permute

DIM = 64

bipolar_vectors = arrays(
    dtype=np.int8,
    shape=DIM,
    elements=st.sampled_from([-1, 1]),
)
shifts = st.integers(min_value=-3 * DIM, max_value=3 * DIM)


@given(hv=bipolar_vectors, k=shifts)
def test_permute_roundtrip(hv, k):
    np.testing.assert_array_equal(permute(permute(hv, k), -k), hv)


@given(hv=bipolar_vectors, k=shifts)
def test_permute_preserves_multiset(hv, k):
    assert sorted(permute(hv, k).tolist()) == sorted(hv.tolist())


@given(hv=bipolar_vectors, j=shifts, k=shifts)
def test_permute_composes_additively(hv, j, k):
    np.testing.assert_array_equal(permute(permute(hv, j), k), permute(hv, j + k))

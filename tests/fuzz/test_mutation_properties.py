"""Property-based tests (hypothesis) for mutation strategies and budgets.

Invariants every image strategy must uphold regardless of parameters:
children stay in [0, 255], the original is untouched, shapes are
preserved, and each strategy's locality contract (how many pixels may
change) holds for arbitrary images.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.fuzz.constraints import ImageConstraint, TextConstraint
from repro.fuzz.mutations.noise import GaussianNoise, RandomNoise
from repro.fuzz.mutations.rowcol import RowColRandom
from repro.fuzz.mutations.shift import Shift

SHAPE = (12, 12)

images = arrays(
    dtype=np.float64,
    shape=SHAPE,
    elements=st.floats(min_value=0.0, max_value=255.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
counts = st.integers(min_value=1, max_value=6)


@given(image=images, seed=seeds, n=counts)
@settings(max_examples=25, deadline=None)
def test_gauss_children_valid(image, seed, n):
    out = GaussianNoise(sigma=5.0).mutate(image, n, rng=seed)
    assert out.shape == (n, *SHAPE)
    assert out.min() >= 0.0 and out.max() <= 255.0


@given(image=images, seed=seeds, n=counts)
@settings(max_examples=25, deadline=None)
def test_rand_locality_contract(image, seed, n):
    k = 4
    out = RandomNoise(amplitude=20.0, pixels_per_step=k).mutate(image, n, rng=seed)
    for child in out:
        assert (np.abs(child - image) > 1e-12).sum() <= k
        assert child.min() >= 0.0 and child.max() <= 255.0


@given(image=images, seed=seeds, n=counts)
@settings(max_examples=25, deadline=None)
def test_rowcol_touches_single_line(image, seed, n):
    out = RowColRandom(amplitude=50.0).mutate(image, n, rng=seed)
    for child in out:
        rows, cols = np.nonzero(np.abs(child - image) > 1e-12)
        if rows.size == 0:
            continue  # clipping may cancel every change on a dark line
        assert len(np.unique(rows)) == 1 or len(np.unique(cols)) == 1


@given(image=images, seed=seeds, n=counts)
@settings(max_examples=25, deadline=None)
def test_shift_preserves_or_zeroes_values(image, seed, n):
    out = Shift().mutate(image, n, rng=seed)
    original_values = set(np.round(image.ravel(), 9)) | {0.0}
    for child in out:
        assert set(np.round(child.ravel(), 9)).issubset(original_values)


@given(image=images, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_mutation_never_modifies_original(image, seed):
    snapshot = image.copy()
    for strategy in (GaussianNoise(), RandomNoise(), RowColRandom(), Shift()):
        strategy.mutate(image, 2, rng=seed)
    np.testing.assert_array_equal(image, snapshot)


@given(image=images, other=images)
@settings(max_examples=25, deadline=None)
def test_image_constraint_accept_consistent_with_measure(image, other):
    constraint = ImageConstraint(max_l2=1.0)
    accepted = bool(constraint.accept(image, other[None])[0])
    measured = constraint.measure(image, other)["l2"]
    assert accepted == (measured <= 1.0)


@given(image=images)
@settings(max_examples=25, deadline=None)
def test_image_constraint_accepts_identity(image):
    assert ImageConstraint(max_l2=1e-12).accept(image, image[None])[0]


texts = arrays(
    dtype=np.uint8,
    shape=st.integers(min_value=3, max_value=30),
    elements=st.integers(min_value=0, max_value=8),
)


@given(text=texts, other=texts)
@settings(max_examples=50, deadline=None)
def test_text_constraint_symmetric(text, other):
    constraint = TextConstraint(max_edits=5)
    if len(text) != len(other):
        # Length-preserving contract: unequal pairs are a configuration
        # bug and must raise rather than broadcast or score silently.
        with pytest.raises(ConfigurationError):
            constraint.measure(text, other)
        return
    a = constraint.measure(text, other)["edits"]
    b = constraint.measure(other, text)["edits"]
    assert a == b


@given(text=texts)
@settings(max_examples=50, deadline=None)
def test_text_constraint_identity_zero_edits(text):
    assert TextConstraint().measure(text, text)["edits"] == 0.0

"""Direct property tests for the discrepancy oracles.

The engines exercise the oracles indirectly on every fuzzing run; these
tests pin the vectorized contracts on their own — empty batches, dtype
coercion, and the cross-model voting rules — so an oracle regression
fails here with a readable message instead of surfacing as a
mysteriously different campaign outcome.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.fuzz import (
    CrossModelOracle,
    DifferentialOracle,
    MajorityOracle,
    majority_vote,
)

label_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=0, max_value=40),
    elements=st.integers(min_value=0, max_value=9),
)


class TestDifferentialOracle:
    @given(labels=label_arrays, reference=st.integers(min_value=0, max_value=9))
    @settings(max_examples=50, deadline=None)
    def test_mask_matches_elementwise_definition(self, labels, reference):
        mask = DifferentialOracle().discrepancies(reference, labels)
        assert mask.dtype == bool and mask.shape == labels.shape
        np.testing.assert_array_equal(mask, labels != reference)

    def test_empty_batch(self):
        mask = DifferentialOracle().discrepancies(3, np.array([], dtype=np.int64))
        assert mask.shape == (0,) and mask.dtype == bool

    def test_dtype_coercion(self):
        # Lists, int32, and numpy reference scalars all coerce.
        oracle = DifferentialOracle()
        np.testing.assert_array_equal(
            oracle.discrepancies(np.int32(2), [2, 3, 2]), [False, True, False]
        )
        np.testing.assert_array_equal(
            oracle.discrepancies(2, np.array([2, 1], dtype=np.int16)), [False, True]
        )

    def test_is_adversarial_scalar_form(self):
        oracle = DifferentialOracle()
        assert oracle.is_adversarial(1, 2)
        assert not oracle.is_adversarial(np.int64(5), np.int64(5))

    def test_no_reference_discrepancy_single_model(self):
        assert not DifferentialOracle().reference_discrepancy(np.array([4]))

    def test_ensemble_form_rejected(self):
        with pytest.raises(ConfigurationError, match="cross-model"):
            DifferentialOracle().discrepancies_ensemble(
                np.array([1, 1]), np.ones((2, 3), dtype=np.int64)
            )


member_blocks = arrays(
    dtype=np.int64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=5),   # K members
        st.integers(min_value=0, max_value=20),  # n children
    ),
    elements=st.integers(min_value=0, max_value=4),
)


class TestCrossModelOracle:
    @given(block=member_blocks)
    @settings(max_examples=50, deadline=None)
    def test_flags_exactly_non_unanimous_columns(self, block):
        mask = CrossModelOracle().discrepancies_ensemble(block[:, :1], block)
        expected = np.array(
            [len(set(block[:, j])) > 1 for j in range(block.shape[1])], dtype=bool
        )
        np.testing.assert_array_equal(mask, expected)

    def test_reference_discrepancy_iff_votes_split(self):
        oracle = CrossModelOracle()
        assert not oracle.reference_discrepancy(np.array([3, 3, 3]))
        assert oracle.reference_discrepancy(np.array([3, 3, 1]))

    def test_single_model_form_rejected(self):
        with pytest.raises(ConfigurationError, match="ModelEnsembleTarget"):
            CrossModelOracle().discrepancies(0, np.array([1, 2]))

    def test_unanimous_flip_is_invisible(self):
        # Every member moves to the same wrong class: no pairwise
        # disagreement, so the cross-model oracle stays silent (the
        # documented blind spot the majority oracle covers).
        votes = np.array([0, 0, 0])
        children = np.full((3, 4), 7, dtype=np.int64)
        assert not CrossModelOracle().discrepancies_ensemble(votes, children).any()


class TestMajorityOracle:
    @given(block=member_blocks)
    @settings(max_examples=50, deadline=None)
    def test_flags_exactly_majority_flips(self, block):
        votes = block[:, 0] if block.shape[1] else np.zeros(
            block.shape[0], dtype=np.int64
        )
        oracle = MajorityOracle(5)
        mask = oracle.discrepancies_ensemble(votes, block)
        reference = majority_vote(votes[:, None], 5)[0]
        expected = majority_vote(block, 5) != reference
        np.testing.assert_array_equal(mask, expected)

    def test_majority_tie_breaks_deterministically_low(self):
        oracle = MajorityOracle(4)
        votes = np.array([0, 0])
        children = np.array([[1], [3]])  # 1-1 tie → label 1 wins, flip
        np.testing.assert_array_equal(
            oracle.discrepancies_ensemble(votes, children), [True]
        )

    def test_lone_dissenter_cannot_flip_the_vote(self):
        oracle = MajorityOracle(10)
        votes = np.array([2, 2, 2])
        children = np.array([[2, 2], [2, 2], [2, 9]])
        np.testing.assert_array_equal(
            oracle.discrepancies_ensemble(votes, children), [False, False]
        )

    def test_no_reference_discrepancy(self):
        assert not MajorityOracle(3).reference_discrepancy(np.array([0, 1, 2]))

    def test_invalid_n_classes_rejected(self):
        with pytest.raises(ConfigurationError):
            MajorityOracle(0)

    def test_empty_batch(self):
        mask = MajorityOracle(3).discrepancies_ensemble(
            np.array([1, 1]), np.zeros((2, 0), dtype=np.int64)
        )
        assert mask.shape == (0,)

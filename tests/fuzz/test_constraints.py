"""Tests for perturbation constraints (the Sec. IV distance budget)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConstraintError
from repro.fuzz.constraints import (
    Constraint,
    ImageConstraint,
    NullConstraint,
    TextConstraint,
)


@pytest.fixture()
def original():
    return np.full((28, 28), 100.0)


class TestImageConstraint:
    def test_paper_default_budget(self):
        assert ImageConstraint().max_l2 == 1.0

    def test_accept_within_l2(self, original):
        candidate = original.copy()
        candidate[0, 0] += 100.0  # L2 = 100/255 ≈ 0.39
        mask = ImageConstraint(max_l2=1.0).accept(original, candidate[None])
        assert mask.tolist() == [True]

    def test_reject_beyond_l2(self, original):
        candidate = original + 20.0  # L2 = sqrt(784)*(20/255) ≈ 2.2
        mask = ImageConstraint(max_l2=1.0).accept(original, candidate[None])
        assert mask.tolist() == [False]

    def test_boundary_is_inclusive(self, original):
        candidate = original.copy()
        candidate[0, 0] += 255.0  # exactly L2 = 1 after clipping... use raw
        candidate = np.clip(candidate, 0, 255)
        mask = ImageConstraint(max_l2=(155.0 / 255.0)).accept(original, candidate[None])
        assert mask.tolist() == [True]

    def test_l1_budget(self, original):
        c = ImageConstraint(max_l2=None, max_l1=1.0)
        near = original.copy()
        near[0, 0] += 200.0
        far = original + 1.0  # L1 = 784/255 ≈ 3.1
        mask = c.accept(original, np.stack([near, far]))
        assert mask.tolist() == [True, False]

    def test_linf_budget(self, original):
        c = ImageConstraint(max_l2=None, max_linf=0.1)
        small = original + 20.0  # per-pixel 0.078
        big = original.copy()
        big[0, 0] += 50.0  # 0.196
        mask = c.accept(original, np.stack([small, big]))
        assert mask.tolist() == [True, False]

    def test_single_image_promoted(self, original):
        mask = ImageConstraint().accept(original, original.copy())
        assert mask.shape == (1,)

    def test_clip(self):
        out = ImageConstraint().clip(np.array([[-5.0, 300.0]]))
        np.testing.assert_array_equal(out, [[0.0, 255.0]])

    def test_measure_keys(self, original):
        metrics = ImageConstraint().measure(original, original + 1.0)
        assert set(metrics) == {"l1", "l2", "linf", "l0"}

    def test_shape_mismatch_rejected(self, original):
        with pytest.raises(ConstraintError):
            ImageConstraint().accept(original, np.zeros((1, 5, 5)))

    def test_all_none_budgets_rejected(self):
        with pytest.raises(ConstraintError, match="NullConstraint"):
            ImageConstraint(max_l2=None)

    def test_negative_budget_rejected(self):
        with pytest.raises(Exception):
            ImageConstraint(max_l2=-0.5)


class TestTextConstraint:
    def test_accept_within_edits(self):
        # The budget is inclusive: exactly max_edits differing codes pass.
        original = np.array([0, 1, 2, 3], dtype=np.uint8)
        candidates = np.array(
            [[0, 1, 2, 3], [0, 1, 2, 9], [9, 9, 2, 3], [9, 9, 9, 3]], dtype=np.uint8
        )
        mask = TextConstraint(max_edits=2).accept(original, candidates)
        assert mask.tolist() == [True, True, True, False]

    def test_measure(self):
        original = np.array([4, 4, 4, 4, 4], dtype=np.uint8)
        c = TextConstraint()
        assert c.measure(original, original) == {"edits": 0.0}
        assert c.measure(original, np.array([4, 4, 4, 4, 0], np.uint8)) == {"edits": 1.0}
        assert c.measure(original, np.array([4, 0, 4, 0, 0], np.uint8)) == {"edits": 3.0}
        assert c.measure(original, np.zeros(5, np.uint8)) == {"edits": 5.0}

    def test_single_candidate_row_promoted(self):
        original = np.array([0, 1, 2], dtype=np.uint8)
        mask = TextConstraint(max_edits=1).accept(original, np.array([0, 1, 9], np.uint8))
        assert mask.shape == (1,) and mask.tolist() == [True]

    def test_block_original_rejected(self):
        block = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ConfigurationError, match=r"expected a \(L,\) original"):
            TextConstraint().accept(block, block)

    def test_length_change_raises_on_code_arrays(self):
        # Regression: unequal-length pairs are a configuration bug (text
        # mutation is length-preserving by contract), not a rejectable
        # mutant — no silent inf-edit scoring or implicit broadcasting.
        c = TextConstraint(max_edits=100)
        original = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ConfigurationError, match="preserve length"):
            c.accept(original, np.zeros((2, 4), dtype=np.uint8))
        with pytest.raises(ConfigurationError, match="preserve length"):
            c.measure(original, np.zeros(4, dtype=np.uint8))

    def test_strings_rejected(self):
        # The engines hand the budget code arrays; strings are not inputs.
        c = TextConstraint()
        with pytest.raises(ConfigurationError, match=r"expected a \(L,\) original"):
            c.accept("abcd", ["abcx"])
        with pytest.raises(ConfigurationError, match=r"expected a \(L,\) original"):
            c.measure("abc", "axc")

    def test_clip_is_identity(self):
        texts = ["a", "b"]
        assert TextConstraint().clip(texts) is texts

    def test_invalid_budget(self):
        with pytest.raises(ConstraintError):
            TextConstraint(max_edits=0)


class TestNullConstraint:
    def test_accepts_everything(self, original):
        wild = original + 255.0
        mask = NullConstraint().accept(original, np.clip(wild, 0, 255)[None])
        assert mask.tolist() == [True]

    def test_clips_images(self):
        out = NullConstraint().clip(np.array([[-1.0, 999.0]]))
        np.testing.assert_array_equal(out, [[0.0, 255.0]])

    def test_passes_text_through(self):
        texts = ["x"]
        assert NullConstraint().clip(texts) is texts
        assert NullConstraint().accept("x", texts).tolist() == [True]

    def test_measure_images(self, original):
        assert "l2" in NullConstraint().measure(original, original + 1.0)

    def test_measure_text_empty(self):
        assert NullConstraint().measure("a", "b") == {}

    def test_code_arrays_pass_through_unclipped(self):
        # Codes are alphabet indices, not grey levels: no [0, 255] clip.
        codes = np.array([[0, 300], [7, 1]], dtype=np.int64)
        assert NullConstraint().clip(codes) is codes
        assert NullConstraint().measure(codes[0], codes[1]) == {}


class TestPerturbationSizes:
    """The vectorised sizes equal the per-candidate ``measure`` loop bit for bit.

    The engine ranks an iteration's children by these sizes and picks
    the least-perturbed discrepancy by them, so any difference in the
    last bit could reorder near-ties.
    """

    @pytest.mark.parametrize("constraint", [ImageConstraint(), NullConstraint()])
    def test_images_equal_the_measure_loop(self, constraint, rng):
        original = rng.integers(0, 256, (28, 28)).astype(np.float64)
        noise = rng.normal(0, 40, (24, 28, 28)) * (rng.random((24, 28, 28)) < 0.6)
        candidates = constraint.clip(original + noise)
        candidates[5] = candidates[2]  # a repeat ranks like its first row
        sizes = constraint.perturbation_sizes(original, candidates)
        loop = Constraint.perturbation_sizes(constraint, original, candidates)
        assert sizes.tobytes() == loop.tobytes()
        assert sizes[5] == sizes[2]
        expected = [constraint.measure(original, c)["l2"] for c in candidates]
        assert sizes.tolist() == expected

    def test_text_ranks_by_edits(self):
        original = np.array([0, 1, 2, 3], dtype=np.uint8)
        candidates = np.array([[0, 1, 2, 3], [9, 1, 2, 3], [9, 9, 2, 3]], np.uint8)
        sizes = TextConstraint().perturbation_sizes(original, candidates)
        assert sizes.tolist() == [0.0, 1.0, 2.0]

    def test_unmeasured_text_sizes_are_zero(self):
        codes = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        sizes = NullConstraint().perturbation_sizes(codes[0], codes)
        assert sizes.tolist() == [0.0, 0.0]

"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EncodingError
from repro.utils.validation import (
    as_image_batch,
    check_in_choices,
    check_labels,
    check_positive_float,
    check_positive_int,
)


class TestIntCheckers:
    def test_positive_accepts_one(self):
        assert check_positive_int(1, "x") == 1

    def test_positive_accepts_numpy_int(self):
        assert check_positive_int(np.int32(5), "x") == 5

    def test_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x must be >= 1"):
            check_positive_int(0, "x")

    def test_positive_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_positive_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(2.0, "x")


class TestFloatCheckers:
    def test_positive_float(self):
        assert check_positive_float(0.5, "x") == 0.5

    def test_positive_float_rejects_zero_by_default(self):
        with pytest.raises(ConfigurationError):
            check_positive_float(0.0, "x")

    def test_positive_float_allow_zero(self):
        assert check_positive_float(0.0, "x", allow_zero=True) == 0.0

    def test_positive_float_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_positive_float("a", "x")


class TestChoices:
    def test_accepts_member(self):
        assert check_in_choices("fill", "mode", ("fill", "wrap")) == "fill"

    def test_rejects_non_member(self):
        with pytest.raises(ConfigurationError, match="mode must be one of"):
            check_in_choices("pad", "mode", ("fill", "wrap"))


class TestImageCoercion:
    def test_single_image_promoted_to_batch(self):
        batch = as_image_batch(np.zeros((28, 28)))
        assert batch.shape == (1, 28, 28)

    def test_batch_passthrough(self):
        batch = as_image_batch(np.zeros((3, 28, 28)))
        assert batch.shape == (3, 28, 28)

    def test_dtype_is_float64(self):
        assert as_image_batch(np.zeros((2, 4, 4), dtype=np.uint8)).dtype == np.float64

    def test_wrong_rank_rejected(self):
        with pytest.raises(EncodingError, match="shape"):
            as_image_batch(np.zeros((2, 2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EncodingError):
            as_image_batch(np.zeros((5, 5)), shape=(28, 28))

    def test_nan_rejected(self):
        img = np.zeros((4, 4))
        img[0, 0] = np.nan
        with pytest.raises(EncodingError, match="NaN"):
            as_image_batch(img)

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodingError, match="255"):
            as_image_batch(np.full((4, 4), 300.0))
        with pytest.raises(EncodingError):
            as_image_batch(np.full((4, 4), -1.0))

    def test_empty_rejected(self):
        with pytest.raises(EncodingError, match="empty"):
            as_image_batch(np.zeros((0, 4, 4)))


class TestShapeAndLabels:
    def test_labels_coerced_to_int64(self):
        out = check_labels([0, 1, 2], 3)
        assert out.dtype == np.int64

    def test_labels_float_integers_accepted(self):
        out = check_labels(np.array([0.0, 2.0]), 2)
        np.testing.assert_array_equal(out, [0, 2])

    def test_labels_fractional_rejected(self):
        with pytest.raises(ConfigurationError):
            check_labels(np.array([0.5, 1.0]), 2)

    def test_labels_wrong_length(self):
        with pytest.raises(ConfigurationError):
            check_labels([0, 1], 3)

    def test_labels_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            check_labels([-1, 0], 2)

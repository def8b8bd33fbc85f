"""Tests for the synthetic handwritten-digit generator."""

import numpy as np
import pytest

from repro.datasets.synthetic_mnist import (
    DIGIT_NAMES,
    DigitStyle,
    SyntheticDigitGenerator,
    glyph_strokes,
)
from repro.errors import ConfigurationError, DatasetError


class TestGlyphs:
    @pytest.mark.parametrize("digit", range(10))
    def test_strokes_exist_and_in_unit_box(self, digit):
        strokes = glyph_strokes(digit)
        assert strokes
        for stroke in strokes:
            assert stroke.ndim == 2 and stroke.shape[1] == 2
            assert stroke.shape[0] >= 2
            assert (stroke >= 0.0).all() and (stroke <= 1.0).all()

    def test_strokes_are_copies(self):
        a = glyph_strokes(3)
        a[0][0, 0] = 99.0
        b = glyph_strokes(3)
        assert b[0][0, 0] != 99.0

    def test_invalid_digit_rejected(self):
        with pytest.raises(ConfigurationError):
            glyph_strokes(10)

    def test_digit_names(self):
        assert DIGIT_NAMES == tuple(str(d) for d in range(10))


class TestRender:
    @pytest.fixture(scope="class")
    def gen(self):
        return SyntheticDigitGenerator()

    def test_shape_and_dtype(self, gen):
        img = gen.render(5, rng=0)
        assert img.shape == (28, 28)
        assert img.dtype == np.uint8

    def test_deterministic_given_seed(self, gen):
        np.testing.assert_array_equal(gen.render(7, rng=42), gen.render(7, rng=42))

    def test_different_seeds_vary(self, gen):
        assert not np.array_equal(gen.render(7, rng=1), gen.render(7, rng=2))

    @pytest.mark.parametrize("digit", range(10))
    def test_every_digit_has_ink(self, gen, digit):
        img = gen.render(digit, rng=3)
        ink = (img > 128).sum()
        assert 30 < ink < 500  # a stroke, not a blob or a blank

    def test_background_mostly_zero(self, gen):
        img = gen.render(0, rng=4)
        assert (img == 0).mean() > 0.5

    def test_custom_shape(self):
        gen = SyntheticDigitGenerator(DigitStyle(image_shape=(14, 14)))
        assert gen.render(1, rng=0).shape == (14, 14)


class TestBatchAndDataset:
    def test_batch_respects_labels(self):
        gen = SyntheticDigitGenerator()
        imgs = gen.batch([0, 1, 2], rng=0)
        assert imgs.shape == (3, 28, 28)

    def test_batch_rejects_2d_labels(self):
        with pytest.raises(DatasetError):
            SyntheticDigitGenerator().batch(np.zeros((2, 2), dtype=int), rng=0)

    def test_dataset_balanced(self):
        gen = SyntheticDigitGenerator()
        _, labels = gen.dataset(40, rng=0, balanced=True)
        counts = np.bincount(labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_dataset_unbalanced_mode(self):
        gen = SyntheticDigitGenerator()
        _, labels = gen.dataset(50, rng=0, balanced=False)
        assert labels.min() >= 0 and labels.max() <= 9

    def test_dataset_deterministic(self):
        gen = SyntheticDigitGenerator()
        imgs_a, labels_a = gen.dataset(20, rng=5)
        imgs_b, labels_b = gen.dataset(20, rng=5)
        np.testing.assert_array_equal(imgs_a, imgs_b)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_classes_are_visually_distinct(self):
        # Nearest-centroid classification on raw pixels should beat
        # chance by a wide margin if the classes are actually distinct.
        gen = SyntheticDigitGenerator()
        train_imgs, train_labels = gen.dataset(300, rng=0)
        test_imgs, test_labels = gen.dataset(100, rng=1)
        centroids = np.stack(
            [train_imgs[train_labels == d].mean(axis=0) for d in range(10)]
        )
        flat = test_imgs.reshape(len(test_imgs), -1).astype(np.float64)
        cent = centroids.reshape(10, -1)
        dists = ((flat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == test_labels).mean()
        assert acc > 0.6


class _FullDistanceGenerator(SyntheticDigitGenerator):
    """The reference: every pixel's distance to every segment."""

    def _rasterize(
        self, segments: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Distance-field rasterisation with anti-aliased stroke edges."""
        style = self._style
        p = self._pixel_xy  # (P, 2)
        a = segments[:, 0]  # (S, 2)
        b = segments[:, 1]  # (S, 2)
        ab = b - a
        denom = np.einsum("sd,sd->s", ab, ab)
        denom[denom == 0.0] = 1e-12
        # Project every pixel onto every segment, clamped to [0, 1].
        ap = p[:, None, :] - a[None, :, :]  # (P, S, 2)
        t = np.clip(np.einsum("psd,sd->ps", ap, ab) / denom, 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        dist = np.linalg.norm(p[:, None, :] - closest, axis=2).min(axis=1)  # (P,)

        thickness = generator.uniform(*style.thickness_range)
        # 1.0 inside the stroke core, linear falloff over `falloff` beyond it.
        ink = np.clip((thickness + style.falloff - dist) / style.falloff, 0.0, 1.0)
        h, w = style.image_shape
        return ink.reshape(h, w)


class TestNearStrokeRasterisation:
    """Measuring only pixels near a segment renders the same bytes."""

    @pytest.mark.parametrize(
        "style",
        [
            DigitStyle(),
            DigitStyle(image_shape=(14, 14)),
            DigitStyle(image_shape=(20, 36)),
            DigitStyle(thickness_range=(0.08, 0.12), falloff=0.05),
            DigitStyle(falloff=0.2),
            DigitStyle(
                rotation_deg=45.0, translation=0.2, shear=0.3, scale_range=(0.5, 1.5)
            ),
            DigitStyle(thickness_range=(0.01, 0.01), falloff=0.001),  # hairline
        ],
        ids=["default", "14x14", "20x36", "thick", "soft", "affine", "hairline"],
    )
    def test_dataset_matches_full_distance_reference(self, style):
        got = SyntheticDigitGenerator(style).dataset(150, rng=7)
        want = _FullDistanceGenerator(style).dataset(150, rng=7)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            np.testing.assert_array_equal(got_array, want_array)


class TestStyleValidation:
    def test_default_style_valid(self):
        DigitStyle().validate()

    def test_bad_thickness_range(self):
        with pytest.raises(ConfigurationError):
            DigitStyle(thickness_range=(0.06, 0.03)).validate()

    def test_zero_thickness(self):
        with pytest.raises(ConfigurationError):
            DigitStyle(thickness_range=(0.0, 0.01)).validate()

    def test_bad_falloff(self):
        with pytest.raises(ConfigurationError):
            DigitStyle(falloff=0.0).validate()

    def test_bad_speckle_prob(self):
        with pytest.raises(ConfigurationError):
            DigitStyle(speckle_prob=1.5).validate()

    def test_bad_image_shape(self):
        with pytest.raises(ConfigurationError):
            SyntheticDigitGenerator(DigitStyle(image_shape=(0, 28)))

"""Tests for campaign-level model dispatch (``resolve_model_backend``)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    HDCClassifier,
    NgramEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarHDCClassifier,
    PixelEncoder,
    resolve_model_backend,
)

SHAPE = (6, 6)


def _binary_model():
    images = np.random.default_rng(0).integers(0, 256, size=(6,) + SHAPE).astype(float)
    model = BinaryHDCClassifier(
        BinaryPixelEncoder(shape=SHAPE, levels=8, dimension=256, rng=1), 3
    )
    return model.fit(images, np.arange(6) % 3), images


class TestResolveModelBackend:
    def test_dense_passthrough(self):
        model, _ = _binary_model()
        assert resolve_model_backend(model, None) is model
        assert resolve_model_backend(model, "dense") is model

    def test_packed_converts_binary(self):
        model, images = _binary_model()
        packed = resolve_model_backend(model, "packed")
        assert isinstance(packed, PackedBinaryHDCClassifier)
        np.testing.assert_array_equal(packed.predict(images), model.predict(images))

    def test_packed_model_rebinds(self):
        """An already-packed model is returned unchanged."""
        model, _ = _binary_model()
        packed = resolve_model_backend(model, "packed")
        assert resolve_model_backend(packed, "packed") is packed
        assert resolve_model_backend(packed, "dense") is packed

    def test_bipolar_rejected(self):
        model = HDCClassifier(PixelEncoder(shape=SHAPE, dimension=128, rng=0), 3)
        with pytest.raises(ConfigurationError, match="dense-binary"):
            resolve_model_backend(model, "packed")

    def test_unknown_backend_rejected(self):
        model, _ = _binary_model()
        with pytest.raises(ConfigurationError, match="unknown model backend"):
            resolve_model_backend(model, "gpu")

    def _bipolar_model(self):
        images = (
            np.random.default_rng(0).integers(0, 256, size=(6,) + SHAPE).astype(float)
        )
        model = HDCClassifier(PixelEncoder(shape=SHAPE, dimension=256, rng=1), 3)
        return model.fit(images, np.arange(6) % 3), images

    def test_packed_bipolar_converts_dense(self):
        model, images = self._bipolar_model()
        packed = resolve_model_backend(model, "packed-bipolar")
        assert isinstance(packed, PackedBipolarHDCClassifier)
        np.testing.assert_array_equal(packed.predict(images), model.predict(images))

    def test_packed_bipolar_model_rebinds(self):
        """An already-packed model is returned unchanged."""
        model, _ = self._bipolar_model()
        packed = resolve_model_backend(model, "packed-bipolar")
        assert resolve_model_backend(packed, "packed-bipolar") is packed
        assert resolve_model_backend(packed, "dense") is packed

    def test_packed_bipolar_rejects_binary_family(self):
        model, _ = _binary_model()
        with pytest.raises(ConfigurationError, match="bipolar model"):
            resolve_model_backend(model, "packed-bipolar")

    def test_packed_bipolar_rejects_non_pixel_encoder(self):
        model = HDCClassifier(NgramEncoder(n=2, dimension=128, rng=0), 3)
        with pytest.raises(ConfigurationError, match="PixelEncoder"):
            resolve_model_backend(model, "packed-bipolar")

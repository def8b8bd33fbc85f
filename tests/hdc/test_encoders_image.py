"""Tests for the paper's pixel position/value image encoder."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EncodingError
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.item_memory import ItemMemory, LevelMemory
from repro.hdc.similarity import cosine
from repro.hdc.spaces import BipolarSpace

DIM = 1024


@pytest.fixture(scope="module")
def encoder():
    return PixelEncoder(shape=(8, 8), levels=16, dimension=DIM, rng=0)


def _image(shape=(8, 8), seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.float64)


class TestConstruction:
    def test_codebook_sizes_match_paper_layout(self):
        enc = PixelEncoder(shape=(28, 28), levels=256, dimension=DIM, rng=0)
        assert enc.position_memory.size == 784
        assert enc.value_memory.size == 256
        assert enc.dimension == DIM

    def test_deterministic_codebooks(self):
        a = PixelEncoder(shape=(4, 4), dimension=DIM, rng=9)
        b = PixelEncoder(shape=(4, 4), dimension=DIM, rng=9)
        np.testing.assert_array_equal(a.position_memory.vectors, b.position_memory.vectors)
        np.testing.assert_array_equal(a.value_memory.vectors, b.value_memory.vectors)

    def test_custom_value_memory(self):
        space = BipolarSpace(DIM)
        vm = LevelMemory(16, space, rng=1)
        enc = PixelEncoder(shape=(4, 4), levels=16, dimension=DIM, value_memory=vm, rng=0)
        assert enc.value_memory is vm

    def test_value_memory_size_mismatch_rejected(self):
        vm = ItemMemory(8, BipolarSpace(DIM), rng=0)
        with pytest.raises(ConfigurationError, match="rows"):
            PixelEncoder(shape=(4, 4), levels=16, dimension=DIM, value_memory=vm)

    def test_value_memory_dimension_mismatch_rejected(self):
        vm = ItemMemory(16, BipolarSpace(512), rng=0)
        with pytest.raises(ConfigurationError, match="dimension"):
            PixelEncoder(shape=(4, 4), levels=16, dimension=DIM, value_memory=vm)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            PixelEncoder(shape=(4, 4, 4))  # type: ignore[arg-type]


class TestQuantize:
    def test_identity_with_256_levels(self):
        enc = PixelEncoder(shape=(2, 2), levels=256, dimension=DIM, rng=0)
        img = np.array([[0.0, 255.0], [128.0, 7.0]])
        np.testing.assert_array_equal(enc.quantize(img)[0], [[0, 255], [128, 7]])

    def test_reduced_levels_scale(self):
        enc = PixelEncoder(shape=(2, 2), levels=16, dimension=DIM, rng=0)
        img = np.array([[0.0, 255.0], [127.5, 17.0]])
        levels = enc.quantize(img)[0]
        assert levels[0, 0] == 0
        assert levels[0, 1] == 15
        assert levels[1, 0] == 8  # 127.5/255*15 = 7.5 → rounds to 8

    def test_out_of_range_rejected(self):
        enc = PixelEncoder(shape=(2, 2), dimension=DIM, rng=0)
        with pytest.raises(EncodingError):
            enc.quantize(np.full((2, 2), 256.0))


class TestEncoding:
    def test_output_shape_and_alphabet(self, encoder):
        hv = encoder.encode(_image())
        assert hv.shape == (DIM,)
        assert set(np.unique(hv)).issubset({-1, 1})

    def test_batch_shape(self, encoder):
        batch = encoder.encode_batch(np.stack([_image(seed=i) for i in range(3)]))
        assert batch.shape == (3, DIM)

    def test_encode_deterministic(self, encoder):
        img = _image(seed=5)
        np.testing.assert_array_equal(encoder.encode(img), encoder.encode(img))

    def test_all_zero_image_encodes(self, encoder):
        hv = encoder.encode(np.zeros((8, 8)))
        assert hv.shape == (DIM,)

    def test_single_pixel_matches_manual_construction(self):
        enc = PixelEncoder(shape=(1, 1), levels=4, dimension=DIM, rng=7)
        img = np.array([[255.0]])
        hv = enc.encode(img)
        manual = enc.position_memory[0] * enc.value_memory[3]
        np.testing.assert_array_equal(hv, manual.astype(np.int8))

    def test_accumulator_matches_manual_sum(self):
        enc = PixelEncoder(shape=(2, 2), levels=4, dimension=DIM, rng=8)
        img = np.array([[0.0, 85.0], [170.0, 255.0]])
        levels = [0, 1, 2, 3]
        manual = sum(
            enc.position_memory[p].astype(np.int64) * enc.value_memory[l].astype(np.int64)
            for p, l in enumerate(levels)
        )
        np.testing.assert_array_equal(enc.accumulate_batch(img)[0], manual)

    def test_similar_images_similar_hvs(self, encoder):
        img = _image(seed=11)
        perturbed = img.copy()
        perturbed[0, 0] = 255.0 - perturbed[0, 0]
        sim_same = cosine(encoder.encode(img), encoder.encode(perturbed))
        other = _image(seed=99)
        sim_other = cosine(encoder.encode(img), encoder.encode(other))
        assert sim_same > 0.8
        assert sim_same > sim_other

    def test_wrong_shape_rejected(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(np.zeros((5, 5)))

    def test_nan_rejected(self, encoder):
        img = _image()
        img[0, 0] = np.nan
        with pytest.raises(EncodingError):
            encoder.encode(img)

    def test_repr(self, encoder):
        assert "PixelEncoder" in repr(encoder)

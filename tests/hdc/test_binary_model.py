"""Tests for the dense-binary HDC model family."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.binary_model import (
    BinaryAssociativeMemory,
    BinaryHDCClassifier,
    BinaryPixelEncoder,
)
from repro.hdc.spaces import BinarySpace

DIM = 1024


class TestBinaryPixelEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return BinaryPixelEncoder(shape=(8, 8), levels=16, dimension=DIM, rng=0)

    def _image(self, seed=0):
        return np.random.default_rng(seed).integers(0, 256, size=(8, 8)).astype(float)

    def test_output_is_binary(self, encoder):
        hv = encoder.encode(self._image())
        assert set(np.unique(hv)).issubset({0, 1})
        assert hv.shape == (DIM,)

    def test_deterministic(self, encoder):
        img = self._image(3)
        np.testing.assert_array_equal(encoder.encode(img), encoder.encode(img))

    def test_single_pixel_is_xor(self):
        enc = BinaryPixelEncoder(shape=(1, 1), levels=4, dimension=DIM, rng=1)
        img = np.array([[255.0]])
        expected = np.bitwise_xor(enc.position_memory[0], enc.value_memory[3])
        np.testing.assert_array_equal(enc.encode(img), expected)

    def test_similar_images_similar_hvs(self, encoder):
        def hamming_similarity(a, b):
            return np.mean(a == b)

        img = self._image(4)
        tweaked = img.copy()
        tweaked[0, 0] = 255.0 - tweaked[0, 0]
        other = self._image(99)
        assert hamming_similarity(encoder.encode(img), encoder.encode(tweaked)) > \
            hamming_similarity(encoder.encode(img), encoder.encode(other))

    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            BinaryPixelEncoder(shape=(8,))  # type: ignore[arg-type]


class TestBinaryAssociativeMemory:
    def _train(self, am, rng=0):
        space = BinarySpace(DIM)
        generator = np.random.default_rng(rng)
        prototypes = space.random(3, rng=generator)
        for label in range(3):
            noisy = np.repeat(prototypes[label][None], 15, axis=0).copy()
            flips = generator.random(noisy.shape) < 0.1
            noisy[flips] = 1 - noisy[flips]
            am.add(noisy, np.full(15, label))
        return prototypes

    def test_predict_recovers_prototypes(self):
        am = BinaryAssociativeMemory(3, DIM)
        prototypes = self._train(am)
        np.testing.assert_array_equal(am.predict(prototypes), [0, 1, 2])

    def test_class_hvs_binary(self):
        am = BinaryAssociativeMemory(3, DIM)
        self._train(am)
        assert set(np.unique(am.class_hvs)).issubset({0, 1})

    def test_similarity_range(self):
        am = BinaryAssociativeMemory(3, DIM)
        prototypes = self._train(am)
        sims = am.similarities(prototypes)
        assert (sims >= 0.0).all() and (sims <= 1.0).all()

    def test_untrained_raises(self):
        with pytest.raises(NotTrainedError):
            BinaryAssociativeMemory(2, DIM).predict(np.zeros((1, DIM), dtype=np.int8))

    def test_rejects_bipolar_input(self):
        am = BinaryAssociativeMemory(2, DIM)
        with pytest.raises(ConfigurationError):
            am.add(np.full((1, DIM), -1, dtype=np.int8), [0])

    def test_dimension_mismatch(self):
        am = BinaryAssociativeMemory(2, DIM)
        with pytest.raises(DimensionMismatchError):
            am.add(np.ones((1, DIM + 1), dtype=np.int8), [0])

    @pytest.mark.parametrize(
        "hvs,label,error",
        [
            (np.full((1, 8), 7, dtype=np.int8), 0, ConfigurationError),
            (np.ones((1, 8), dtype=np.int8), 5, ConfigurationError),
            (np.ones((1, 9), dtype=np.int8), 0, DimensionMismatchError),
        ],
        ids=["non-binary-row", "label-out-of-range", "wrong-width"],
    )
    def test_subtract_checks_like_add(self, hvs, label, error):
        am = BinaryAssociativeMemory(3, 8)
        am.add(np.ones((3, 8), dtype=np.int8), [0, 1, 2])
        before = am.state_dict()
        with pytest.raises(error):
            am.subtract(hvs, [label])
        np.testing.assert_array_equal(am.state_dict()["ones"], before["ones"])

    def test_state_dict_roundtrip(self):
        am = BinaryAssociativeMemory(3, DIM)
        self._train(am)
        rebuilt = BinaryAssociativeMemory.from_state_dict(am.state_dict())
        np.testing.assert_array_equal(rebuilt.class_hvs, am.class_hvs)

    def test_margins_shape(self):
        am = BinaryAssociativeMemory(3, DIM)
        prototypes = self._train(am)
        assert (am.margins(prototypes) > 0).all()

    def test_similarities_bit_identical_to_packed_and_mean(self):
        from repro.hdc.backends import PackedAssociativeMemory
        from repro.hdc.backends.packed import pack_bits

        dim = 1000  # not a multiple of 64: tail bits stay out of the counts
        queries = BinarySpace(dim).random(40, rng=5)
        am = BinaryAssociativeMemory(4, dim)
        am.add(BinarySpace(dim).random(20, rng=6), np.arange(20) % 4)
        packed = PackedAssociativeMemory.from_state_dict(am.state_dict())
        sims = am.similarities(queries)
        reference = 1.0 - (queries[:, None, :] != am.class_hvs[None]).mean(axis=2)
        np.testing.assert_array_equal(sims, reference)
        np.testing.assert_array_equal(sims, packed.similarities(pack_bits(queries)))

    def test_queries_never_build_the_query_by_class_block(self):
        # 200 queries x 10 classes x 10 000 components is a 20 MB bool
        # block; one query-sized comparison block is 2 MB.
        am = BinaryAssociativeMemory(10, 10_000)
        am.add(BinarySpace(10_000).random(40, rng=1), np.arange(40) % 10)
        queries = BinarySpace(10_000).random(200, rng=2)
        am.class_hvs  # built and cached outside the measurement
        tracemalloc.start()
        try:
            sims = am.similarities(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sims.shape == (200, 10)
        assert peak <= 4_000_000, peak


class TestBinaryClassifierEndToEnd:
    @pytest.fixture(scope="class")
    def binary_model(self, digit_data):
        train, _ = digit_data
        encoder = BinaryPixelEncoder(dimension=2048, rng=5)
        return BinaryHDCClassifier(encoder, n_classes=10).fit(
            train.images[:300], train.labels[:300]
        )

    def test_learns_above_chance(self, binary_model, digit_data):
        _, test = digit_data
        assert binary_model.score(test.images[:60], test.labels[:60]) > 0.4

    def test_fuzzable_by_hdtest(self, binary_model, digit_data):
        from repro.fuzz import HDTest, HDTestConfig

        _, test = digit_data
        fuzzer = HDTest(
            binary_model, "gauss", config=HDTestConfig(iter_times=25), rng=6
        )
        result = fuzzer.fuzz(test.images[:4].astype(np.float64))
        assert result.n_inputs == 4
        for ex in result.examples:
            assert binary_model.predict_one(ex.adversarial) == ex.adversarial_label

    def test_rejects_non_encoder(self):
        with pytest.raises(ConfigurationError):
            BinaryHDCClassifier(object(), 10)  # type: ignore[arg-type]

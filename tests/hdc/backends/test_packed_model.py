"""Equivalence tests for the packed binary model family.

Every packed component must match its unpacked counterpart bit for bit
when built from the same seed (or converted from it): codebooks, image
HVs, class HVs, similarities, predictions, margins.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    BinarySpace,
    BipolarSpace,
    PackedAssociativeMemory,
    PackedBinaryHDCClassifier,
    PackedBinarySpace,
    PackedBipolarSpace,
    PackedPixelEncoder,
)
from repro.hdc.backends.packed import pack_bits, packed_words, unpack_bits
from repro.hdc.binary_model import BinaryAssociativeMemory

DIM = 520  # deliberately not a multiple of 64
SHAPE = (8, 8)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(9).integers(0, 256, size=(12,) + SHAPE).astype(float)


@pytest.fixture(scope="module")
def pair(images):
    """(binary, packed) classifiers trained identically from one seed."""
    labels = np.arange(12) % 3
    binary = BinaryHDCClassifier(
        BinaryPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4), 3
    ).fit(images, labels)
    packed = PackedBinaryHDCClassifier(
        PackedPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4), 3
    ).fit(images, labels)
    return binary, packed


class TestPackedBinarySpace:
    def test_same_bits_as_binary_space(self):
        unpacked = BinarySpace(DIM).random(5, rng=3)
        packed = PackedBinarySpace(DIM).random(5, rng=3)
        np.testing.assert_array_equal(packed, pack_bits(unpacked))

    def test_n_words(self):
        assert PackedBinarySpace(DIM).n_words == packed_words(DIM)

    def test_check_member(self):
        space = PackedBinarySpace(DIM)
        space.check_member(space.random(3, rng=0))
        with pytest.raises(ConfigurationError):
            space.check_member(np.ones((3, space.n_words), dtype=np.int64))

    def test_pack_unpack_roundtrip(self):
        space = PackedBinarySpace(DIM)
        bits = BinarySpace(DIM).random(4, rng=1)
        np.testing.assert_array_equal(space.unpack(space.pack(bits)), bits)


class TestPackedSpaceValidation:
    """Both packed spaces guard their words the same way (D = 520: a live tail)."""

    #: packed space -> the dense space whose members it packs
    SPACES = {"binary": (PackedBinarySpace, BinarySpace),
              "bipolar": (PackedBipolarSpace, BipolarSpace)}

    @pytest.fixture(params=sorted(SPACES))
    def spaces(self, request):
        packed, dense = self.SPACES[request.param]
        return packed(DIM), dense(DIM)

    def test_pack_is_the_packed_draw(self, spaces):
        packed, dense = spaces
        members = dense.random(4, rng=5)
        words = packed.pack(members)
        np.testing.assert_array_equal(words, packed.random(4, rng=5))
        np.testing.assert_array_equal(packed.unpack(words), members)
        np.testing.assert_array_equal(packed.check_member(words), words)

    @pytest.mark.parametrize(
        "corrupt,error",
        [
            (lambda w: w[None], DimensionMismatchError),  # 3-D stack
            (lambda w: w[:, :-1], DimensionMismatchError),  # one word short
            (lambda w: w | np.uint64(1 << 63), ConfigurationError),  # bit past D
            (lambda w: w.astype(np.int64), ConfigurationError),  # not uint64
        ],
        ids=["3d", "short", "tail-bit", "dtype"],
    )
    def test_check_member_rejects(self, spaces, corrupt, error):
        packed, _ = spaces
        with pytest.raises(error):
            packed.check_member(corrupt(packed.random(2, rng=0)))

    def test_pack_rejects_another_dimension(self, spaces):
        packed, dense = spaces
        with pytest.raises(DimensionMismatchError, match="expected 520"):
            packed.pack(type(dense)(DIM + 1).random(2, rng=0))

    def test_random_rejects_a_non_positive_count(self, spaces):
        packed, _ = spaces
        with pytest.raises(ConfigurationError, match="n must be >= 1"):
            packed.random(0, rng=0)


class TestPackedPixelEncoder:
    def test_encode_matches_binary_bitwise(self, images):
        binary = BinaryPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4)
        packed = PackedPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4)
        np.testing.assert_array_equal(
            packed.encode_batch(images), pack_bits(binary.encode_batch(images))
        )
        np.testing.assert_array_equal(
            packed.unpack(packed.encode(images[0])), binary.encode(images[0])
        )

    def test_sharing_binary_codebooks(self, images):
        binary = BinaryPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=11)
        packed = PackedPixelEncoder.sharing(binary)
        assert packed.position_memory is binary.position_memory
        np.testing.assert_array_equal(
            packed.encode_batch(images), pack_bits(binary.encode_batch(images))
        )

    def test_accumulate_delta_matches_scratch(self, images, rng):
        packed = PackedPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4)
        children = np.clip(images + rng.normal(0, 40, images.shape), 0, 255)
        levels_c = packed.quantize(children).reshape(len(images), -1)
        levels_p = packed.quantize(images).reshape(len(images), -1)
        got = packed.accumulate_delta(
            levels_c, levels_p, packed.accumulate_batch(images)
        )
        np.testing.assert_array_equal(got, packed.accumulate_batch(children))

    def test_hvs_from_accumulators_accepts_compact_dtype(self, images):
        packed = PackedPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4)
        accs = packed.accumulate_batch(images)
        np.testing.assert_array_equal(
            packed.hvs_from_accumulators(accs.astype(np.int16)),
            packed.encode_batch(images),
        )

    def test_binary_encoder_delta_surface_matches(self, images, rng):
        """The unpacked binary encoder grew the same incremental API."""
        binary = BinaryPixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=4)
        children = np.clip(images + rng.normal(0, 25, images.shape), 0, 255)
        levels_c = binary.quantize(children).reshape(len(images), -1)
        levels_p = binary.quantize(images).reshape(len(images), -1)
        got = binary.accumulate_delta(
            levels_c, levels_p, binary.accumulate_batch(images)
        )
        np.testing.assert_array_equal(got, binary.accumulate_batch(children))
        np.testing.assert_array_equal(
            binary.hvs_from_accumulators(got), binary.encode_batch(children)
        )


class TestPackedAssociativeMemory:
    def _trained_pair(self, rng):
        bits = BinarySpace(DIM).random(9, rng=rng)
        labels = np.arange(9) % 3
        unpacked = BinaryAssociativeMemory(3, DIM)
        unpacked.add(bits, labels)
        packed = PackedAssociativeMemory(3, DIM)
        packed.add(pack_bits(bits), labels)
        return unpacked, packed, bits

    def test_class_hvs_match(self):
        unpacked, packed, _ = self._trained_pair(0)
        np.testing.assert_array_equal(packed.class_hvs, pack_bits(unpacked.class_hvs))
        np.testing.assert_array_equal(unpack_bits(packed.class_hvs, DIM), unpacked.class_hvs)

    def test_similarities_bit_identical(self):
        unpacked, packed, bits = self._trained_pair(1)
        np.testing.assert_array_equal(
            packed.similarities(pack_bits(bits)), unpacked.similarities(bits)
        )

    def test_predict_and_margins_match(self):
        unpacked, packed, bits = self._trained_pair(2)
        np.testing.assert_array_equal(
            packed.predict(pack_bits(bits)), unpacked.predict(bits)
        )
        np.testing.assert_array_equal(
            packed.margins(pack_bits(bits)), unpacked.margins(bits)
        )

    def test_subtract_clamps_like_unpacked(self):
        unpacked, packed, bits = self._trained_pair(3)
        unpacked.subtract(bits[:2], [0, 1])
        packed.subtract(pack_bits(bits[:2]), [0, 1])
        np.testing.assert_array_equal(packed.class_hvs, pack_bits(unpacked.class_hvs))

    def test_roundtrips(self):
        _, packed, _ = self._trained_pair(4)
        rebuilt = PackedAssociativeMemory.from_state_dict(packed.state_dict())
        np.testing.assert_array_equal(rebuilt.class_hvs, packed.class_hvs)
        np.testing.assert_array_equal(packed.copy().class_hvs, packed.class_hvs)
        # Dense and packed binary memories share one state_dict schema.
        unpacked = BinaryAssociativeMemory.from_state_dict(packed.state_dict())
        np.testing.assert_array_equal(
            PackedAssociativeMemory.from_state_dict(unpacked.state_dict()).class_hvs,
            packed.class_hvs,
        )

    def test_untrained_raises(self):
        am = PackedAssociativeMemory(2, DIM)
        with pytest.raises(NotTrainedError):
            am.predict(np.zeros((1, am.n_words), dtype=np.uint64))

    def test_rejects_unpacked_input(self):
        am = PackedAssociativeMemory(2, DIM)
        with pytest.raises(ConfigurationError):
            am.add(np.ones((1, DIM), dtype=np.int8), [0])


class TestPackedClassifier:
    def test_same_seed_matches_binary(self, pair, images):
        binary, packed = pair
        np.testing.assert_array_equal(binary.predict(images), packed.predict(images))
        np.testing.assert_array_equal(
            binary.similarities(images), packed.similarities(images)
        )
        np.testing.assert_array_equal(binary.margins(images), packed.margins(images))
        assert binary.score(images, binary.predict(images)) == 1.0
        assert packed.predict_one(images[0]) == binary.predict_one(images[0])

    def test_from_binary_and_back(self, pair, images):
        binary, _ = pair
        packed = PackedBinaryHDCClassifier.from_binary(binary)
        np.testing.assert_array_equal(binary.predict(images), packed.predict(images))
        back = packed.to_binary()
        np.testing.assert_array_equal(
            back.associative_memory.class_hvs, binary.associative_memory.class_hvs
        )
        np.testing.assert_array_equal(back.predict(images), binary.predict(images))

    def test_class_hvs_are_packed(self, pair):
        binary, packed = pair
        np.testing.assert_array_equal(
            packed.associative_memory.class_hvs,
            pack_bits(binary.associative_memory.class_hvs),
        )

    def test_retrain_matches_binary(self, pair, images):
        binary, packed = pair
        labels = (np.arange(12) + 1) % 3
        hardened_b = binary.copy().retrain(images, labels, epochs=2)
        hardened_p = packed.copy().retrain(images, labels, epochs=2)
        np.testing.assert_array_equal(
            hardened_p.predict(images), hardened_b.predict(images)
        )
        # Originals untouched by the copies.
        np.testing.assert_array_equal(binary.predict(images), packed.predict(images))

    def test_memory_footprint_ratio(self, pair, images):
        binary, packed = pair
        dense = binary.encode_batch(images)
        words = packed.encode_batch(images)
        # Exactly D bytes vs ceil(D/64) words of 8 bytes: 7.2x at this
        # deliberately awkward D=520, asymptotically 8x (7.96x at the
        # paper's D=10000 — asserted in benchmarks/bench_packed_backend).
        assert dense.nbytes / words.nbytes == DIM / (packed_words(DIM) * 8)
        assert dense.nbytes / words.nbytes > 7.0

    def test_rejects_non_encoder(self):
        with pytest.raises(ConfigurationError):
            PackedBinaryHDCClassifier(object(), 10)  # type: ignore[arg-type]


class TestBinarySaveLoad:
    def test_roundtrip(self, pair, images, tmp_path):
        binary, _ = pair
        path = tmp_path / "binary.npz"
        binary.save(path)
        loaded = BinaryHDCClassifier.load(path)
        np.testing.assert_array_equal(loaded.predict(images), binary.predict(images))
        # And the loaded model repackages exactly.
        packed = PackedBinaryHDCClassifier.from_binary(loaded)
        np.testing.assert_array_equal(packed.predict(images), binary.predict(images))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez_compressed(path, kind=np.asarray("pixel-hdc"))
        with pytest.raises(ConfigurationError):
            BinaryHDCClassifier.load(path)

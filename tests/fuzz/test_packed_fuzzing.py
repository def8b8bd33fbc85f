"""Packed ↔ unpacked fuzzing equivalence (the tentpole property).

Packing is representation only, so the differential fuzzer must produce
**identical outcomes** — success flags, iteration counts, reference
labels, and the adversarial payloads themselves — whether the model
runs unpacked (int8 per component) or packed (uint64 words),
sequentially or batched, through any executor.  Both packed families
are covered: dense-binary ↔ packed-binary, and the paper's bipolar
family ↔ packed-bipolar (sign words + popcount cosine fitness).
"""

import numpy as np
import pytest

from repro.datasets import load_digits
from repro.fuzz import (
    BatchedExecutor,
    BatchedHDTest,
    DistanceGuidedFitness,
    HDTest,
    HDTestConfig,
    ProcessExecutor,
    compare_strategies,
)
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarHDCClassifier,
)
from repro.hdc.backends.packed import pack_bits, pack_signs
from repro.utils.rng import spawn

DIM = 1024


@pytest.fixture(scope="module")
def binary_model(digit_data):
    train, _ = digit_data
    encoder = BinaryPixelEncoder(dimension=DIM, rng=5)
    return BinaryHDCClassifier(encoder, n_classes=10).fit(
        train.images[:300], train.labels[:300]
    )


@pytest.fixture(scope="module")
def packed_model(binary_model):
    return PackedBinaryHDCClassifier.from_binary(binary_model)


def _key(outcomes):
    return [
        (
            o.success,
            o.iterations,
            o.reference_label,
            None
            if o.example is None
            else (o.example.adversarial_label, o.example.adversarial.tobytes()),
        )
        for o in outcomes
    ]


class TestPackedFitness:
    def test_distance_fitness_bit_identical(self, binary_model, packed_model, rng):
        """1 − Cosim on packed words equals the unpacked computation."""
        bits = rng.integers(0, 2, size=(16, DIM)).astype(np.int8)
        ref = binary_model.reference_hv(0)
        fitness = DistanceGuidedFitness()
        np.testing.assert_array_equal(
            fitness.scores(pack_bits(ref), pack_bits(bits)),
            fitness.scores(ref, bits),
        )


class TestPackedFuzzingEquivalence:
    @pytest.mark.parametrize("strategy", ["gauss", "rand"])
    def test_batched_outcomes_identical(
        self, binary_model, packed_model, test_images, strategy
    ):
        inputs = list(test_images[:5])
        cfg = HDTestConfig(iter_times=8)
        unpacked = BatchedHDTest(binary_model, strategy, config=cfg).fuzz_outcomes(
            inputs, rng=21
        )
        packed = BatchedHDTest(packed_model, strategy, config=cfg).fuzz_outcomes(
            inputs, rng=21
        )
        assert _key(unpacked) == _key(packed)

    def test_sequential_outcomes_identical(
        self, binary_model, packed_model, test_images
    ):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=6)
        generators = spawn(77, len(inputs))
        unpacked = [
            HDTest(binary_model, "gauss", config=cfg).fuzz_one(x, rng=g)
            for x, g in zip(inputs, generators)
        ]
        packed = [
            HDTest(packed_model, "gauss", config=cfg).fuzz_one(x, rng=g)
            for x, g in zip(inputs, spawn(77, len(inputs)))
        ]
        assert _key(unpacked) == _key(packed)

    def test_unguided_outcomes_identical(self, binary_model, packed_model, test_images):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=6, guided=False)
        unpacked = BatchedHDTest(binary_model, "rand", config=cfg).fuzz_outcomes(
            inputs, rng=13
        )
        packed = BatchedHDTest(packed_model, "rand", config=cfg).fuzz_outcomes(
            inputs, rng=13
        )
        assert _key(unpacked) == _key(packed)

    def test_campaign_backend_flag(self, binary_model, test_images):
        """compare_strategies(backend='packed') == the unpacked campaign."""
        inputs = test_images[:4]
        cfg = HDTestConfig(iter_times=6)
        dense = compare_strategies(
            binary_model, inputs, ("gauss",), config=cfg, rng=2,
            executor=BatchedExecutor(batch_size=2),
        )["gauss"]
        packed = compare_strategies(
            binary_model, inputs, ("gauss",), config=cfg, rng=2,
            executor=BatchedExecutor(batch_size=2), backend="packed",
        )["gauss"]
        assert _key(dense.outcomes) == _key(packed.outcomes)

    def test_packed_adversarials_fool_the_unpacked_model(
        self, binary_model, packed_model, test_images
    ):
        cfg = HDTestConfig(iter_times=25)
        result = BatchedHDTest(packed_model, "gauss", config=cfg).fuzz(
            list(test_images[:4]), rng=6
        )
        for example in result.examples:
            assert (
                binary_model.predict_one(example.adversarial)
                == example.adversarial_label
            )


@pytest.fixture(scope="module")
def packed_bipolar_model(trained_model):
    """The shared dense bipolar fixture, repackaged onto sign words."""
    return PackedBipolarHDCClassifier.from_dense(trained_model)


class TestPackedBipolarFitness:
    def test_sign_cosine_fitness_bit_identical(self, trained_model, rng):
        """1 − Cosim on packed sign words equals the dense computation."""
        values = (rng.integers(0, 2, size=(16, DIM)) * 2 - 1).astype(np.int8)
        ref = trained_model.reference_hv(0)
        dense_scores = DistanceGuidedFitness().scores(ref, values)
        packed_scores = DistanceGuidedFitness(bipolar_dimension=DIM).scores(
            pack_signs(ref), pack_signs(values)
        )
        np.testing.assert_array_equal(packed_scores, dense_scores)

    def test_engine_default_fitness_picks_the_sign_kernel(
        self, trained_model, packed_bipolar_model
    ):
        dense_engine = HDTest(trained_model, "gauss")
        packed_engine = HDTest(packed_bipolar_model, "gauss")
        assert "bipolar_dimension" not in repr(dense_engine._fitness)  # noqa: SLF001
        assert f"bipolar_dimension={DIM}" in repr(packed_engine._fitness)  # noqa: SLF001

    def test_binary_scored_fitness_rejected_for_packed_bipolar(
        self, packed_bipolar_model
    ):
        """A mis-configured cosine fitness must fail loudly at construction."""
        from repro.errors import ConfigurationError
        from repro.fuzz import MarginFitness, RandomFitness

        with pytest.raises(ConfigurationError, match="bipolar_dimension"):
            HDTest(packed_bipolar_model, "gauss", fitness=DistanceGuidedFitness())
        # A wrong (stale) dimension is just as silently corrupting as None.
        with pytest.raises(ConfigurationError, match="bipolar_dimension"):
            HDTest(
                packed_bipolar_model, "gauss",
                fitness=DistanceGuidedFitness(bipolar_dimension=DIM // 2),
            )
        # The margin fitness scores by cosine too, so it is guarded as well.
        class_words = packed_bipolar_model.associative_memory.class_hvs
        with pytest.raises(ConfigurationError, match="bipolar_dimension"):
            HDTest(
                packed_bipolar_model, "gauss",
                fitness=MarginFitness(class_words, reference_label=0),
            )
        # Correctly-configured and non-cosine fitnesses still pass.
        HDTest(
            packed_bipolar_model, "gauss",
            fitness=DistanceGuidedFitness(bipolar_dimension=DIM),
        )
        HDTest(
            packed_bipolar_model, "gauss",
            fitness=MarginFitness(class_words, reference_label=0, bipolar_dimension=DIM),
        )
        HDTest(packed_bipolar_model, "gauss", fitness=RandomFitness(rng=0))


class TestPackedBipolarFuzzingEquivalence:
    """The paper's model, packed: same outcomes as dense, any schedule."""

    @pytest.mark.parametrize("strategy", ["gauss", "rand"])
    def test_batched_outcomes_identical(
        self, trained_model, packed_bipolar_model, test_images, strategy
    ):
        inputs = list(test_images[:5])
        cfg = HDTestConfig(iter_times=8)
        dense = BatchedHDTest(trained_model, strategy, config=cfg).fuzz_outcomes(
            inputs, rng=21
        )
        packed = BatchedHDTest(
            packed_bipolar_model, strategy, config=cfg
        ).fuzz_outcomes(inputs, rng=21)
        assert _key(dense) == _key(packed)
        assert any(o.success for o in dense)  # the equivalence has teeth

    def test_sequential_outcomes_identical(
        self, trained_model, packed_bipolar_model, test_images
    ):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=6)
        dense = [
            HDTest(trained_model, "gauss", config=cfg).fuzz_one(x, rng=g)
            for x, g in zip(inputs, spawn(77, len(inputs)))
        ]
        packed = [
            HDTest(packed_bipolar_model, "gauss", config=cfg).fuzz_one(x, rng=g)
            for x, g in zip(inputs, spawn(77, len(inputs)))
        ]
        assert _key(dense) == _key(packed)

    def test_executors_identical(
        self, trained_model, packed_bipolar_model, test_images
    ):
        """sequential == batched == ProcessExecutor on the packed model."""
        inputs = list(test_images[:6])
        cfg = HDTestConfig(iter_times=8)
        dense = BatchedHDTest(trained_model, "gauss", config=cfg).fuzz_outcomes(
            inputs, generators=spawn(9, len(inputs))
        )
        via_batched = BatchedExecutor(batch_size=2).run(
            packed_bipolar_model, "gauss", inputs, config=cfg, rng=9
        )
        assert _key(dense) == _key(via_batched.outcomes)
        with ProcessExecutor(n_workers=2, batch_size=2) as executor:
            via_process = executor.run(
                packed_bipolar_model, "gauss", inputs, config=cfg, rng=9
            )
        assert _key(dense) == _key(via_process.outcomes)

    def test_unguided_outcomes_identical(
        self, trained_model, packed_bipolar_model, test_images
    ):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=6, guided=False)
        dense = BatchedHDTest(trained_model, "rand", config=cfg).fuzz_outcomes(
            inputs, rng=13
        )
        packed = BatchedHDTest(
            packed_bipolar_model, "rand", config=cfg
        ).fuzz_outcomes(inputs, rng=13)
        assert _key(dense) == _key(packed)

    def test_campaign_backend_flag(self, trained_model, test_images):
        """compare_strategies(backend='packed-bipolar') == the dense campaign."""
        inputs = test_images[:4]
        cfg = HDTestConfig(iter_times=6)
        dense = compare_strategies(
            trained_model, inputs, ("gauss",), config=cfg, rng=2,
            executor=BatchedExecutor(batch_size=2),
        )["gauss"]
        packed = compare_strategies(
            trained_model, inputs, ("gauss",), config=cfg, rng=2,
            executor=BatchedExecutor(batch_size=2), backend="packed-bipolar",
        )["gauss"]
        assert _key(dense.outcomes) == _key(packed.outcomes)

    def test_packed_adversarials_fool_the_dense_model(
        self, trained_model, packed_bipolar_model, test_images
    ):
        cfg = HDTestConfig(iter_times=25)
        result = BatchedHDTest(packed_bipolar_model, "gauss", config=cfg).fuzz(
            list(test_images[:4]), rng=6
        )
        assert result.n_success > 0
        for example in result.examples:
            assert (
                trained_model.predict_one(example.adversarial)
                == example.adversarial_label
            )

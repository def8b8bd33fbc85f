"""Cross-modality engine equivalence (the Sec. V-E generality claim).

The load-bearing property of the domain layer: for text and record
campaigns — exactly as for images — sequential :meth:`HDTest.fuzz_one`,
the lock-step :class:`BatchedHDTest`, and the executor schedules
(batched chunks, process shards) produce **bit-identical per-input
outcomes** under the shared RNG discipline, and the n-gram delta
encoder matches scratch encoding exactly.
"""

import numpy as np
import pytest

from repro.datasets import make_language_dataset, make_voice_dataset
from repro.fuzz import (
    BatchedExecutor,
    BatchedHDTest,
    HDTest,
    HDTestConfig,
    ProcessExecutor,
)
from repro.hdc import HDCClassifier, NgramEncoder
from repro.hdc.encoders.record import RecordEncoder
from repro.utils.rng import spawn

DIM = 1024


@pytest.fixture(scope="module")
def text_setup():
    """A trained n-gram language model plus a pool of test strings."""
    data = make_language_dataset(n_per_class=24, n_languages=3, length=48, seed=11)
    train, test = data.split(0.8, rng=0)
    encoder = NgramEncoder(n=3, dimension=DIM, rng=11)
    model = HDCClassifier(encoder, n_classes=3).fit(list(train.texts), train.labels)
    return model, list(test.texts)


@pytest.fixture(scope="module")
def record_setup():
    """A trained record (voice) model plus a pool of test records."""
    data = make_voice_dataset(n_per_class=20, n_classes=4, n_features=32, seed=11)
    train, test = data.split(0.8, rng=0)
    encoder = RecordEncoder(n_features=32, levels=32, dimension=DIM, rng=11)
    model = HDCClassifier(encoder, n_classes=4).fit(train.records, train.labels)
    return model, list(test.records)


def _assert_outcomes_equal(expected, actual, *, text=False):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.reference_label == b.reference_label
        if a.success:
            assert a.example.adversarial_label == b.example.adversarial_label
            assert a.example.metrics == b.example.metrics
            if text:
                assert a.example.adversarial == b.example.adversarial
                assert isinstance(b.example.adversarial, str)
            else:
                np.testing.assert_array_equal(
                    a.example.adversarial, b.example.adversarial
                )


class TestTextEquivalence:
    @pytest.mark.parametrize("strategy", ["char_sub", "char_swap"])
    def test_sequential_matches_batched(self, text_setup, strategy):
        model, texts = text_setup
        inputs = texts[:6]
        cfg = HDTestConfig(iter_times=8)
        generators = spawn(314, len(inputs))
        sequential = [
            HDTest(model, strategy, config=cfg).fuzz_one(t, rng=g)
            for t, g in zip(inputs, generators)
        ]
        batched = BatchedHDTest(model, strategy, config=cfg).fuzz_outcomes(
            inputs, rng=314
        )
        _assert_outcomes_equal(sequential, batched, text=True)
        assert any(o.success for o in batched)  # the test has teeth

    def test_batched_matches_executors(self, text_setup):
        model, texts = text_setup
        inputs = texts[:6]
        cfg = HDTestConfig(iter_times=8)
        direct = BatchedHDTest(model, "char_sub", config=cfg).fuzz_outcomes(
            inputs, generators=spawn(9, len(inputs))
        )
        via_batched = BatchedExecutor(batch_size=2).run(
            model, "char_sub", inputs, config=cfg, rng=9
        )
        _assert_outcomes_equal(direct, via_batched.outcomes, text=True)
        with ProcessExecutor(n_workers=2, batch_size=2) as executor:
            via_process = executor.run(model, "char_sub", inputs, config=cfg, rng=9)
        _assert_outcomes_equal(direct, via_process.outcomes, text=True)

    def test_delta_matches_scratch_engine(self, text_setup):
        """The whole campaign, delta vs forced-scratch: bit-identical."""
        model, texts = text_setup
        inputs = texts[:5]
        cfg = HDTestConfig(iter_times=8)
        fast = BatchedHDTest(model, "char_sub", config=cfg).fuzz_outcomes(
            inputs, rng=21
        )
        scratch_engine = BatchedHDTest(model, "char_sub", config=cfg)
        scratch_engine._delta_encoder = lambda: None  # noqa: SLF001 - test hook
        scratch = scratch_engine.fuzz_outcomes(inputs, rng=21)
        _assert_outcomes_equal(fast, scratch, text=True)

    def test_unguided_matches(self, text_setup):
        model, texts = text_setup
        inputs = texts[:5]
        cfg = HDTestConfig(iter_times=8, guided=False)
        generators = spawn(77, len(inputs))
        sequential = [
            HDTest(model, "char_sub", config=cfg).fuzz_one(t, rng=g)
            for t, g in zip(inputs, generators)
        ]
        batched = BatchedHDTest(model, "char_sub", config=cfg).fuzz_outcomes(
            inputs, rng=77
        )
        _assert_outcomes_equal(sequential, batched, text=True)

    def test_char_swap_matches(self, text_setup):
        model, texts = text_setup
        inputs = texts[:4]
        cfg = HDTestConfig(iter_times=6)
        generators = spawn(5, len(inputs))
        sequential = [
            HDTest(model, "char_swap", config=cfg).fuzz_one(t, rng=g)
            for t, g in zip(inputs, generators)
        ]
        batched = BatchedHDTest(model, "char_swap", config=cfg).fuzz_outcomes(
            inputs, rng=5
        )
        _assert_outcomes_equal(sequential, batched, text=True)

    def test_adversarial_example_flips_model(self, text_setup):
        model, texts = text_setup
        result = BatchedHDTest(
            model, "char_sub", config=HDTestConfig(iter_times=15)
        ).fuzz(texts[:6], rng=1)
        assert result.n_success > 0
        for example in result.examples:
            assert isinstance(example.original, str)
            assert isinstance(example.adversarial, str)
            assert len(example.original) == len(example.adversarial)
            assert model.predict_one(example.adversarial) == example.adversarial_label
            assert model.predict_one(example.original) == example.reference_label
            assert example.metrics["edits"] <= 30  # default TextConstraint budget


class TestRecordEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["record_gauss", "record_rand", "record_shift"]
    )
    def test_sequential_matches_batched(self, record_setup, strategy):
        model, records = record_setup
        inputs = records[:6]
        cfg = HDTestConfig(iter_times=8)
        generators = spawn(2718, len(inputs))
        sequential = [
            HDTest(model, strategy, config=cfg).fuzz_one(r, rng=g)
            for r, g in zip(inputs, generators)
        ]
        batched = BatchedHDTest(model, strategy, config=cfg).fuzz_outcomes(
            inputs, rng=2718
        )
        _assert_outcomes_equal(sequential, batched)

    def test_batched_matches_executors(self, record_setup):
        model, records = record_setup
        inputs = records[:6]
        cfg = HDTestConfig(iter_times=8)
        direct = BatchedHDTest(model, "record_gauss", config=cfg).fuzz_outcomes(
            inputs, generators=spawn(9, len(inputs))
        )
        via_batched = BatchedExecutor(batch_size=2).run(
            model, "record_gauss", inputs, config=cfg, rng=9
        )
        _assert_outcomes_equal(direct, via_batched.outcomes)
        with ProcessExecutor(n_workers=2, batch_size=2) as executor:
            via_process = executor.run(
                model, "record_gauss", inputs, config=cfg, rng=9
            )
        _assert_outcomes_equal(direct, via_process.outcomes)

    def test_record_delta_encoder_detected(self, record_setup):
        """The record encoder now exposes the incremental surface."""
        model, _ = record_setup
        engine = BatchedHDTest(model, "record_gauss")
        assert engine._delta_encoder() is model.encoder  # noqa: SLF001

    def test_record_delta_matches_scratch_engine(self, record_setup):
        """The whole record campaign, delta vs forced-scratch: bit-identical."""
        model, records = record_setup
        inputs = records[:8]
        cfg = HDTestConfig(iter_times=25)
        fast = BatchedHDTest(model, "record_gauss", config=cfg).fuzz_outcomes(
            inputs, rng=21
        )
        scratch_engine = BatchedHDTest(model, "record_gauss", config=cfg)
        scratch_engine._delta_encoder = lambda: None  # noqa: SLF001 - test hook
        scratch = scratch_engine.fuzz_outcomes(inputs, rng=21)
        _assert_outcomes_equal(fast, scratch)
        assert any(o.success for o in fast)  # the comparison has teeth


class TestNgramDeltaParity:
    """Delta n-gram accumulators equal scratch on substitution chains."""

    def test_randomized_substitution_chains(self):
        rng = np.random.default_rng(0)
        encoder = NgramEncoder(n=3, alphabet="abcdef ", dimension=256, rng=0)
        n_symbols = len(encoder.alphabet)
        for length in (3, 4, 9, 40):
            current = rng.integers(0, n_symbols, size=length).astype(np.int64)
            acc = encoder.accumulate_batch(current[None])[0]
            for _ in range(15):
                child = current.copy()
                k = int(rng.integers(1, min(5, length) + 1))
                positions = rng.choice(length, size=k, replace=False)
                child[positions] = rng.integers(0, n_symbols, size=k)
                delta = encoder.accumulate_delta(
                    child[None], current[None], acc[None]
                )[0]
                scratch = encoder.accumulate_batch(child[None])[0]
                np.testing.assert_array_equal(delta, scratch)
                # Chain: the child becomes the next parent, so errors
                # would compound rather than hide.
                current, acc = child, delta

    def test_higher_order_grams(self):
        rng = np.random.default_rng(3)
        encoder = NgramEncoder(n=5, alphabet="abcd", dimension=128, rng=1)
        parent = rng.integers(0, 4, size=20).astype(np.int64)
        acc = encoder.accumulate_batch(parent[None])
        children = np.repeat(parent[None], 6, axis=0)
        for i in range(6):
            pos = rng.choice(20, size=2, replace=False)
            children[i, pos] = rng.integers(0, 4, size=2)
        delta = encoder.accumulate_delta(
            children, np.repeat(parent[None], 6, axis=0), np.repeat(acc, 6, axis=0)
        )
        np.testing.assert_array_equal(delta, encoder.accumulate_batch(children))

    def test_identical_child_is_free(self):
        encoder = NgramEncoder(n=3, alphabet="abc", dimension=64, rng=2)
        parent = np.array([0, 1, 2, 0, 1], dtype=np.int64)
        acc = encoder.accumulate_batch(parent[None])
        delta = encoder.accumulate_delta(parent[None], parent[None], acc)
        np.testing.assert_array_equal(delta, acc)

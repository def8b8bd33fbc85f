"""Tests for the lock-step batched fuzzing engine.

The load-bearing property is sequential↔batched equivalence: under the
shared RNG discipline (one spawned generator per input),
:class:`BatchedHDTest` must reproduce :meth:`HDTest.fuzz_one` outcome
for outcome — same success flags, iteration counts, reference labels,
and adversarial payloads.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz import (
    BatchedHDTest,
    HDTest,
    HDTestConfig,
    ImageConstraint,
    SeedPoolBatch,
)
from repro.fuzz import predictor
from repro.utils.cache import LRUCache
from repro.utils.rng import spawn


def _assert_outcomes_equal(sequential, batched):
    assert len(sequential) == len(batched)
    for seq, bat in zip(sequential, batched):
        assert seq.success == bat.success
        assert seq.iterations == bat.iterations
        assert seq.reference_label == bat.reference_label
        if seq.success:
            assert seq.example.adversarial_label == bat.example.adversarial_label
            assert seq.example.metrics == bat.example.metrics
            np.testing.assert_array_equal(
                seq.example.adversarial, bat.example.adversarial
            )


class TestSeedPoolBatch:
    def test_reset_state(self):
        originals = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
        pool = SeedPoolBatch(originals, top_n=2)
        for i in range(3):
            np.testing.assert_array_equal(pool.seeds(i), originals[i][None])

    def test_update_selects_top_n_stable(self):
        pool = SeedPoolBatch(np.zeros((1, 2, 2)), top_n=2)
        children = np.arange(16, dtype=np.float64).reshape(4, 2, 2)
        pool.update(0, children, [0.3, 0.9, 0.9, 0.1])
        # Stable sort: the first of the tied 0.9s wins, fittest first.
        np.testing.assert_array_equal(pool.seeds(0), children[[1, 2]])

    def test_update_matches_sequential_seedpool(self, rng):
        """Row semantics must equal SeedPool's top-N selection exactly."""
        from repro.fuzz import SeedPool

        original = rng.random((2, 2))
        children = rng.random((7, 2, 2))
        scores = rng.random(7)
        sequential = SeedPool(3)
        sequential.reset(original)
        sequential.update(children, scores, generation=4)
        pool = SeedPoolBatch(original[None], top_n=3)
        order = pool.update(0, children, scores)
        assert len(sequential) == len(order) == len(pool.seeds(0))
        for seed, row in zip(sequential.seeds, pool.seeds(0)):
            np.testing.assert_array_equal(seed.data, row)
        np.testing.assert_array_equal(
            [s.fitness for s in sequential.seeds], scores[order]
        )

    def test_update_returns_survivor_order(self):
        """The order whoever encoded the children replays on side data."""
        pool = SeedPoolBatch(np.zeros((2, 2, 2)), top_n=3)
        children = np.arange(16, dtype=np.float64).reshape(4, 2, 2)
        order = pool.update(1, children, [0.3, 0.9, 0.9, 0.1])
        np.testing.assert_array_equal(order, [1, 2, 0])
        np.testing.assert_array_equal(pool.seeds(1), children[order])
        # Fewer candidates than the pool holds: every one survives.
        order = pool.update(0, children[:2], [0.2, 0.4])
        np.testing.assert_array_equal(order, [1, 0])
        np.testing.assert_array_equal(pool.seeds(0), children[[1, 0]])

    def test_empty_update_keeps_seeds(self):
        pool = SeedPoolBatch(np.ones((1, 2, 2)), top_n=3)
        assert pool.update(0, np.empty((0, 2, 2)), []) is None
        np.testing.assert_array_equal(pool.seeds(0), np.ones((1, 2, 2)))

    def test_mismatched_scores_rejected(self):
        pool = SeedPoolBatch(np.zeros((1, 2, 2)), top_n=1)
        with pytest.raises(FuzzingError):
            pool.update(0, np.ones((2, 2, 2)), [0.5])

    def test_unstacked_originals_rejected(self):
        with pytest.raises(FuzzingError):
            SeedPoolBatch(np.zeros(4), top_n=1)


class TestBatchedEquivalence:
    """BatchedHDTest == per-input fuzz_one under shared RNG discipline."""

    @pytest.mark.parametrize("strategy", ["gauss", "rand", "row_col_rand", "shift"])
    def test_matches_fuzz_one(self, trained_model, test_images, strategy):
        inputs = test_images[:6]
        cfg = HDTestConfig(iter_times=8)
        generators = spawn(314, len(inputs))
        sequential = [
            HDTest(trained_model, strategy, config=cfg).fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, generators)
        ]
        batched = BatchedHDTest(trained_model, strategy, config=cfg).fuzz_outcomes(
            list(inputs), rng=314
        )
        _assert_outcomes_equal(sequential, batched)

    def test_shift_matches_at_default_config(self, trained_model, test_images):
        inputs = test_images[:4]
        cfg = HDTestConfig(iter_times=5)
        generators = spawn(99, len(inputs))
        sequential = [
            HDTest(trained_model, "shift", config=cfg).fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, generators)
        ]
        batched = BatchedHDTest(trained_model, "shift", config=cfg).fuzz_outcomes(
            list(inputs), rng=99
        )
        _assert_outcomes_equal(sequential, batched)

    def test_matches_with_tiny_cache(self, trained_model, test_images, monkeypatch):
        """LRU eviction under a pathological capacity must not change results."""
        monkeypatch.setattr(predictor, "LRUCache", lambda _entries: LRUCache(2))
        inputs = test_images[:3]
        cfg = HDTestConfig(iter_times=6)
        generators = spawn(7, len(inputs))
        sequential = [
            HDTest(trained_model, "gauss", config=cfg).fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, generators)
        ]
        batched = BatchedHDTest(trained_model, "gauss", config=cfg).fuzz_outcomes(
            list(inputs), rng=7
        )
        _assert_outcomes_equal(sequential, batched)

    def test_unguided_matches_fuzz_one(self, trained_model, test_images):
        """Satellite: the lock-step equivalence now covers unguided runs.

        RandomFitness draws from each input's own generator, so the
        batched engine reproduces per-input fuzz_one outcomes even when
        survival is a lottery.
        """
        inputs = list(test_images[:5])
        cfg = HDTestConfig(iter_times=8, guided=False)
        generators = spawn(2024, len(inputs))
        sequential = [
            HDTest(trained_model, "gauss", config=cfg).fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, generators)
        ]
        batched = BatchedHDTest(trained_model, "gauss", config=cfg).fuzz_outcomes(
            inputs, rng=2024
        )
        _assert_outcomes_equal(sequential, batched)

    def test_explicit_generators_match_spawned(self, trained_model, test_images):
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=4)
        engine = BatchedHDTest(trained_model, "rand", config=cfg)
        a = engine.fuzz_outcomes(inputs, rng=42)
        b = engine.fuzz_outcomes(inputs, generators=spawn(42, len(inputs)))
        _assert_outcomes_equal(a, b)

    def test_direct_encode_path_matches(self, trained_model, test_images):
        """Forcing the non-delta path (as any non-pixel encoder would use)
        must yield identical outcomes — the two encode paths are exact."""
        inputs = list(test_images[:4])
        cfg = HDTestConfig(iter_times=5)
        engine = BatchedHDTest(trained_model, "gauss", config=cfg)
        fast = engine.fuzz_outcomes(inputs, rng=21)
        engine_direct = BatchedHDTest(trained_model, "gauss", config=cfg)
        engine_direct._delta_encoder = lambda: None  # noqa: SLF001 - test hook
        direct = engine_direct.fuzz_outcomes(inputs, rng=21)
        _assert_outcomes_equal(fast, direct)


class TestBatchedEdgeCases:
    def test_empty_input_list(self, trained_model):
        engine = BatchedHDTest(trained_model, "gauss")
        assert engine.fuzz_outcomes([], rng=0) == []
        result = engine.fuzz([], rng=0)
        assert result.n_inputs == 0

    def test_success_on_iteration_one(self, trained_model, test_images):
        # A huge-amplitude strategy flips essentially immediately.
        from repro.fuzz.mutations.noise import GaussianNoise

        engine = BatchedHDTest(
            trained_model,
            GaussianNoise(sigma=120.0),
            constraint=ImageConstraint(max_l2=1e9),
            config=HDTestConfig(iter_times=3),
        )
        outcomes = engine.fuzz_outcomes(list(test_images[:4]), rng=0)
        assert all(o.success and o.iterations == 1 for o in outcomes)

    def test_all_children_clipped_every_iteration(self, trained_model, test_images):
        # An impossible budget rejects every child: inputs must survive
        # the full iteration budget and report honest counts.
        cfg = HDTestConfig(iter_times=4)
        engine = BatchedHDTest(
            trained_model, "gauss",
            constraint=ImageConstraint(max_l2=1e-12), config=cfg,
        )
        outcomes = engine.fuzz_outcomes(list(test_images[:3]), rng=0)
        assert all(not o.success for o in outcomes)
        assert all(o.iterations == cfg.iter_times for o in outcomes)

    def test_mixed_retirement(self, trained_model, test_images):
        """Some inputs retiring early must not disturb the rest."""
        inputs = list(test_images[:6])
        cfg = HDTestConfig(iter_times=10)
        generators = spawn(1234, len(inputs))
        sequential = [
            HDTest(trained_model, "rand", config=cfg).fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, generators)
        ]
        batched = BatchedHDTest(trained_model, "rand", config=cfg).fuzz_outcomes(
            inputs, rng=1234
        )
        _assert_outcomes_equal(sequential, batched)
        assert len({o.iterations for o in batched}) > 1  # genuinely staggered

    def test_non_array_inputs_rejected(self, trained_model):
        engine = BatchedHDTest(trained_model, "gauss")
        with pytest.raises(ConfigurationError, match="array"):
            engine.fuzz_outcomes(["not an image"], rng=0)

    def test_mismatched_shapes_rejected(self, trained_model):
        engine = BatchedHDTest(trained_model, "gauss")
        with pytest.raises(ConfigurationError, match="shape"):
            engine.fuzz_outcomes([np.zeros((28, 28)), np.zeros((14, 14))], rng=0)

    def test_generator_count_mismatch_rejected(self, trained_model, test_images):
        engine = BatchedHDTest(trained_model, "gauss")
        with pytest.raises(ConfigurationError, match="generators"):
            engine.fuzz_outcomes(list(test_images[:3]), generators=spawn(0, 2))

    def test_campaign_result_aggregates(self, trained_model, test_images):
        result = BatchedHDTest(
            trained_model, "gauss", config=HDTestConfig(iter_times=3)
        ).fuzz(list(test_images[:5]), rng=3)
        assert result.n_inputs == 5
        assert result.strategy == "gauss"
        assert result.elapsed_seconds > 0

"""Tests for fitness functions, the seed pool, and the oracles."""

import numpy as np
import pytest

from repro.errors import FuzzingError
from repro.fuzz.fitness import DistanceGuidedFitness, MarginFitness, RandomFitness
from repro.fuzz.oracle import DifferentialOracle, TargetedOracle
from repro.fuzz.seeds import Seed, SeedPool
from repro.fuzz.targets import TargetPredictions, TargetReference
from repro.hdc.similarity import cosine, cosine_matrix
from repro.hdc.spaces import BipolarSpace

SPACE = BipolarSpace(1024)


def _predictions(class_hvs, queries):
    """One model's predictions of *queries* against *class_hvs* (cosine)."""
    sims = cosine_matrix(queries, class_hvs)[None]
    return TargetPredictions(sims.argmax(axis=2), sims)


def _reference(label):
    return TargetReference(label, np.array([label]))


class TestDistanceGuidedFitness:
    def test_matches_paper_formula(self):
        class_hvs = SPACE.random(3, rng=0)
        queries = SPACE.random(5, rng=1)
        scores = DistanceGuidedFitness().scores(
            _reference(1), _predictions(class_hvs, queries)
        )
        for i in range(5):
            assert scores[i] == pytest.approx(1.0 - cosine(class_hvs[1], queries[i]))

    def test_identical_query_scores_zero(self):
        class_hvs = SPACE.random(2, rng=2)
        scores = DistanceGuidedFitness().scores(
            _reference(0), _predictions(class_hvs, class_hvs[:1])
        )
        assert scores[0] == pytest.approx(0.0)

    def test_negated_query_scores_two(self):
        class_hvs = SPACE.random(2, rng=3)
        scores = DistanceGuidedFitness().scores(
            _reference(0), _predictions(class_hvs, -class_hvs[:1])
        )
        assert scores[0] == pytest.approx(2.0)

    def test_guided_flag(self):
        assert DistanceGuidedFitness().guided is True


class TestRandomFitness:
    def test_unguided_flag(self):
        assert RandomFitness(rng=0).guided is False

    def test_scores_shape_and_range(self):
        predictions = _predictions(SPACE.random(2, rng=0), SPACE.random(7, rng=1))
        scores = RandomFitness(rng=0).scores(_reference(0), predictions)
        assert scores.shape == (7,)
        assert (scores >= 0).all() and (scores < 1).all()

    def test_ignores_hv_content(self):
        f = RandomFitness(rng=0)
        a = f.scores(_reference(0), _predictions(SPACE.random(2, rng=0), SPACE.random(3, rng=1)))
        g = RandomFitness(rng=0)
        b = g.scores(_reference(1), _predictions(SPACE.random(2, rng=5), SPACE.random(3, rng=6)))
        np.testing.assert_array_equal(a, b)


class TestMarginFitness:
    def test_prefers_queries_near_other_classes(self):
        class_hvs = SPACE.random(3, rng=0)
        fitness = MarginFitness()
        s_ref = fitness.scores(_reference(0), _predictions(class_hvs, class_hvs[:1]))[0]
        s_other = fitness.scores(_reference(0), _predictions(class_hvs, class_hvs[1:2]))[0]
        assert s_other > s_ref

    def test_positive_for_adversarial_query(self):
        class_hvs = SPACE.random(2, rng=1)
        predictions = _predictions(class_hvs, class_hvs[1:2])
        assert MarginFitness().scores(_reference(0), predictions)[0] > 0

    def test_leaves_the_similarity_block_unchanged(self):
        class_hvs = SPACE.random(3, rng=2)
        predictions = _predictions(class_hvs, SPACE.random(4, rng=3))
        before = predictions.similarities.copy()
        MarginFitness().scores(_reference(2), predictions)
        np.testing.assert_array_equal(predictions.similarities, before)


class TestSeedPool:
    def test_reset_installs_original(self):
        pool = SeedPool(3)
        pool.reset("original")
        assert len(pool) == 1
        assert pool.best().data == "original"
        assert pool.best().generation == 0

    def test_update_keeps_top_n(self):
        pool = SeedPool(2)
        pool.reset("x")
        pool.update(["a", "b", "c"], [0.1, 0.9, 0.5], generation=1)
        assert [s.data for s in pool] == ["b", "c"]
        assert all(s.generation == 1 for s in pool)

    def test_update_replaces_previous_generation(self):
        pool = SeedPool(2)
        pool.reset("x")
        pool.update(["a", "b"], [0.9, 0.8], generation=1)
        pool.update(["c", "d"], [0.1, 0.2], generation=2)
        assert {s.data for s in pool} == {"c", "d"}

    def test_empty_update_retains_seeds(self):
        pool = SeedPool(2)
        pool.reset("x")
        pool.update([], [], generation=1)
        assert pool.best().data == "x"

    def test_stable_order_for_ties(self):
        pool = SeedPool(2)
        pool.reset("x")
        pool.update(["a", "b", "c"], [0.5, 0.5, 0.5], generation=1)
        assert [s.data for s in pool] == ["a", "b"]

    def test_mismatched_lengths_rejected(self):
        pool = SeedPool(2)
        with pytest.raises(FuzzingError):
            pool.update(["a"], [0.1, 0.2], generation=1)

    def test_best_on_empty_pool_rejected(self):
        with pytest.raises(FuzzingError):
            SeedPool(2).best()

    def test_fewer_candidates_than_capacity(self):
        pool = SeedPool(5)
        pool.reset("x")
        pool.update(["a"], [1.0], generation=1)
        assert len(pool) == 1

    def test_seed_dataclass_frozen(self):
        seed = Seed("data", 0.5, 1)
        with pytest.raises(AttributeError):
            seed.fitness = 0.9  # type: ignore[misc]


class TestOracles:
    def test_differential_flags_any_flip(self):
        oracle = DifferentialOracle()
        mask = oracle.discrepancies(3, np.array([3, 4, 3, 0]))
        assert mask.tolist() == [False, True, False, True]

    def test_differential_single(self):
        oracle = DifferentialOracle()
        assert oracle.is_adversarial(1, 2)
        assert not oracle.is_adversarial(1, 1)

    def test_targeted_only_counts_target(self):
        oracle = TargetedOracle(target_label=5)
        mask = oracle.discrepancies(3, np.array([5, 4, 3, 5]))
        assert mask.tolist() == [True, False, False, True]

    def test_targeted_same_as_reference_never_fires(self):
        oracle = TargetedOracle(target_label=3)
        mask = oracle.discrepancies(3, np.array([3, 3]))
        assert mask.tolist() == [False, False]

    def test_targeted_negative_label_rejected(self):
        with pytest.raises(Exception):
            TargetedOracle(-1)

"""Tests for hypervector-space coverage tracking and guided fitness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.fuzz.coverage import CoverageGuidedFitness, CoverageMap
from repro.fuzz.fitness import DistanceGuidedFitness
from repro.hdc.spaces import BipolarSpace

DIM = 1024
SPACE = BipolarSpace(DIM)


class TestCoverageMap:
    def test_initially_empty(self):
        cov = CoverageMap(DIM, n_bits=12, rng=0)
        assert cov.n_cells_visited == 0
        assert cov.total_cells == 2**12
        assert cov.coverage_fraction() == 0.0

    def test_observe_marks_new_cells(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        batch = SPACE.random(5, rng=1)
        novel = cov.observe(batch)
        # 5 random HVs at 16 bits collide with negligible probability.
        assert novel.all()
        assert cov.n_cells_visited == 5

    def test_repeat_observation_not_novel(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        hv = SPACE.random(rng=2)
        assert cov.observe(hv[None])[0]
        assert not cov.observe(hv[None])[0]

    def test_duplicates_within_batch_count_once(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        hv = SPACE.random(rng=3)
        novel = cov.observe(np.stack([hv, hv]))
        assert novel.tolist() == [True, False]

    def test_signatures_deterministic(self):
        batch = SPACE.random(4, rng=4)
        a = CoverageMap(DIM, n_bits=16, rng=9).signatures(batch)
        b = CoverageMap(DIM, n_bits=16, rng=9).signatures(batch)
        np.testing.assert_array_equal(a, b)

    def test_similar_hvs_share_cells_more_than_random(self):
        # SimHash is locality sensitive: a few bit flips should often
        # keep the signature; an independent HV should not.
        cov = CoverageMap(DIM, n_bits=8, rng=5)
        base = SPACE.random(rng=6)
        near = base.copy()
        near[:10] = -near[:10]
        far = SPACE.random(rng=7)
        same_near = sum(
            int(cov.signatures(base[None])[0] == cov.signatures(near[None])[0])
            for _ in range(1)
        )
        # Deterministic single check: near likely equal, far likely not.
        sig_base = int(cov.signatures(base[None])[0])
        assert int(cov.signatures(near[None])[0]) == sig_base
        assert int(cov.signatures(far[None])[0]) != sig_base

    def test_is_covered(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        hv = SPACE.random(rng=8)
        assert not cov.is_covered(hv[None])[0]
        cov.observe(hv[None])
        assert cov.is_covered(hv[None])[0]

    def test_reset(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        cov.observe(SPACE.random(3, rng=9))
        cov.reset()
        assert cov.n_cells_visited == 0

    def test_dimension_mismatch(self):
        cov = CoverageMap(DIM, rng=0)
        with pytest.raises(DimensionMismatchError):
            cov.signatures(np.ones((1, DIM + 1)))

    def test_too_many_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageMap(DIM, n_bits=64)


class TestCoverageGuidedFitness:
    def test_zero_bonus_matches_distance_fitness(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        fitness = CoverageGuidedFitness(cov, novelty_bonus=0.0)
        ref = SPACE.random(rng=0)
        queries = SPACE.random(4, rng=1)
        expected = DistanceGuidedFitness().scores(ref, queries)
        np.testing.assert_allclose(fitness.scores(ref, queries), expected)

    def test_novelty_bonus_applied_once(self):
        cov = CoverageMap(DIM, n_bits=16, rng=0)
        fitness = CoverageGuidedFitness(cov, novelty_bonus=1.0)
        ref = SPACE.random(rng=2)
        query = SPACE.random(rng=3)[None]
        first = fitness.scores(ref, query)[0]
        second = fitness.scores(ref, query)[0]
        assert first == pytest.approx(second + 1.0)

    def test_guided_flag(self):
        cov = CoverageMap(DIM, rng=0)
        assert CoverageGuidedFitness(cov).guided is True

    def test_negative_bonus_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageGuidedFitness(CoverageMap(DIM, rng=0), novelty_bonus=-0.1)

    def test_integrates_with_fuzzer(self, trained_model, test_images):
        from repro.fuzz import DifferentialOracle, HDTest, HDTestConfig

        class NeverOracle(DifferentialOracle):
            """No child ever counts as a flip, so every iteration is scored."""

            def discrepancies(self, reference_label, query_labels):
                return np.zeros(len(query_labels), dtype=bool)

        cov = CoverageMap(trained_model.dimension, n_bits=16, rng=0)
        config = HDTestConfig(iter_times=20)
        fuzzer = HDTest(
            trained_model,
            "gauss",
            config=config,
            fitness=CoverageGuidedFitness(cov),
            oracle=NeverOracle(),
            rng=4,
        )
        result = fuzzer.fuzz(test_images[:3])
        assert result.n_inputs == 3
        assert result.n_success == 0
        assert all(o.iterations == config.iter_times for o in result.outcomes)
        assert cov.n_cells_visited > 0

"""Integration tests for the HDTest loop (Alg. 1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.fuzz import predictor
from repro.fuzz.constraints import ImageConstraint, NullConstraint, TextConstraint
from repro.fuzz.fitness import RandomFitness
from repro.fuzz.fuzzer import HDTest, HDTestConfig
from repro.fuzz.mutations.noise import GaussianNoise
from repro.hdc import HDCClassifier, PixelEncoder
from repro.utils.cache import LRUCache
from repro.utils.rng import spawn


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = HDTestConfig()
        assert cfg.top_n == 3  # "In our experiments, N = 3"
        assert cfg.guided is True

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            HDTestConfig(iter_times=0)
        with pytest.raises(ConfigurationError):
            HDTestConfig(top_n=0)
        with pytest.raises(ConfigurationError):
            HDTestConfig(children_per_seed=0)


class TestConstruction:
    def test_untrained_model_rejected(self):
        model = HDCClassifier(PixelEncoder(dimension=256, rng=0), 10)
        with pytest.raises(NotTrainedError):
            HDTest(model, "gauss")

    def test_non_model_rejected(self):
        with pytest.raises(ConfigurationError):
            HDTest(object(), "gauss")  # type: ignore[arg-type]

    def test_strategy_by_name(self, trained_model):
        fuzzer = HDTest(trained_model, "gauss", rng=0)
        assert fuzzer.strategy.name == "gauss"

    def test_strategy_by_instance(self, trained_model):
        strat = GaussianNoise(sigma=1.0)
        assert HDTest(trained_model, strat, rng=0).strategy is strat

    def test_invalid_strategy_type(self, trained_model):
        with pytest.raises(ConfigurationError):
            HDTest(trained_model, 42)  # type: ignore[arg-type]

    def test_shift_defaults_to_null_constraint(self, trained_model):
        fuzzer = HDTest(trained_model, "shift", rng=0)
        assert isinstance(fuzzer.constraint, NullConstraint)

    def test_noise_defaults_to_image_constraint(self, trained_model):
        fuzzer = HDTest(trained_model, "gauss", rng=0)
        assert isinstance(fuzzer.constraint, ImageConstraint)

    def test_text_strategy_gets_text_default_constraint(self, trained_model):
        # The domain layer supplies defaults for every modality — the old
        # "no default constraint for domain" error path is gone.
        fuzzer = HDTest(trained_model, "char_sub", rng=0)
        assert isinstance(fuzzer.constraint, TextConstraint)
        assert fuzzer.domain.name == "text"

    def test_domain_strategy_mismatch_rejected(self, trained_model):
        with pytest.raises(ConfigurationError, match="domain"):
            HDTest(trained_model, "gauss", domain="text", rng=0)


class TestFuzzOne:
    def test_success_outcome_structure(self, trained_model, test_images):
        fuzzer = HDTest(trained_model, "gauss", rng=0)
        outcome = fuzzer.fuzz_one(test_images[0])
        assert outcome.success
        ex = outcome.example
        assert ex.reference_label != ex.adversarial_label
        assert ex.iterations == outcome.iterations >= 1
        assert ex.strategy == "gauss"

    def test_adversarial_actually_flips_model(self, trained_model, test_images):
        fuzzer = HDTest(trained_model, "gauss", rng=1)
        outcome = fuzzer.fuzz_one(test_images[1])
        assert outcome.success
        ex = outcome.example
        assert trained_model.predict_one(ex.adversarial) == ex.adversarial_label
        assert trained_model.predict_one(ex.original) == ex.reference_label

    def test_constraint_respected(self, trained_model, test_images):
        budget = 0.5
        fuzzer = HDTest(
            trained_model, "gauss",
            constraint=ImageConstraint(max_l2=budget), rng=2,
        )
        outcome = fuzzer.fuzz_one(test_images[2])
        if outcome.success:
            assert outcome.example.metrics["l2"] <= budget + 1e-9

    def test_original_image_not_mutated(self, trained_model, test_images):
        img = test_images[3].copy()
        HDTest(trained_model, "gauss", rng=3).fuzz_one(img)
        np.testing.assert_array_equal(img, test_images[3])

    def test_iteration_budget_respected(self, trained_model, test_images):
        cfg = HDTestConfig(iter_times=2)
        # Impossibly tight budget: nothing survives, so no success.
        fuzzer = HDTest(
            trained_model, "gauss",
            config=cfg, constraint=ImageConstraint(max_l2=1e-9), rng=4,
        )
        outcome = fuzzer.fuzz_one(test_images[0])
        assert not outcome.success
        assert outcome.iterations == 2

    def test_reproducible_with_seed(self, trained_model, test_images):
        a = HDTest(trained_model, "gauss", rng=42).fuzz_one(test_images[4])
        b = HDTest(trained_model, "gauss", rng=42).fuzz_one(test_images[4])
        assert a.success == b.success
        if a.success:
            np.testing.assert_array_equal(a.example.adversarial, b.example.adversarial)

    def test_dedupe_does_not_change_results(
        self, trained_model, test_images, monkeypatch
    ):
        on = HDTest(trained_model, "shift", config=HDTestConfig(), rng=5).fuzz_one(
            test_images[5]
        )
        # A one-entry cache keeps (almost) nothing across iterations.
        monkeypatch.setattr(predictor, "LRUCache", lambda _entries: LRUCache(1))
        off = HDTest(
            trained_model, "shift", config=HDTestConfig(), rng=5
        ).fuzz_one(test_images[5])
        assert on.success == off.success
        assert on.iterations == off.iterations
        if on.success:
            np.testing.assert_array_equal(on.example.adversarial, off.example.adversarial)

    def test_unguided_mode_runs(self, trained_model, test_images):
        cfg = HDTestConfig(guided=False)
        fuzzer = HDTest(trained_model, "gauss", config=cfg, rng=6)
        assert isinstance(fuzzer._fitness, RandomFitness)
        outcome = fuzzer.fuzz_one(test_images[6])
        assert outcome.iterations >= 1


class TestFuzzBatch:
    def test_campaign_structure(self, trained_model, test_images):
        result = HDTest(trained_model, "gauss", rng=8).fuzz(test_images[:5])
        assert result.n_inputs == 5
        assert result.strategy == "gauss"
        assert result.elapsed_seconds > 0
        assert result.guided is True

    def test_gauss_mostly_succeeds(self, trained_model, test_images):
        result = HDTest(trained_model, "gauss", rng=9).fuzz(test_images[:10])
        assert result.success_rate >= 0.8

    def test_picks_least_perturbed_flip(self, trained_model, test_images):
        # With many children per iteration the chosen example should be
        # the smallest-L2 among the flips of the winning iteration; we
        # can at least assert the recorded metrics match the images.
        result = HDTest(trained_model, "gauss", rng=10).fuzz(test_images[:3])
        for ex in result.examples:
            from repro.metrics.distances import normalized_l2

            assert ex.metrics["l2"] == pytest.approx(
                normalized_l2(ex.original, ex.adversarial)
            )

    def test_fuzz_spawns_one_generator_per_input(self, trained_model, test_images):
        """``fuzz`` is ``fuzz_one`` per input, input *i* on the *i*-th spawn."""
        inputs = list(test_images[:3])
        cfg = HDTestConfig(iter_times=6)
        campaign = HDTest(trained_model, "gauss", config=cfg).fuzz(inputs, rng=11)
        engine = HDTest(trained_model, "gauss", config=cfg)
        one_by_one = [
            engine.fuzz_one(image, rng=generator)
            for image, generator in zip(inputs, spawn(11, len(inputs)))
        ]
        _assert_same_outcomes(campaign.outcomes, one_by_one)
        _assert_same_outcomes(
            campaign.outcomes, engine.fuzz_outcomes(inputs, rng=11)
        )

    def test_fuzz_defaults_to_the_engine_stream(self, trained_model, test_images):
        inputs = list(test_images[3:6])
        cfg = HDTestConfig(iter_times=6)
        campaign = HDTest(trained_model, "rand", config=cfg, rng=12).fuzz(inputs)
        engine = HDTest(trained_model, "rand", config=cfg)
        _assert_same_outcomes(campaign.outcomes, engine.fuzz(inputs, rng=12).outcomes)


def _assert_same_outcomes(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert (a.success, a.iterations, a.reference_label) == (
            b.success, b.iterations, b.reference_label
        )
        if a.success:
            np.testing.assert_array_equal(a.example.adversarial, b.example.adversarial)

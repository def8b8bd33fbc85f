"""Tests for campaign runners (Table II / defense workflows)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.campaign import compare_strategies, generate_adversarial_set
from repro.fuzz.constraints import ImageConstraint
from repro.fuzz.executor import BatchedExecutor, CampaignExecutor, ProcessExecutor
from repro.fuzz.fuzzer import HDTestConfig
from repro.fuzz.results import AdversarialExample, CampaignResult


def _example_key(example):
    return (
        example.reference_label,
        example.adversarial_label,
        example.iterations,
        example.true_label,
        np.asarray(example.adversarial).tobytes(),
    )


def _outcome_key(outcome):
    return (
        outcome.success,
        outcome.iterations,
        outcome.reference_label,
        None if outcome.example is None else _example_key(outcome.example),
    )


#: Every way to schedule a campaign, built fresh per test.
SCHEDULES = {
    "none": lambda: None,
    "serial": lambda: "serial",
    "batched-2": lambda: BatchedExecutor(batch_size=2),
    "batched": lambda: BatchedExecutor(),
    "process-1": lambda: ProcessExecutor(n_workers=1),
    "process-2": lambda: ProcessExecutor(n_workers=2),
}


class TestOneRngDiscipline:
    """Input *i* draws from the *i*-th generator spawned from the root seed.

    So results depend on the seed alone, never on the schedule — also
    across the waves of ``generate_adversarial_set``, which reuse one
    generator (6 examples from 4 images take at least two waves).
    """

    @staticmethod
    def _campaigns(model, images, executor):
        config = HDTestConfig(iter_times=8)
        results = compare_strategies(
            model, images, ("gauss", "rand", "shift"),
            config=config, rng=3, executor=executor,
        )
        examples, _ = generate_adversarial_set(
            model, images, 6, strategy="rand", true_labels=np.arange(len(images)),
            config=config, rng=4, executor=executor,
        )
        return (
            {name: [_outcome_key(o) for o in r.outcomes] for name, r in results.items()},
            [_example_key(e) for e in examples],
        )

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    def test_every_schedule_equals_batched(self, trained_model, test_images, schedule):
        images = test_images[:4]
        executor = SCHEDULES[schedule]()
        try:
            outcomes = self._campaigns(trained_model, images, executor)
        finally:
            if isinstance(executor, CampaignExecutor):
                executor.close()
        assert outcomes == self._campaigns(trained_model, images, "batched")


class TestCompareStrategies:
    def test_result_per_strategy(self, trained_model, test_images):
        results = compare_strategies(
            trained_model, test_images[:4], ("gauss", "shift"), rng=0
        )
        assert set(results) == {"gauss", "shift"}
        for result in results.values():
            assert result.n_inputs == 4

    def test_deterministic_given_seed(self, trained_model, test_images):
        a = compare_strategies(trained_model, test_images[:3], ("gauss",), rng=5)
        b = compare_strategies(trained_model, test_images[:3], ("gauss",), rng=5)
        assert a["gauss"].avg_iterations == b["gauss"].avg_iterations
        assert a["gauss"].avg_l2 == b["gauss"].avg_l2

    def test_config_passed_through(self, trained_model, test_images):
        cfg = HDTestConfig(iter_times=1, children_per_seed=2)
        results = compare_strategies(
            trained_model, test_images[:3], ("gauss",), config=cfg, rng=0
        )
        assert results["gauss"].avg_iterations <= 1.0

    def test_duplicate_strategy_rejected(self, trained_model, test_images):
        with pytest.raises(ConfigurationError, match="duplicate"):
            compare_strategies(trained_model, test_images[:2], ("gauss", "gauss"), rng=0)

    def test_duplicate_rejected_before_fuzzing(self, trained_model, test_images):
        # The check must fire up front, not after an expensive campaign.
        with pytest.raises(ConfigurationError, match="duplicate"):
            compare_strategies(
                trained_model, test_images[:2], ("shift", "gauss", "shift"), rng=0
            )

    def test_per_strategy_results_invariant_to_ordering(
        self, trained_model, test_images
    ):
        """Regression: each strategy draws from its *own* child generator.

        The docstring always promised independent generators per
        strategy, but one shared generator used to couple them: any
        reordering changed every campaign.  Results must now depend only
        on (root seed, strategy name).
        """
        cfg = HDTestConfig(iter_times=4)
        forward = compare_strategies(
            trained_model, test_images[:4], ("gauss", "rand", "shift"),
            config=cfg, rng=77,
        )
        reversed_ = compare_strategies(
            trained_model, test_images[:4], ("shift", "rand", "gauss"),
            config=cfg, rng=77,
        )
        for name in ("gauss", "rand", "shift"):
            a, b = forward[name], reversed_[name]
            assert [o.iterations for o in a.outcomes] == [
                o.iterations for o in b.outcomes
            ]
            assert [o.success for o in a.outcomes] == [o.success for o in b.outcomes]
            for ea, eb in zip(a.examples, b.examples):
                np.testing.assert_array_equal(ea.adversarial, eb.adversarial)


class TestGenerateAdversarialSet:
    def test_exact_count(self, trained_model, test_images):
        examples, elapsed = generate_adversarial_set(
            trained_model, test_images[:10], 5, strategy="gauss", rng=0
        )
        assert len(examples) == 5
        assert elapsed > 0

    def test_recycles_inputs_when_needed(self, trained_model, test_images):
        examples, _ = generate_adversarial_set(
            trained_model, test_images[:2], 6, strategy="gauss", rng=1
        )
        assert len(examples) == 6

    def test_true_labels_attached(self, trained_model, digit_data, test_images):
        _, test = digit_data
        examples, _ = generate_adversarial_set(
            trained_model,
            test_images[:10],
            4,
            strategy="gauss",
            true_labels=test.labels[:10],
            rng=2,
        )
        assert all(e.true_label is not None for e in examples)

    def test_true_labels_length_mismatch(self, trained_model, test_images):
        with pytest.raises(ConfigurationError):
            generate_adversarial_set(
                trained_model, test_images[:5], 2, true_labels=[0, 1], rng=0
            )

    def test_empty_inputs_rejected(self, trained_model):
        with pytest.raises(ConfigurationError):
            generate_adversarial_set(trained_model, [], 2, rng=0)

    def test_target_met_on_final_allowed_attempt(self, trained_model, test_images):
        """Regression: the cap must not fire once the target is reached.

        With max_attempts_factor=1 every attempt must succeed; reaching
        n_target on exactly the max_attempts-th attempt is a completed
        campaign, not a failure.
        """
        examples, _ = generate_adversarial_set(
            trained_model, test_images[:5], 3, strategy="gauss",
            max_attempts_factor=1, rng=0,
        )
        assert len(examples) == 3

    def test_attempt_cap_raises(self, trained_model, test_images):
        # An impossible budget means no adversarial is ever found.
        with pytest.raises(FuzzingError, match="attempts"):
            generate_adversarial_set(
                trained_model,
                test_images[:2],
                3,
                strategy="gauss",
                constraint=ImageConstraint(max_l2=1e-12),
                config=HDTestConfig(iter_times=1),
                max_attempts_factor=2,
                rng=0,
            )


class _ScannedOutcome:
    """``InputOutcome`` stand-in that records reads of its success flag."""

    def __init__(self, example):
        self.example = example
        self.iterations = 1
        self.reference_label = 0
        self.success_reads = 0

    @property
    def success(self):
        self.success_reads += 1
        return True


class _CannedExecutor(CampaignExecutor):
    """Executor returning pre-fabricated all-success waves."""

    name = "canned"

    def __init__(self):
        self.waves: list[list[_ScannedOutcome]] = []

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None, rng=None,
            telemetry=None):
        wave = [
            _ScannedOutcome(
                AdversarialExample(
                    original=np.zeros(4),
                    adversarial=np.full(4, float(len(self.waves) * 100 + j)),
                    reference_label=0, adversarial_label=1, iterations=1,
                    metrics={"l1": float(len(self.waves) * 100 + j)},
                    strategy="gauss",
                )
            )
            for j in range(len(inputs))
        ]
        self.waves.append(wave)
        return CampaignResult(strategy="gauss", outcomes=wave, elapsed_seconds=0.0)


class TestSurplusSuccessTally:
    """Regression: the outcome scan must not stop at ``n_target``.

    Surplus successes in the final wave used to be skipped entirely —
    discarded *and* excluded from the ``successes`` tally that
    ``_wave_size`` uses as the observed rate.  Every outcome must be
    scanned; only the returned list is truncated.
    """

    def test_every_outcome_scanned_and_list_truncated(
        self, trained_model, test_images
    ):
        executor = _CannedExecutor()
        examples, _ = generate_adversarial_set(
            trained_model, test_images[:8], 4,
            strategy="gauss", executor=executor,
            true_labels=np.arange(8), rng=0,
        )
        # One wave of 8 (pool-clamped), all successful: 4 surplus.
        assert [len(w) for w in executor.waves] == [8]
        assert len(examples) == 4
        # The returned list is the *first* n_target in wave order...
        assert [e.metrics["l1"] for e in examples] == [0.0, 1.0, 2.0, 3.0]
        assert [e.true_label for e in examples] == [0, 1, 2, 3]
        # ...but every outcome — surplus included — was tallied.
        assert all(o.success_reads >= 1 for o in executor.waves[0])


class TestAdaptiveWaveSizing:
    """Waves are sized from the observed success rate (ROADMAP item)."""

    def test_wave_size_formula(self):
        from repro.fuzz.campaign import _wave_size

        # No signal yet: the historical 2x-remaining heuristic, floored at 16.
        assert _wave_size(100, 0, 0, 1000, 10_000) == 200
        assert _wave_size(3, 0, 0, 1000, 10_000) == 16
        # Perfect success rate: a wave barely larger than the deficit.
        assert _wave_size(100, 64, 64, 1000, 10_000) == 125
        # A robust model scales the wave up to cover the deficit.
        assert _wave_size(10, 200, 10, 1000, 10_000) == 250
        # Clamped by the pool and the remaining attempt budget.
        assert _wave_size(10, 200, 10, 40, 10_000) == 40
        assert _wave_size(10, 200, 10, 1000, 7) == 7

    def test_outcomes_invariant_to_wave_sizing(
        self, trained_model, test_images, monkeypatch
    ):
        """Adaptive waves must not change what is found, only scheduling.

        Per-input generators are drawn from the root stream in visit
        order, so re-partitioning the attempt sequence into different
        waves leaves every input's outcome bit-identical.
        """
        import repro.fuzz.campaign as campaign_mod
        from repro.fuzz import BatchedExecutor

        kwargs = dict(
            strategy="gauss",
            true_labels=np.arange(8) % 3,
            config=HDTestConfig(iter_times=10),
            rng=123,
        )
        with BatchedExecutor(batch_size=4) as executor:
            adaptive, _ = generate_adversarial_set(
                trained_model, test_images[:8], 6, executor=executor, **kwargs
            )
        monkeypatch.setattr(
            campaign_mod,
            "_wave_size",
            lambda remaining, attempts, successes, n_inputs, attempts_left: max(
                1, min(n_inputs, attempts_left, max(2 * remaining, 16))
            ),
        )
        with BatchedExecutor(batch_size=4) as executor:
            fixed, _ = generate_adversarial_set(
                trained_model, test_images[:8], 6, executor=executor, **kwargs
            )
        assert len(adaptive) == len(fixed) == 6
        assert [e.true_label for e in adaptive] == [e.true_label for e in fixed]
        assert [e.adversarial_label for e in adaptive] == [
            e.adversarial_label for e in fixed
        ]
        for a, b in zip(adaptive, fixed):
            np.testing.assert_array_equal(a.adversarial, b.adversarial)

    def test_text_generation_through_waves(self, monkeypatch):
        """generate_adversarial_set drives the text domain end to end."""
        from repro.datasets import make_language_dataset
        from repro.hdc import HDCClassifier, NgramEncoder

        data = make_language_dataset(n_per_class=20, n_languages=3, length=40, seed=4)
        train, test = data.split(0.8, rng=0)
        model = HDCClassifier(NgramEncoder(n=3, dimension=1024, rng=4), 3).fit(
            list(train.texts), train.labels
        )
        examples, _ = generate_adversarial_set(
            model, list(test.texts)[:8], 4,
            strategy="char_sub", executor="batched",
            config=HDTestConfig(iter_times=20), rng=0,
        )
        assert len(examples) == 4
        assert all(isinstance(e.adversarial, str) for e in examples)

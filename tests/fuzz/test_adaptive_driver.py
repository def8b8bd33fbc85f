"""The adaptive campaign driver: reproducibility, schedules, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz import (
    BatchedExecutor,
    ImageConstraint,
    ProcessExecutor,
    generate_adversarial_set,
    run_adaptive_campaign,
)
from repro.fuzz.adaptive.driver import DEFAULT_ARMS, SCHEDULES
from repro.fuzz.fuzzer import HDTestConfig
from repro.obs import CampaignTelemetry


@pytest.fixture(scope="module")
def pool(digit_data):
    _, test = digit_data
    inputs = [test.images[i].astype(np.float64) for i in range(12)]
    labels = [int(test.labels[i]) for i in range(12)]
    return inputs, labels


def _run(model, pool, *, rng=11, executor="batched", **kw):
    inputs, labels = pool
    kw.setdefault("strategies", ("gauss", "shift"))
    kw.setdefault("config", HDTestConfig(iter_times=6))
    kw.setdefault("strict", False)
    return run_adaptive_campaign(
        model, inputs, 8, true_labels=labels, rng=rng, executor=executor, **kw,
    )


class TestValidation:
    def test_unknown_schedule_rejected(self, trained_model, pool):
        with pytest.raises(ConfigurationError):
            _run(trained_model, pool, schedule="greedy")

    def test_empty_strategies_rejected(self, trained_model, pool):
        with pytest.raises(ConfigurationError):
            _run(trained_model, pool, strategies=())

    def test_duplicate_strategies_rejected(self, trained_model, pool):
        with pytest.raises(ConfigurationError):
            _run(trained_model, pool, strategies=("gauss", "gauss"))

    def test_mixed_domains_rejected(self, trained_model, pool):
        with pytest.raises(ConfigurationError):
            _run(trained_model, pool, strategies=("gauss", "char_swap"))

    def test_exports(self):
        assert "thompson" in SCHEDULES and "gauss" in DEFAULT_ARMS

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    @pytest.mark.parametrize("factor", [0, -1, 2.5, True])
    @pytest.mark.parametrize(
        "runner", [generate_adversarial_set, run_adaptive_campaign],
        ids=["generate", "adaptive"],
    )
    def test_attempt_factor_checked_before_fuzzing(
        self, trained_model, pool, runner, factor, executor
    ):
        """A factor that is not a positive int is rejected by name.

        0 and -1 used to fuzz an input before a FuzzingError blamed the
        budget (or a ConfigurationError named no parameter), and 2.5
        ran on the serial schedule but raised TypeError on the batched.
        """
        inputs, labels = pool
        obs = CampaignTelemetry()
        with pytest.raises(ConfigurationError, match="max_attempts_factor"):
            runner(
                trained_model, inputs, 4, true_labels=labels, rng=0,
                executor=executor, max_attempts_factor=factor, telemetry=obs,
            )
        assert obs.counters.get("inputs", 0) == 0


class TestCampaign:
    def test_finds_target_and_reports_accounting(self, trained_model, pool):
        result = _run(trained_model, pool)
        assert result.n_examples == 8
        assert result.n_found >= 8
        assert result.attempts > 0
        assert result.encodes > 0
        assert 0 < result.discrepancies_per_encode <= 1
        assert result.schedule == "thompson"
        assert set(result.arms) == {"gauss", "shift"}
        assert result.best_arm() in result.arms
        # Allocation trace covers every scheduled input once.
        sched = sum(n for w in result.allocation for n in w["scheduled"].values())
        assert sched == result.attempts
        assert set(result.corpus) >= {"size", "seeds", "adversarial", "near_miss"}

    def test_true_labels_threaded_through(self, trained_model, pool):
        result = _run(trained_model, pool)
        assert all(e.true_label is not None for e in result.examples)

    def test_uniform_schedule_round_robins(self, trained_model, pool):
        result = _run(trained_model, pool, schedule="uniform")
        scheduled = {}
        for wave in result.allocation:
            for arm, n in wave["scheduled"].items():
                scheduled[arm] = scheduled.get(arm, 0) + n
        assert set(scheduled) == {"gauss", "shift"}

    def test_static_corpus_never_grows(self, trained_model, pool):
        result = _run(trained_model, pool, evolve_corpus=False)
        assert result.corpus["size"] == len(pool[0])
        assert result.corpus["adversarial"] == 0

    def test_strict_budget_raises_and_non_strict_returns_partial(
        self, trained_model, pool
    ):
        # An unflippable campaign: shift alone at a tiny budget never
        # yields a child inside the constraint.
        kw = dict(
            strategies=("shift",),
            constraint=ImageConstraint(max_l2=1e-6),
            max_attempts_factor=2,
        )
        with pytest.raises(FuzzingError):
            _run(trained_model, pool, strict=True, **kw)
        partial = _run(trained_model, pool, **kw)
        assert partial.n_examples < 8
        assert partial.attempts == 2 * 8

    def test_telemetry_by_arm_recorded(self, trained_model, pool):
        obs = CampaignTelemetry(label="adaptive-test")
        result = _run(trained_model, pool, telemetry=obs)
        assert obs.by_arm  # sink saw the arm blocks
        by_arm = result.telemetry["by_arm"]
        assert sum(s["scheduled"] for s in by_arm.values()) == result.attempts
        assert sum(s["retired"] for s in by_arm.values()) == result.n_found


class TestReproducibility:
    def test_bit_identical_across_executors_and_batch_sizes(
        self, trained_model, pool
    ):
        def campaign(executor):
            return _run(
                trained_model, pool, executor=executor,
                constraint=ImageConstraint(max_l2=0.6),
            )

        base = campaign(BatchedExecutor(batch_size=4))
        for executor in (BatchedExecutor(batch_size=32), ProcessExecutor(n_workers=2)):
            other = campaign(executor)
            assert other.allocation == base.allocation
            assert other.bandit == base.bandit
            assert other.n_found == base.n_found
            for a, b in zip(base.examples, other.examples):
                np.testing.assert_array_equal(a.adversarial, b.adversarial)
                assert a.iterations == b.iterations
                assert a.reference_label == b.reference_label

    def test_same_seed_same_campaign(self, trained_model, pool):
        first = _run(trained_model, pool)
        second = _run(trained_model, pool)
        assert first.allocation == second.allocation
        for a, b in zip(first.examples, second.examples):
            np.testing.assert_array_equal(a.adversarial, b.adversarial)

    def test_telemetry_sink_does_not_perturb_outcomes(self, trained_model, pool):
        silent = _run(trained_model, pool)
        observed = _run(trained_model, pool, telemetry=CampaignTelemetry())
        assert silent.allocation == observed.allocation
        for a, b in zip(silent.examples, observed.examples):
            np.testing.assert_array_equal(a.adversarial, b.adversarial)


class TestFixedCampaignsUntouched:
    def test_fixed_campaign_identical_before_and_after_adaptive(
        self, trained_model, test_images
    ):
        """Running an adaptive campaign must not perturb the seed
        engines: a fixed-strategy campaign re-run with the same seed is
        bit-identical."""
        inputs = [test_images[i] for i in range(6)]

        def fixed():
            examples, _elapsed = generate_adversarial_set(
                trained_model, inputs, 4, strategy="gauss",
                config=HDTestConfig(iter_times=6), rng=5, executor="batched",
            )
            return examples

        before = fixed()
        _run(trained_model, (inputs, [0] * 6))
        after = fixed()
        assert len(before) == len(after)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.adversarial, b.adversarial)
            assert a.iterations == b.iterations

"""Telemetry must observe, never perturb.

The acceptance property of the observability layer: a campaign run with
telemetry enabled is bit-identical to the same campaign with telemetry
off — across the sequential engine, the batched engine, and the process
pool — and the counters it reports obey the conservation laws the
recorder's docstring promises (requests = hits + encodes + skipped
encodes, blocks = children × ``n_encode_blocks``, sequential ≡ batched
counter streams).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import HDTestConfig, compare_strategies
from repro.fuzz.batch import BatchedHDTest
from repro.fuzz.executor import BatchedExecutor, ProcessExecutor, SerialExecutor
from repro.fuzz.fuzzer import HDTest
from repro.fuzz.targets import ModelEnsembleTarget
from repro.obs import CampaignTelemetry

CONFIG = HDTestConfig(iter_times=6, children_per_seed=4)


def _outcome_key(outcome):
    return (
        outcome.success,
        outcome.iterations,
        outcome.reference_label,
        None
        if outcome.example is None
        else (
            outcome.example.adversarial_label,
            tuple(np.asarray(outcome.example.adversarial).ravel()),
        ),
    )


def _assert_same_outcomes(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for left, right in zip(a.outcomes, b.outcomes):
        assert _outcome_key(left) == _outcome_key(right)


class TestBitIdentity:
    """Telemetry on == telemetry off, engine by engine."""

    def test_sequential_engine(self, trained_model, test_images):
        inputs = list(test_images[:5])
        plain = HDTest(trained_model, "gauss", config=CONFIG, rng=0).fuzz(inputs)
        instrumented = HDTest(
            trained_model, "gauss", config=CONFIG, rng=0,
            telemetry=CampaignTelemetry(),
        ).fuzz(inputs)
        _assert_same_outcomes(plain, instrumented)
        assert plain.telemetry is None
        assert instrumented.telemetry is not None

    def test_batched_engine(self, trained_model, test_images):
        inputs = list(test_images[:5])
        plain = BatchedHDTest(trained_model, "gauss", config=CONFIG, rng=0).fuzz(inputs)
        instrumented = BatchedHDTest(
            trained_model, "gauss", config=CONFIG, rng=0,
            telemetry=CampaignTelemetry(),
        ).fuzz(inputs)
        _assert_same_outcomes(plain, instrumented)

    @pytest.mark.parametrize(
        "make_executor",
        [
            lambda: SerialExecutor(),
            lambda: BatchedExecutor(batch_size=3),
            lambda: ProcessExecutor(n_workers=2, batch_size=3),
        ],
        ids=["serial", "batched", "process"],
    )
    def test_executors(self, trained_model, test_images, make_executor):
        inputs = list(test_images[:6])
        plain_exec, obs_exec = make_executor(), make_executor()
        try:
            plain = plain_exec.run(
                trained_model, "gauss", inputs, config=CONFIG, rng=0
            )
            instrumented = obs_exec.run(
                trained_model, "gauss", inputs, config=CONFIG, rng=0,
                telemetry=CampaignTelemetry(),
            )
        finally:
            plain_exec.close()
            obs_exec.close()
        _assert_same_outcomes(plain, instrumented)
        assert instrumented.telemetry is not None

    def test_compare_strategies_session(self, trained_model, test_images, tmp_path):
        from repro.obs import TelemetrySession

        inputs = list(test_images[:4])
        plain = compare_strategies(
            trained_model, inputs, ["gauss", "shift"], config=CONFIG, rng=1
        )
        with TelemetrySession(tmp_path / "t.jsonl") as session:
            instrumented = compare_strategies(
                trained_model, inputs, ["gauss", "shift"], config=CONFIG,
                rng=1, telemetry=session,
            )
        for name in plain:
            _assert_same_outcomes(plain[name], instrumented[name])


class TestCounterConservation:
    def _run(self, trained_model, inputs, **kwargs):
        obs = CampaignTelemetry()
        result = HDTest(
            trained_model, "gauss", config=CONFIG, rng=0, telemetry=obs, **kwargs
        ).fuzz(inputs)
        return result, result.telemetry["counters"]

    def test_requests_split_into_hits_encodes_and_skips(
        self, trained_model, test_images
    ):
        result, counters = self._run(trained_model, list(test_images[:5]))
        cache_hits = result.telemetry["cache_hits"]
        assert counters["encode_requests"] == (
            cache_hits
            + counters.get("encoded_children", 0)
            + counters.get("children_skipped", 0)
        )
        assert cache_hits >= 0
        assert counters["children_in_budget"] == counters["encode_requests"]
        assert counters.get("children", 0) >= counters["children_in_budget"]

    def test_retired_plus_exhausted_is_inputs(self, trained_model, test_images):
        _, counters = self._run(trained_model, list(test_images[:6]))
        assert counters.get("retired", 0) + counters.get("exhausted", 0) == counters[
            "inputs"
        ]

    def test_encode_blocks_scale_with_ensemble(self, trained_model, digit_data):
        train, test = digit_data
        target = ModelEnsembleTarget.trained_like(
            trained_model, 3, train.images[:200], train.labels[:200], rng=5
        )
        obs = CampaignTelemetry()
        result = HDTest(
            target, "gauss", config=CONFIG, rng=0, telemetry=obs
        ).fuzz(list(test.images[:3].astype(np.float64)))
        counters = result.telemetry["counters"]
        assert counters["encodes"] == counters["encoded_children"] * 3

    def test_sequential_equals_batched_counters(self, trained_model, test_images):
        inputs = list(test_images[:6])
        _, seq = self._run(trained_model, inputs)
        obs = CampaignTelemetry()
        batched = BatchedHDTest(
            trained_model, "gauss", config=CONFIG, rng=0, telemetry=obs
        ).fuzz(inputs)
        assert seq == batched.telemetry["counters"]

    def test_process_merge_matches_serial_counters(self, trained_model, test_images):
        inputs = list(test_images[:6])
        _, serial = self._run(trained_model, inputs)
        executor = ProcessExecutor(n_workers=2, batch_size=2)
        try:
            result = executor.run(
                trained_model, "gauss", inputs, config=CONFIG, rng=0,
                telemetry=CampaignTelemetry(),
            )
        finally:
            executor.close()
        merged = dict(result.telemetry["counters"])
        # The executor adds its own IPC accounting on top of the engine
        # counters; those never appear in a single-process run.
        broadcast_bytes = merged.pop("broadcast_bytes", 0)
        assert broadcast_bytes > 0
        assert merged == serial
        assert result.telemetry["busy_seconds"] > 0
        assert result.telemetry["retired_at"] == sorted(result.telemetry["retired_at"])

"""Self-tests of the benchmark at tiny D (run: ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from checker import check_cross_model, check_self_differential
from harness import END_TO_END, PER_LAYER, run_workload
from spans import SpanRecorder, traced_layers
from workloads import TINY, WORKLOADS, unit_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    record = run_workload(name, seed=3, seconds=0.1, trace=False, scale=TINY)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] >= 11
    assert set(record["metrics"]) == set(END_TO_END)
    assert record["units"] == END_TO_END
    assert all(record["metrics"][m] > 0 for m in END_TO_END)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric_with_the_untraced_digest(name):
    record = run_workload(name, seed=3, seconds=0.1, trace=True, scale=TINY)
    assert record["correct"], record["errors"]
    assert set(record["metrics"]) == set(PER_LAYER)
    extra = record["extra"]
    assert extra["traced_outcome_digest"] == extra["outcome_digest"]
    metrics = record["metrics"]
    for metric in ("encoders.delta.rows", "engine.iterations", "mutations.children",
                   "engine.self_s", "targets.self_s", "executor.self_s"):
        assert metrics[metric] > 0, metric


def test_defense_trace_covers_the_packed_and_retraining_layers():
    record = run_workload("defense-gauss-packed", seed=1, seconds=0.1, trace=True, scale=TINY)
    metrics = record["metrics"]
    for metric in ("packed.query.rows", "packed.update.rows", "model.retrain.rows",
                   "campaign.waves", "defense.self_s"):
        assert metrics[metric] > 0, metric
    assert metrics["am.query.rows"] == 0


def test_tracing_restores_every_wrapped_method():
    from repro.fuzz import campaign
    from repro.hdc import PixelEncoder

    before = (PixelEncoder.accumulate_delta, campaign.compare_strategies)
    recorder = SpanRecorder()
    with traced_layers(recorder):
        assert PixelEncoder.accumulate_delta is not before[0]
    assert (PixelEncoder.accumulate_delta, campaign.compare_strategies) == before


def _unit_examples(name: str, seed: int = 5):
    workload = WORKLOADS[name]
    data = workload.setup(TINY)
    for index in range(10):
        results = workload.unit(data, TINY, index, unit_rng(seed, index))
        examples = [e for r in results.values() for e in r.examples if e.iterations > 0]
        if examples:
            return data, examples
    raise AssertionError("no adversarial found to plant from")


def test_checker_rejects_a_planted_non_flipping_adversarial():
    data, examples = _unit_examples("table2-serial")
    assert check_self_differential(data.target, examples) == []
    planted = replace(examples[0], adversarial=examples[0].original.copy())
    problems = check_self_differential(data.target, [planted])
    assert any("no flip" in p for p in problems)


def test_checker_rejects_a_planted_over_budget_adversarial():
    data, examples = _unit_examples("table2-serial")
    example = next(e for e in examples if e.strategy != "shift")
    noise = np.where(example.original > 127, -255.0, 255.0)
    planted = replace(example, adversarial=np.clip(example.original + noise, 0, 255))
    problems = check_self_differential(data.target, [planted])
    assert any("exceeds" in p for p in problems)


def test_cross_model_checker_rejects_an_agreeing_adversarial():
    data, examples = _unit_examples("ensemble-shared-k5")
    assert check_cross_model(data.target, examples) == []
    labels = data.target.predict(data.fuzz_images)
    agreed = int(np.nonzero((labels == labels[0]).all(axis=0))[0][0])
    original = data.fuzz_images[agreed]
    planted = replace(examples[0], original=original, adversarial=original.copy(),
                      reference_label=int(labels[0, agreed]), disagreed_members=())
    problems = check_cross_model(data.target, [planted])
    assert any("no split" in p for p in problems)


def test_run_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "table2-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

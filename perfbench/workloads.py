"""The benchmark's three campaign workloads.

Each workload has a ``setup`` (load the seeded synthetic-MNIST split,
train the model or ensemble, repack it), a timed ``unit`` — one call of
the public campaign API on a fresh slice of the test pool — and an
untimed ``summarise`` that checks the unit's outputs and reduces them to
counts.  The dataset and the models are fixed (``DATA_SEED``), so runs
with different workload seeds fuzz the same models; the seed drives
every random draw of the campaigns themselves (mutation streams, the
defense's retrain/attack split), one independent stream per unit.

Campaign functions are looked up on their modules at call time
(``fuzz_campaign.compare_strategies``, ``repro_defense.run_defense``) so
the traced run's wrappers see these calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import repro.defense as repro_defense
from repro.datasets import load_digits
from repro.fuzz import (
    TABLE2_STRATEGIES,
    BatchedExecutor,
    CrossModelOracle,
    SharedCodebookEnsembleTarget,
    create_executor,
    create_strategy,
    default_schedule_policy,
)
from repro.fuzz import campaign as fuzz_campaign
from repro.hdc import HDCClassifier, PixelEncoder
from repro.hdc.backends.dispatch import resolve_model_backend

from checker import check_cross_model, check_self_differential

__all__ = ["DATA_SEED", "PAPER", "TINY", "Scale", "UnitSummary", "WORKLOADS", "unit_rng"]

#: Seed of the synthetic-MNIST split and of every model's codebooks.
DATA_SEED = 42


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark configuration."""

    dimension: int
    n_train: int
    n_fuzz: int  # test images the units slice
    n_clean: int  # held-out test images for the defense's clean-accuracy pass
    table2_slice: int
    defense_slice: int
    defense_target: int  # adversarials per defense unit (> slice: inputs recycle)
    ensemble_slice: int
    members: int
    trace_units: int  # units the traced run times, untraced then traced
    setups: int  # set-up + timed-pass rounds per run; setup_s is their median


#: The paper's D = 10 000 with a 400-image training split.
PAPER = Scale(
    dimension=10_000, n_train=400, n_fuzz=160, n_clean=20,
    table2_slice=2, defense_slice=2, defense_target=3, ensemble_slice=2,
    members=5, trace_units=8, setups=3,
)

#: A seconds-scale configuration for the benchmark's self-tests.
TINY = Scale(
    dimension=512, n_train=200, n_fuzz=24, n_clean=12,
    table2_slice=1, defense_slice=3, defense_target=4, ensemble_slice=2,
    members=3, trace_units=2, setups=2,
)


def unit_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream of unit *index* (``-1`` is the warm-up unit)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index + 1]))


@dataclass
class UnitSummary:
    """A checked unit, reduced to what the metrics need."""

    inputs: int  # fuzzed inputs completed (retired or exhausted)
    adversarials: int  # discrepancies found
    l2: list[float]  # normalised L2 of adversarials of metric strategies
    outcomes: list[tuple]  # (success, iterations, reference_label) per input
    problems: list[str]  # failed correctness checks
    extra: dict = field(default_factory=dict)


@dataclass
class Data:
    model: HDCClassifier
    train_images: np.ndarray
    train_labels: np.ndarray
    fuzz_images: np.ndarray
    fuzz_labels: np.ndarray
    clean_images: np.ndarray
    clean_labels: np.ndarray
    target: Any = None  # the workload's system under test

    def slice(self, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit *index*'s images; the warm-up (-1) takes the pool's last slice.

        Units cycle through the other slices in order, so every run of a
        workload visits the same inputs in the same order.
        """
        n_slices = len(self.fuzz_images) // size - 1
        start = (n_slices if index < 0 else index % n_slices) * size
        return (
            self.fuzz_images[start : start + size],
            self.fuzz_labels[start : start + size],
        )


def load_data(scale: Scale) -> Data:
    """The seeded split plus the paper's dense bipolar pixel model."""
    train, test = load_digits(
        n_train=scale.n_train, n_test=scale.n_fuzz + scale.n_clean, seed=DATA_SEED
    )
    model = HDCClassifier(
        PixelEncoder(dimension=scale.dimension, rng=DATA_SEED), n_classes=10
    ).fit(train.images, train.labels)
    images = test.images.astype(np.float64)
    return Data(
        model=model,
        train_images=train.images,
        train_labels=train.labels,
        fuzz_images=images[: scale.n_fuzz],
        fuzz_labels=test.labels[: scale.n_fuzz],
        clean_images=images[scale.n_fuzz :],
        clean_labels=test.labels[scale.n_fuzz :],
    )


def _summarise_campaigns(results: dict, problems: list[str]) -> UnitSummary:
    """Counts of a ``compare_strategies`` unit, strategies in name order."""
    outcomes, l2 = [], []
    for name in sorted(results):
        result = results[name]
        outcomes += [(o.success, o.iterations, o.reference_label) for o in result.outcomes]
        if not getattr(create_strategy(name), "metric_free", False):
            l2 += [e.l2 for e in result.examples]
    return UnitSummary(
        inputs=sum(r.n_inputs for r in results.values()),
        adversarials=sum(r.n_success for r in results.values()),
        l2=l2,
        outcomes=outcomes,
        problems=problems,
    )


class Table2Serial:
    """Table II: four strategies on the dense bipolar model, serial engine."""

    name = "table2-serial"
    nominal_unit_s = 0.66  # unit plus its check, on a 2-core reference host

    def setup(self, scale: Scale) -> Data:
        data = load_data(scale)
        data.target = data.model
        return data

    def unit(self, data: Data, scale: Scale, index: int, rng, telemetry=None):
        images, _ = data.slice(index, scale.table2_slice)
        return fuzz_campaign.compare_strategies(
            data.target, images, TABLE2_STRATEGIES, executor="serial",
            rng=rng, telemetry=telemetry,
        )

    def summarise(self, data: Data, results: dict) -> UnitSummary:
        examples = [e for r in results.values() for e in r.examples]
        return _summarise_campaigns(results, check_self_differential(data.target, examples))


class TallyExecutor(BatchedExecutor):
    """The batched executor, tallying the inputs it fuzzed and what it found."""

    def __init__(self) -> None:
        super().__init__()
        self.inputs = 0
        self.found = 0

    def run(self, model, strategy, inputs, **kwargs):
        result = super().run(model, strategy, inputs, **kwargs)
        self.inputs += result.n_inputs
        self.found += result.n_success
        return result


class DefenseGaussPacked:
    """Sec. V-D: gauss adversarials on the packed model, then retraining."""

    name = "defense-gauss-packed"
    nominal_unit_s = 0.46

    def setup(self, scale: Scale) -> Data:
        data = load_data(scale)
        data.target = resolve_model_backend(data.model, "packed-bipolar")
        return data

    def unit(self, data: Data, scale: Scale, index: int, rng, telemetry=None):
        images, labels = data.slice(index, scale.defense_slice)
        generate_rng, defense_rng = rng.spawn(2)
        executor = TallyExecutor()
        examples, _ = fuzz_campaign.generate_adversarial_set(
            data.target, images, scale.defense_target, strategy="gauss",
            true_labels=labels, executor=executor, rng=generate_rng,
            telemetry=telemetry,
        )
        report, _ = repro_defense.run_defense(
            data.target, examples, clean_inputs=data.clean_images,
            clean_labels=data.clean_labels, rng=defense_rng,
        )
        return examples, report, executor

    def summarise(self, data: Data, raw) -> UnitSummary:
        examples, report, executor = raw
        problems = check_self_differential(data.target, examples)
        if report.n_retrain + report.n_attack != len(examples):
            problems.append(
                f"defense split {report.n_retrain}+{report.n_attack} of {len(examples)}"
            )
        return UnitSummary(
            inputs=executor.inputs,
            adversarials=executor.found,
            l2=[e.l2 for e in examples],
            outcomes=[(True, e.iterations, e.reference_label) for e in examples],
            problems=problems,
            extra={
                "n_attack": report.n_attack,
                "fooled_before": report.attack_rate_before * report.n_attack,
                "fooled_after": report.attack_rate_after * report.n_attack,
            },
        )


class EnsembleSharedK5:
    """HDXplore-style: K shared-codebook members under the cross-model oracle."""

    name = "ensemble-shared-k5"
    nominal_unit_s = 0.28

    def setup(self, scale: Scale) -> Data:
        data = load_data(scale)
        data.target = SharedCodebookEnsembleTarget.trained_shared(
            data.model, scale.members, data.train_images, data.train_labels,
            rng=DATA_SEED,
        )
        return data

    def unit(self, data: Data, scale: Scale, index: int, rng, telemetry=None):
        images, _ = data.slice(index, scale.ensemble_slice)
        policy = default_schedule_policy(len(images), n_members=scale.members)
        with create_executor(policy) as executor:
            return fuzz_campaign.compare_strategies(
                data.target, images, ("gauss", "rand"), oracle=CrossModelOracle(),
                executor=executor, rng=rng, telemetry=telemetry,
            )

    def summarise(self, data: Data, results: dict) -> UnitSummary:
        examples = [e for r in results.values() for e in r.examples]
        return _summarise_campaigns(results, check_cross_model(data.target, examples))


WORKLOADS = {w.name: w for w in (Table2Serial(), DefenseGaussPacked(), EnsembleSharedK5())}


def ensemble_executor(scale: Scale) -> str:
    """The schedule ``default_schedule_policy`` picks for an ensemble unit."""
    return default_schedule_policy(scale.ensemble_slice, n_members=scale.members)


def is_multiprocess(executor_name: Optional[str]) -> bool:
    return executor_name in ("process", "member-sharded")

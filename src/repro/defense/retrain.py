"""Retraining defenses: single-model (Sec. V-D) and ensemble debugging.

The paper's case study (Fig. 8):

1. run HDTest on a trained HDC model until 1000 adversarial images
   exist;
2. randomly split them into two subsets;
3. feed the first subset *with correct labels* back into the model —
   retraining updates the reference HVs;
4. attack the retrained model with the second (unseen) subset.

Before retraining the attack succeeds on 100 % of the held-out images
by construction; after retraining "the rate of successful attack rate
drops more than 20 %".  :func:`run_defense` reproduces the pipeline and
reports both rates plus the clean-accuracy cost of retraining.

:func:`debug_ensemble` is the cross-model analogue, after HDXplore's
debugging loop: fuzz a K-member
:class:`~repro.fuzz.targets.ModelEnsembleTarget` for inputs the members
disagree on, retrain *every* member on those discrepancies labelled by
the ensemble's majority vote (or ground truth when known), and repeat.
The headline success metric is the *resolved rate*: the fraction of
held-out inputs the original members disagreed on that the hardened
ensemble now agrees on (``benchmarks/bench_ensemble_fuzzing.py``
asserts it at scale).  Overall held-out agreement is reported alongside
as the cost view and is *not* guaranteed to rise — see
:class:`EnsembleDebugReport`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.results import AdversarialExample
from repro.hdc.model import HDCClassifier
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_labels

__all__ = [
    "DefenseReport",
    "run_defense",
    "attack_success_rate",
    "EnsembleDebugReport",
    "ensemble_agreement",
    "debug_ensemble",
]


@dataclass(frozen=True)
class DefenseReport:
    """Outcome of the Fig. 8 defense pipeline.

    Attributes
    ----------
    attack_rate_before:
        Fraction of held-out adversarials that fool the original model
        (1.0 by construction when the same model generated them).
    attack_rate_after:
        Fraction that still fool the retrained model.
    rate_drop:
        ``attack_rate_before − attack_rate_after`` (the paper's
        ">20 %" headline).
    n_retrain, n_attack:
        Sizes of the two subsets.
    clean_accuracy_before, clean_accuracy_after:
        Accuracy on clean test data, when provided — retraining must
        not destroy the model to count as a defense.
    """

    attack_rate_before: float
    attack_rate_after: float
    n_retrain: int
    n_attack: int
    clean_accuracy_before: float = float("nan")
    clean_accuracy_after: float = float("nan")

    @property
    def rate_drop(self) -> float:
        """Absolute drop in attack success rate."""
        return self.attack_rate_before - self.attack_rate_after

    def summary(self) -> dict[str, float]:
        """All fields as a flat dict (report/bench friendly)."""
        return {
            "attack_rate_before": self.attack_rate_before,
            "attack_rate_after": self.attack_rate_after,
            "rate_drop": self.rate_drop,
            "n_retrain": self.n_retrain,
            "n_attack": self.n_attack,
            "clean_accuracy_before": self.clean_accuracy_before,
            "clean_accuracy_after": self.clean_accuracy_after,
        }


def _label_for_retraining(example: AdversarialExample) -> int:
    """The "correct label" fed back during retraining.

    Ground truth when the campaign recorded it; otherwise the reference
    label — which in the differential setting is the model's own
    (correct, for in-budget perturbations) prediction on the original.
    """
    if example.true_label is not None:
        return example.true_label
    return example.reference_label


def _attack_batch(
    examples: Sequence[AdversarialExample],
) -> tuple[Any, np.ndarray]:
    """The adversarial inputs of *examples* as one batch, and their correct labels."""
    if not examples:
        raise ConfigurationError("examples is empty")
    adversarials = [e.adversarial for e in examples]
    labels = np.asarray([_label_for_retraining(e) for e in examples])
    if isinstance(adversarials[0], np.ndarray):
        return np.stack(adversarials), labels
    return adversarials, labels


def attack_success_rate(
    model: HDCClassifier, examples: Sequence[AdversarialExample]
) -> float:
    """Fraction of *examples* whose adversarial input still fools *model*.

    An attack counts as successful when the model's prediction on the
    adversarial image differs from the correct label (see
    :func:`_label_for_retraining`).
    """
    batch, labels = _attack_batch(examples)
    return float(np.mean(model.predict(batch) != labels))


def run_defense(
    model: HDCClassifier,
    examples: Sequence[AdversarialExample],
    *,
    retrain_fraction: float = 0.5,
    mode: str = "adaptive",
    epochs: int = 3,
    clean_inputs: Optional[np.ndarray] = None,
    clean_labels: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> tuple[DefenseReport, HDCClassifier]:
    """Run the Fig. 8 pipeline; returns the report and the hardened model.

    Parameters
    ----------
    model:
        The attacked classifier (left untouched — retraining happens on
        a copy).
    examples:
        Adversarial examples from HDTest (step 1 of Fig. 8 done by the
        caller, e.g. :func:`repro.fuzz.generate_adversarial_set`).
    retrain_fraction:
        Share of examples used for retraining (paper: a random 50/50
        split).
    mode, epochs:
        Passed to :meth:`repro.hdc.model.HDCClassifier.retrain`.
    clean_inputs, clean_labels:
        Optional clean test set for measuring the accuracy cost.
    """
    if not 0.0 < retrain_fraction < 1.0:
        raise ConfigurationError(
            f"retrain_fraction must be in (0, 1), got {retrain_fraction}"
        )
    if len(examples) < 2:
        raise ConfigurationError("need at least 2 adversarial examples to split")
    generator = ensure_rng(rng)
    perm = generator.permutation(len(examples))
    cut = int(round(retrain_fraction * len(examples)))
    if cut == 0 or cut == len(examples):
        raise ConfigurationError(
            f"retrain_fraction={retrain_fraction} leaves an empty subset "
            f"for {len(examples)} examples"
        )
    retrain_set = [examples[i] for i in perm[:cut]]
    attack_set = [examples[i] for i in perm[cut:]]

    # copy() shares the encoder, so each input set is encoded once and
    # both associative memories answer from the same hypervectors.
    attack_inputs, attack_labels = _attack_batch(attack_set)
    attack_hvs = model.encode_batch(attack_inputs)
    rate_before = float(np.mean(model.predict_hv(attack_hvs) != attack_labels))

    hardened = model.copy()
    retrain_inputs, retrain_labels = _attack_batch(retrain_set)
    hardened.retrain(retrain_inputs, retrain_labels, mode=mode, epochs=epochs)

    rate_after = float(np.mean(hardened.predict_hv(attack_hvs) != attack_labels))

    acc_before = float("nan")
    acc_after = float("nan")
    if clean_inputs is not None and clean_labels is not None:
        clean_hvs = model.encode_batch(clean_inputs)
        labels = check_labels(clean_labels, clean_hvs.shape[0])
        acc_before = float(np.mean(model.predict_hv(clean_hvs) == labels))
        acc_after = float(np.mean(hardened.predict_hv(clean_hvs) == labels))

    report = DefenseReport(
        attack_rate_before=rate_before,
        attack_rate_after=rate_after,
        n_retrain=len(retrain_set),
        n_attack=len(attack_set),
        clean_accuracy_before=acc_before,
        clean_accuracy_after=acc_after,
    )
    return report, hardened


# -- ensemble debugging (HDXplore-style) ------------------------------------
@dataclass(frozen=True)
class EnsembleDebugReport:
    """Outcome of the cross-model discrepancy-retraining loop.

    The headline number is :attr:`resolved_rate`: of the held-out
    inputs the ensemble *initially disagreed on* (agreement 0 on that
    subset, by construction), what fraction does the retrained ensemble
    now agree on?  That is the generalisation claim — the loop fixes
    disagreements it never trained on.  Overall held-out agreement is
    reported alongside as the cost view: the boundary updates that
    resolve disagreements also perturb decisions on inputs that sat
    near a boundary while agreeing, so the aggregate number can move
    less, or slightly down, while genuinely-disagreeing regions heal
    (the same accuracy-vs-robustness tension ``run_defense`` reports
    through its clean-accuracy columns).

    Attributes
    ----------
    agreement_before, agreement_after:
        Fraction of *all* held-out inputs on which every member
        predicts the same class, before and after retraining.
    n_holdout_disagreements:
        Held-out inputs the original ensemble disagreed on.
    resolved_rate:
        Fraction of those the hardened ensemble fully agrees on
        (NaN when the original ensemble had no held-out disagreements).
    n_discrepancies:
        Total discrepancy inputs fed back across all rounds (seed
        discrepancies and mutated children alike).
    rounds_run:
        Debugging rounds actually executed (the loop stops early when a
        round finds nothing to feed back).
    per_round:
        Discrepancy count of each executed round.
    clean_accuracy_before, clean_accuracy_after:
        Majority-vote accuracy on a labelled clean set, when provided.
    """

    agreement_before: float
    agreement_after: float
    n_holdout_disagreements: int
    resolved_rate: float
    n_discrepancies: int
    rounds_run: int
    per_round: tuple[int, ...]
    clean_accuracy_before: float = float("nan")
    clean_accuracy_after: float = float("nan")

    @property
    def agreement_gain(self) -> float:
        """Absolute change in overall held-out ensemble agreement."""
        return self.agreement_after - self.agreement_before

    def summary(self) -> dict[str, float]:
        """All fields as a flat dict (report/bench friendly)."""
        return {
            "agreement_before": self.agreement_before,
            "agreement_after": self.agreement_after,
            "agreement_gain": self.agreement_gain,
            "n_holdout_disagreements": self.n_holdout_disagreements,
            "resolved_rate": self.resolved_rate,
            "n_discrepancies": self.n_discrepancies,
            "rounds_run": self.rounds_run,
            "clean_accuracy_before": self.clean_accuracy_before,
            "clean_accuracy_after": self.clean_accuracy_after,
        }


def ensemble_agreement(target: Any, inputs: Sequence[Any]) -> float:
    """Fraction of *inputs* on which every member of *target* agrees.

    Delegates to :meth:`ModelEnsembleTarget.agreement` (one definition
    of agreement); accepts any duck-typed target exposing ``predict``.
    """
    agreement = getattr(target, "agreement", None)
    if callable(agreement):
        return float(agreement(inputs))
    return _all_agree_rate(target.predict(inputs))


def _all_agree_rate(member_labels: np.ndarray) -> float:
    """Fraction of columns of a ``(K, n)`` label block that are unanimous.

    A 1-D row (a single model's predictions) coerces to ``(1, n)`` — one
    member always agrees with itself.
    """
    labels = np.atleast_2d(np.asarray(member_labels))
    return float(np.mean((labels == labels[0]).all(axis=0)))


def debug_ensemble(
    target: Any,
    fuzz_inputs: Sequence[Any],
    holdout_inputs: Sequence[Any],
    *,
    strategy: Union[str, Any] = "gauss",
    domain: Any = None,
    config: Any = None,
    rounds: int = 3,
    mode: str = "adaptive",
    epochs: int = 1,
    true_labels: Optional[Sequence[int]] = None,
    clean_inputs: Optional[Sequence[Any]] = None,
    clean_labels: Optional[Sequence[int]] = None,
    rng: RngLike = None,
) -> tuple[EnsembleDebugReport, Any]:
    """Run the HDXplore debugging loop; returns the report + hardened target.

    Each round fuzzes *fuzz_inputs* with the cross-model oracle (any
    member disagreement counts, including pre-mutation seed
    discrepancies), then retrains **every member** of a copy of
    *target* on the discrepancies — both the original input and its
    adversarial mutation — labelled with the ensemble's majority vote
    on the original input, or ground truth via *true_labels* (aligned
    with *fuzz_inputs*) when the caller has it.  Adaptive mode only
    updates the members that mispredict a retraining input, which is
    exactly HDXplore's per-model correction.  The loop stops early once
    a round surfaces no discrepancies.

    The original *target* is left untouched; agreement is measured on
    *holdout_inputs*, which should be disjoint from *fuzz_inputs* (the
    claim is generalisation, not memorisation — see
    :class:`EnsembleDebugReport` for how to read the two agreement
    metrics).
    """
    from repro.fuzz.fuzzer import HDTest
    from repro.fuzz.oracle import CrossModelOracle
    from repro.fuzz.targets import ModelEnsembleTarget

    if not isinstance(target, ModelEnsembleTarget):
        raise ConfigurationError(
            f"debug_ensemble needs a ModelEnsembleTarget, got {type(target).__name__}"
        )
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if len(fuzz_inputs) == 0 or len(holdout_inputs) == 0:
        raise ConfigurationError("fuzz_inputs and holdout_inputs must be non-empty")
    if true_labels is not None and len(true_labels) != len(fuzz_inputs):
        raise ConfigurationError(
            f"{len(true_labels)} true_labels for {len(fuzz_inputs)} fuzz_inputs"
        )
    generator = ensure_rng(rng)

    hardened = target.copy()
    # One K-member prediction pass per phase serves both agreement
    # metrics (the holdout is the most expensive non-fuzzing work here).
    before_labels = hardened.predict(holdout_inputs)
    agreement_before = _all_agree_rate(before_labels)
    disagreed_mask = ~(before_labels == before_labels[0]).all(axis=0)
    acc_before = acc_after = float("nan")
    if clean_inputs is not None and clean_labels is not None:
        acc_before = float(
            np.mean(hardened.majority_predict(clean_inputs) == np.asarray(clean_labels))
        )

    per_round: list[int] = []
    for _ in range(rounds):
        outcomes = HDTest(
            hardened, strategy, domain=domain, config=config,
            oracle=CrossModelOracle(), rng=generator,
        ).fuzz_outcomes(fuzz_inputs)
        found = [
            (position, outcome.example)
            for position, outcome in enumerate(outcomes)
            if outcome.success
        ]
        per_round.append(len(found))
        if not found:
            break
        # Feed back the natural input *and* its mutation: the original
        # anchors the member on the manifold, the child marks the
        # boundary crossing the fuzzer exploited.  (For iteration-0
        # seed discrepancies the two coincide; the duplicate is a no-op
        # for members that already predict the label.)
        retrain_inputs = [example.original for _, example in found] + [
            example.adversarial for _, example in found
        ]
        if isinstance(retrain_inputs[0], np.ndarray):
            retrain_inputs = np.stack(retrain_inputs)
        labels = np.asarray(
            [
                int(true_labels[position])
                if true_labels is not None
                else _label_for_retraining(example)
                for position, example in found
            ]
            * 2
        )
        # One HV block per encoder: members sharing a codebook update
        # from a single encode of the retraining set.
        blocks = hardened.encode_batch(retrain_inputs)
        for member, hvs in zip(hardened.members, itertools.cycle(blocks)):
            member.retrain_hvs(hvs, labels, mode=mode, epochs=epochs)

    after_labels = hardened.predict(holdout_inputs)
    agreement_after = _all_agree_rate(after_labels)
    resolved_rate = (
        _all_agree_rate(after_labels[:, disagreed_mask])
        if disagreed_mask.any()
        else float("nan")
    )
    if clean_inputs is not None and clean_labels is not None:
        acc_after = float(
            np.mean(hardened.majority_predict(clean_inputs) == np.asarray(clean_labels))
        )
    report = EnsembleDebugReport(
        agreement_before=agreement_before,
        agreement_after=agreement_after,
        n_holdout_disagreements=int(disagreed_mask.sum()),
        resolved_rate=resolved_rate,
        n_discrepancies=int(sum(per_round)),
        rounds_run=len(per_round),
        per_round=tuple(per_round),
        clean_accuracy_before=acc_before,
        clean_accuracy_after=acc_after,
    )
    return report, hardened

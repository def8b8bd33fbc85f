"""Correctness checks on every unit's adversarials, through the public API.

* A self-differential adversarial must flip the model's label: the model
  predicts ``reference_label`` on the original and ``adversarial_label``
  (≠ reference) on the adversarial.
* A cross-model adversarial must split the ensemble's members, the
  reference must be the members' majority vote on the original, and
  ``disagreed_members`` must name exactly the members that left it.
* Every perturbation must pass the workload's budget: the default
  constraint of the image domain for the strategy that produced it,
  re-checked with :meth:`~repro.fuzz.constraints.Constraint.accept`.

Each check returns a list of problems; an empty list means the unit's
outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Sequence

import numpy as np

from repro.fuzz import create_domain, create_strategy, majority_vote

__all__ = [
    "check_budget",
    "check_cross_model",
    "check_self_differential",
    "outcome_digest",
]


def check_budget(examples: Sequence[Any]) -> list[str]:
    """Each adversarial is within its strategy's default image budget."""
    domain = create_domain("image")
    constraints: dict[str, Any] = {}
    problems = []
    for j, example in enumerate(examples):
        name = example.strategy
        if name not in constraints:
            constraints[name] = domain.default_constraint(create_strategy(name))
        candidate = np.asarray(example.adversarial, dtype=np.float64)[None]
        if not constraints[name].accept(example.original, candidate)[0]:
            problems.append(f"{name}#{j}: perturbation exceeds {constraints[name]!r}")
    return problems


def check_self_differential(model: Any, examples: Sequence[Any]) -> list[str]:
    """Every example flips *model*'s own label within budget."""
    if not examples:
        return []
    original = model.predict(np.stack([e.original for e in examples]))
    flipped = model.predict(np.stack([e.adversarial for e in examples]))
    problems = []
    for j, example in enumerate(examples):
        tag = f"{example.strategy}#{j}"
        if original[j] != example.reference_label:
            problems.append(
                f"{tag}: model predicts {original[j]} on the original, "
                f"not the reference label {example.reference_label}"
            )
        if flipped[j] == example.reference_label:
            problems.append(f"{tag}: adversarial keeps label {flipped[j]} (no flip)")
        elif flipped[j] != example.adversarial_label:
            problems.append(
                f"{tag}: model predicts {flipped[j]} on the adversarial, "
                f"not the reported {example.adversarial_label}"
            )
    return problems + check_budget(examples)


def check_cross_model(target: Any, examples: Sequence[Any]) -> list[str]:
    """Every example splits *target*'s members within budget."""
    if not examples:
        return []
    votes = target.predict(np.stack([e.original for e in examples]))
    reference = majority_vote(votes, target.n_classes)
    labels = target.predict(np.stack([e.adversarial for e in examples]))
    problems = []
    for j, example in enumerate(examples):
        tag = f"{example.strategy}#{j}"
        column = labels[:, j]
        if reference[j] != example.reference_label:
            problems.append(
                f"{tag}: majority vote {reference[j]} on the original is not "
                f"the reference label {example.reference_label}"
            )
        if (column == column[0]).all():
            problems.append(f"{tag}: all members agree on {column[0]} (no split)")
        left = tuple(int(m) for m in np.nonzero(column != example.reference_label)[0])
        if left != tuple(example.disagreed_members or ()):
            problems.append(
                f"{tag}: members {left} left the reference, example reports "
                f"{example.disagreed_members}"
            )
    return problems + check_budget(examples)


def outcome_digest(outcomes: Iterable[tuple]) -> str:
    """sha256 over per-input ``(success, iterations, reference_label)`` rows."""
    rows = [[bool(s), int(i), int(r)] for s, i, r in outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

#!/usr/bin/env python
"""Cross-model differential fuzzing — the HDXplore workflow on HDTest.

The paper's oracle compares one model against itself before/after
mutation.  The stronger form runs K independently-seeded HDC models on
the same input and hunts inputs they *disagree* on:

1. Train a base model, then spawn an ensemble of K architecture-matched
   members with fresh item memories (``ModelEnsembleTarget.trained_like``).
2. Fuzz the ensemble with the lock-step batched executor: the
   ``CrossModelOracle`` flags any pairwise member disagreement —
   including *seed discrepancies*, inputs the members already split on
   before any mutation — and the ``AgreementMarginFitness`` steers
   mutation toward children that split the ensemble's vote.
3. Debug: retrain every member on the discrepancies (majority-vote
   labels) with ``debug_ensemble`` and measure how many *held-out*
   disagreements the hardened ensemble resolves.

Run:  python examples/ensemble_fuzzing.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BatchedExecutor,
    HDCClassifier,
    HDTestConfig,
    ModelEnsembleTarget,
    PixelEncoder,
    debug_ensemble,
    load_digits,
)

SEED = 5
DIMENSION = 2048
K_MEMBERS = 3
N_FUZZ = 60
N_HOLDOUT = 120


def main() -> None:
    train, test = load_digits(n_train=1200, n_test=N_FUZZ + N_HOLDOUT, seed=SEED)
    base = HDCClassifier(PixelEncoder(dimension=DIMENSION, rng=SEED), 10)
    base.fit(train.images, train.labels)

    print(f"(1) spawning a {K_MEMBERS}-member ensemble "
          f"(independently-seeded item memories)…")
    ensemble = ModelEnsembleTarget.trained_like(
        base, K_MEMBERS, train.images, train.labels, rng=SEED + 1
    )
    images = test.images.astype(np.float64)
    fuzz_pool, holdout = images[:N_FUZZ], images[N_FUZZ:]
    print(f"    members agree on {ensemble.agreement(holdout) * 100:.1f}% "
          "of held-out inputs before debugging")

    print(f"\n(2) fuzzing {N_FUZZ} inputs for cross-model discrepancies…")
    result = BatchedExecutor().run(
        ensemble, "gauss", list(fuzz_pool), config=HDTestConfig(iter_times=30),
        rng=SEED,
    )
    seed_splits = result.seed_discrepancies
    print(f"    {result.n_success}/{result.n_inputs} inputs produced a "
          f"discrepancy ({len(seed_splits)} before any mutation)")
    for example in result.examples[:3]:
        kind = "seed" if example.iterations == 0 else f"iter {example.iterations}"
        print(f"    [{kind}] majority says {example.reference_label}, "
              f"members {example.disagreed_members} answer "
              f"{example.adversarial_label}")

    print("\n(3) debugging: retraining members on the discrepancies…")
    report, hardened = debug_ensemble(
        ensemble,
        list(fuzz_pool),
        list(holdout),
        config=HDTestConfig(iter_times=20),
        rng=SEED,
        clean_inputs=test.images,
        clean_labels=test.labels,
    )
    print(f"    fed back {report.n_discrepancies} discrepancies over "
          f"{report.rounds_run} rounds {report.per_round}")
    print(f"    held-out agreement: {report.agreement_before * 100:.1f}% -> "
          f"{report.agreement_after * 100:.1f}%")
    print(f"    of {report.n_holdout_disagreements} held-out inputs the "
          f"original members split on, {report.resolved_rate * 100:.1f}% "
          "now agree")
    print(f"    majority-vote clean accuracy: "
          f"{report.clean_accuracy_before:.3f} -> "
          f"{report.clean_accuracy_after:.3f}")


if __name__ == "__main__":
    main()

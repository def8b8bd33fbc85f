"""Every fitness reads the similarity block the target computed, on every family.

Alg. 1's fitness ``1 − Cosim(AM[y], HDC(seed))`` is column ``y`` of the
associative-memory query that predicts each child, so the engines score
children from the :class:`~repro.fuzz.targets.TargetPredictions` of
that query instead of a second pass.  Each system under test below —
dense and packed models of the bipolar and binary families, and K = 3
independent and shared-codebook ensembles — runs one campaign on the
serial, batched and 2-worker process schedules, and:

* every score the engine ranked equals a test-side reference computed
  from the children's *unpacked* hypervectors: ``1 − cosine`` with
  ``AM[y]`` in float64 for the bipolar families, bit for bit; for the
  binary families the normalised Hamming distance to ``AM[y]`` (their
  memory's similarity is ``1 −`` that), in the same float operations;
  for ensembles, the vote-margin fitness over K separate
  ``similarities`` calls;
* every ensemble query equals K separate ``similarities`` calls, bit
  for bit (the shared-codebook target answers its K memories in one
  stacked popcount pass);
* outcomes are the same on every schedule, and a packed model's equal
  its dense twin's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import (
    AgreementMarginFitness,
    HDTest,
    HDTestConfig,
    ModelEnsembleTarget,
    SharedCodebookEnsembleTarget,
    TargetPredictions,
    create_executor,
)
from repro.fuzz.seeds import SeedPoolBatch
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarHDCClassifier,
)
from repro.hdc.similarity import cosine_matrix

CFG = HDTestConfig(iter_times=6)
SEED = 13
#: Test images 4 to 9: every system scores children of some of them (the
#: shared ensemble already splits on images 0 to 3).
INPUTS = slice(4, 10)
SCHEDULES = ["serial", "batched", "process"]
KINDS = [
    "bipolar-dense",
    "bipolar-packed",
    "binary-dense",
    "binary-packed",
    "ensemble-independent",
    "ensemble-shared",
]


@pytest.fixture(scope="module")
def systems(trained_model, digit_data):
    """``kind → (system under test, its dense twin)``."""
    train, _ = digit_data
    images, labels = train.images[:200], train.labels[:200]
    binary = BinaryHDCClassifier(BinaryPixelEncoder(dimension=1024, rng=5), 10)
    binary.fit(images, labels)
    independent = ModelEnsembleTarget.trained_like(trained_model, 3, images, labels, rng=5)
    shared = SharedCodebookEnsembleTarget.trained_shared(
        trained_model, 3, images, labels, rng=11
    )
    return {
        "bipolar-dense": (trained_model, trained_model),
        "bipolar-packed": (PackedBipolarHDCClassifier.from_dense(trained_model), trained_model),
        "binary-dense": (binary, binary),
        "binary-packed": (PackedBinaryHDCClassifier.from_binary(binary), binary),
        "ensemble-independent": (independent, independent),
        "ensemble-shared": (shared, shared),
    }


def _outcomes(target, schedule, inputs):
    params = {"n_workers": 2, "batch_size": 3} if schedule == "process" else {}
    with create_executor(schedule, **params) as executor:
        result = executor.run(target, "rand", inputs, config=CFG, rng=SEED)
    return [
        (
            o.success, o.iterations, o.reference_label,
            None if o.example is None
            else (o.example.adversarial_label, o.example.adversarial.tobytes()),
        )
        for o in result.outcomes
    ]


def _reference_scores(kind, twin, reference, children):
    """What the fitness must score *children*, from their unpacked HVs."""
    if kind.startswith("ensemble"):
        sims = np.stack([
            m.associative_memory.similarities(m.encode_batch(children))
            for m in twin.members
        ])
        predictions = TargetPredictions(sims.argmax(axis=2), sims)
        return AgreementMarginFitness().scores(reference, predictions)
    hvs = twin.encode_batch(children)
    class_hv = twin.associative_memory.class_hvs[reference.label]
    if kind.startswith("bipolar"):
        cosine = cosine_matrix(hvs.astype(np.float64), class_hv.astype(np.float64)[None])
        return 1.0 - cosine[:, 0]
    hamming = np.count_nonzero(hvs != class_hv, axis=1) / float(hvs.shape[1])
    return 1.0 - (1.0 - hamming)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kind", KINDS)
def test_fitness_scores_the_query_block(systems, test_images, monkeypatch, kind, schedule):
    target, twin = systems[kind]
    inputs = list(test_images[INPUTS])
    references, updates, queries = [], [], []
    score_children = HDTest._score_children
    update = SeedPoolBatch.update
    predict_hvs = type(target).predict_hvs if kind.startswith("ensemble") else None

    def scored(self, ref, predictions, generator):
        references.append(ref)
        return score_children(self, ref, predictions, generator)

    def updated(self, index, children, scores, **kwargs):
        updates.append((children.copy(), np.array(scores)))
        return update(self, index, children, scores, **kwargs)

    def predicted(self, bundle):
        predictions = predict_hvs(self, bundle)
        queries.append((bundle, predictions))
        return predictions

    monkeypatch.setattr(HDTest, "_score_children", scored)
    monkeypatch.setattr(SeedPoolBatch, "update", updated)
    if predict_hvs is not None:
        monkeypatch.setattr(type(target), "predict_hvs", predicted)
    outcomes = _outcomes(target, schedule, inputs)
    monkeypatch.undo()

    if schedule != "process":  # the pool's workers score out of sight
        assert len(references) == len(updates) > 0
        for reference, (children, scores) in zip(references, updates):
            np.testing.assert_array_equal(
                scores, _reference_scores(kind, twin, reference, children)
            )
        for bundle, predictions in queries:
            blocks = bundle * target.n_members if len(bundle) == 1 else bundle
            separate = np.stack([
                m.associative_memory.similarities(block)
                for m, block in zip(target.members, blocks)
            ])
            np.testing.assert_array_equal(predictions.similarities, separate)
        if predict_hvs is not None:
            assert queries
    assert outcomes == _outcomes(twin, "serial", inputs)


def test_binary_score_is_the_normalised_hamming_distance(systems, rng):
    """The binary families' distance-guided score, in plain numbers."""
    from repro.fuzz import DistanceGuidedFitness, SingleModelTarget
    from repro.fuzz.targets import TargetReference

    binary, _ = systems["binary-dense"]
    bits = rng.integers(0, 2, size=(8, binary.dimension)).astype(np.int8)
    predictions = SingleModelTarget(binary).predict_hvs((bits,))
    scores = DistanceGuidedFitness().scores(TargetReference(3, np.array([3])), predictions)
    class_hv = binary.associative_memory.class_hvs[3]
    np.testing.assert_allclose(
        scores, np.count_nonzero(bits != class_hv, axis=1) / binary.dimension,
        rtol=0, atol=1e-15,
    )

"""Encoding an iteration's children nearest first changes no outcome.

The engine encodes each iteration in stages (:mod:`repro.fuzz.predictor`):
an input's nearest children whose changed entries reach
``_blocked.SPLIT_ENTRIES``, then twice as many, then the rest, and it
retires an input at the first stage that flips, with that stage's
nearest flipped child.  Forcing the threshold to 0 makes the first
stage one child and stages every delta-encoded input; forcing it past
any plan's entries encodes every child of an iteration at once.  Each
campaign below runs as shipped and under both forcings, and must give
identical outcomes, examples, survivor selections and generator states.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_language_dataset
from repro.fuzz import (
    CrossModelOracle,
    HDTest,
    HDTestConfig,
    MajorityOracle,
    ModelEnsembleTarget,
    ProcessExecutor,
    SharedCodebookEnsembleTarget,
)
from repro.fuzz.constraints import NullConstraint
from repro.fuzz.predictor import LocalPredictor
from repro.fuzz.seeds import SeedPoolBatch
from repro.fuzz.targets import _SingleDeltaSurface
from repro.hdc import HDCClassifier, NgramEncoder
from repro.hdc.backends.dispatch import resolve_model_backend
from repro.hdc.binary_model import BinaryHDCClassifier, BinaryPixelEncoder
from repro.hdc.encoders import _blocked
from repro.obs import CampaignTelemetry
from repro.utils.rng import spawn

#: First-stage thresholds: as shipped, one child, the whole plan.
FIRST_STAGE = {"shipped": None, "one-child": 0, "whole-plan": 1 << 62}
SEED = 21
N_INPUTS = 6
N_TEXTS = 12


@pytest.fixture(scope="module")
def targets(trained_model, digit_data, test_images):
    """Every system under test: ``(model, inputs, constraint)``."""
    train, _ = digit_data
    images, labels = train.images[:200], train.labels[:200]
    binary = BinaryHDCClassifier(BinaryPixelEncoder(dimension=1024, rng=5), 10)
    binary.fit(images, labels)
    texts = make_language_dataset(n_per_class=24, n_languages=3, length=48, seed=11)
    train_texts, test_texts = texts.split(0.8, rng=0)
    text_model = HDCClassifier(NgramEncoder(n=3, dimension=1024, rng=11), 3)
    text_model.fit(list(train_texts.texts), train_texts.labels)
    strings = list(test_texts.texts[:N_TEXTS])
    digits = list(test_images[:N_INPUTS])
    return {
        "dense": (trained_model, digits, None),
        "packed-bipolar": (
            resolve_model_backend(trained_model, "packed-bipolar"), digits, None
        ),
        "binary": (binary, digits, None),
        "text": (text_model, strings, None),
        # Unbudgeted text: every child's size is 0, so every rank is a tie.
        "text-unbudgeted": (text_model, strings, NullConstraint()),
        "independent": (
            ModelEnsembleTarget.trained_like(trained_model, 3, images, labels, rng=5),
            digits,
            None,
        ),
        "shared": (
            SharedCodebookEnsembleTarget.trained_shared(
                trained_model, 3, images, labels, rng=11
            ),
            digits,
            None,
        ),
    }


#: ``(target, strategy, oracle, guided, schedule)``: every model family
#: with gauss, rand and shift, text's tying edit counts (and all-tied
#: sizes without a budget), K = 3 ensembles of both kinds under both
#: oracles, guided and unguided survival, and all three schedules.
CASES = [
    ("dense", "gauss", None, True, "serial"),
    ("dense", "gauss", None, False, "batched"),
    ("dense", "rand", None, True, "batched"),
    ("dense", "shift", None, True, "serial"),
    ("dense", "shift", None, False, "process"),
    ("packed-bipolar", "gauss", None, True, "process"),
    ("packed-bipolar", "rand", None, False, "serial"),
    ("packed-bipolar", "shift", None, True, "batched"),
    ("binary", "gauss", None, False, "serial"),
    ("binary", "rand", None, True, "process"),
    ("binary", "shift", None, True, "batched"),
    ("text", "char_sub", None, True, "batched"),
    ("text", "char_sub", None, False, "serial"),
    ("text", "char_sub", None, True, "process"),
    ("text-unbudgeted", "char_sub", None, True, "serial"),
    ("text-unbudgeted", "char_sub", None, False, "batched"),
    ("independent", "gauss", "cross", True, "batched"),
    ("independent", "gauss", "majority", False, "serial"),
    ("independent", "rand", "cross", True, "process"),
    ("shared", "gauss", "cross", False, "batched"),
    ("shared", "gauss", "majority", True, "serial"),
    ("shared", "shift", "majority", True, "process"),
]
ORACLES = {
    "cross": lambda target: CrossModelOracle(),
    "majority": lambda target: MajorityOracle(target.n_classes),
}


def _outcome_key(outcome):
    example = outcome.example
    if example is None:
        return (outcome.success, outcome.iterations, outcome.reference_label)
    adversarial = example.adversarial
    return (
        outcome.success,
        outcome.iterations,
        outcome.reference_label,
        example.adversarial_label,
        example.disagreed_members,
        tuple(sorted(example.metrics.items())),
        adversarial
        if isinstance(adversarial, str)
        else np.asarray(adversarial).tobytes(),
    )


def _campaign(target, inputs, constraint, strategy, oracle, guided, schedule):
    """Outcome keys, final generator states and counters of one run.

    A process pool's generators live in its workers, so its states are
    ``None``.
    """
    config = HDTestConfig(iter_times=8, guided=guided)
    oracle = None if oracle is None else ORACLES[oracle](target)
    telemetry = CampaignTelemetry()
    if schedule == "process":
        executor = ProcessExecutor(n_workers=2, batch_size=3)
        try:
            result = executor.run(
                target, strategy, inputs, config=config, constraint=constraint,
                oracle=oracle, rng=SEED, telemetry=telemetry,
            )
        finally:
            executor.close()
        outcomes, counters = result.outcomes, result.telemetry["counters"]
        return [_outcome_key(o) for o in outcomes], None, counters
    engine = HDTest(
        target, strategy, config=config, constraint=constraint, oracle=oracle,
        telemetry=telemetry,
    )
    generators = spawn(SEED, len(inputs))
    if schedule == "serial":
        outcomes = [engine.fuzz_one(x, rng=g) for x, g in zip(inputs, generators)]
    else:
        outcomes = engine.fuzz_outcomes(inputs, generators=generators)
    states = [g.bit_generator.state for g in generators]
    return [_outcome_key(o) for o in outcomes], states, telemetry.counters


@pytest.mark.parametrize(
    "name, strategy, oracle, guided, schedule",
    CASES,
    ids=[f"{t}-{s}-{o or 'self'}-{'guided' if g else 'unguided'}-{x}"
         for t, s, o, g, x in CASES],
)
def test_staging_never_changes_a_campaign(
    targets, monkeypatch, name, strategy, oracle, guided, schedule
):
    target, inputs, constraint = targets[name]
    runs = {}
    for variant, threshold in FIRST_STAGE.items():
        # Survivor selections of in-process runs (a pool's stay in its workers).
        selections = []
        update = SeedPoolBatch.update

        def recording_update(pool, i, children, scores):
            order = update(pool, i, children, scores)
            selections.append((i, np.asarray(children)[order].tobytes(),
                               np.asarray(scores)[order].tobytes()))
            return order

        with monkeypatch.context() as patch:
            patch.setattr(SeedPoolBatch, "update", recording_update)
            if threshold is not None:
                patch.setattr(_blocked, "SPLIT_ENTRIES", threshold)
            outcomes, states, counters = _campaign(
                target, inputs, constraint, strategy, oracle, guided, schedule
            )
        runs[variant] = (outcomes, selections, states, counters)

    shipped = runs["shipped"]
    for variant in ("one-child", "whole-plan"):
        outcomes, selections, states, _ = runs[variant]
        assert outcomes == shipped[0]  # outcomes, examples, labels
        assert selections == shipped[1]  # every survivor selection
        assert states == shipped[2]  # final generator states
    # Requests (the adaptive bandit's cost basis) and dedupe hits never
    # depend on staging; a whole-plan iteration never skips, and a
    # one-child first stage skips whenever a mutated child retires.
    counts = [runs[v][3] for v in FIRST_STAGE]
    requests = {c["encode_requests"] for c in counts}
    hits = {
        c["encode_requests"] - c.get("encoded_children", 0)
        - c.get("children_skipped", 0)
        for c in counts
    }
    assert len(requests) == 1 and len(hits) == 1 and min(hits) >= 0
    assert runs["whole-plan"][3].get("children_skipped", 0) == 0
    if any(key[0] and key[1] > 0 for key in shipped[0]):
        assert runs["one-child"][3].get("children_skipped", 0) > 0


def test_stages_rank_children_by_size_then_index(
    trained_model, test_images, monkeypatch
):
    """Nearest first, ties to the lower child: 1, then 2, then the rest."""
    monkeypatch.setattr(_blocked, "SPLIT_ENTRIES", 0)  # a one-child first stage
    sizes = np.tile([1.0, 0.0], 12)  # every size ties with eleven others
    predictor = HDTest(trained_model, "gauss")._predictor()
    predictor._sizes = lambda original, children: sizes
    predictor.seed(test_images[:1])
    children = test_images[1:25]
    block = predictor.predict([(0, children, np.zeros(24, dtype=np.int64))])
    stages = [rows.tolist() for stage in block.stages() for _, rows in stage]
    ranked = list(range(1, 24, 2)) + list(range(0, 24, 2))
    assert stages == [ranked[:1], sorted(ranked[1:3]), sorted(ranked[3:])]


def test_a_cached_childs_later_repeat_is_not_encoded(
    trained_model, test_images, monkeypatch
):
    """A cache hit written into the block in one stage serves its repeat later."""
    monkeypatch.setattr(_blocked, "SPLIT_ENTRIES", 0)  # a one-child first stage
    obs = CampaignTelemetry()
    predictor = HDTest(trained_model, "gauss", telemetry=obs)._predictor()
    predictor.seed(test_images[:1])
    block = predictor.predict([(0, test_images[1:2], np.zeros(1, dtype=np.int64))])
    for _ in block.stages():
        pass
    predictor.commit([])  # child A is cached now
    # A (a hit, nearest), B, A again (a repeat, ranked second), C, D.
    children = test_images[[1, 2, 1, 3, 4]]
    predictor._sizes = lambda original, c: np.array([0.0, 3.0, 0.0, 4.0, 5.0])
    block = predictor.predict([(0, children, np.zeros(5, dtype=np.int64))])
    stages = [rows.tolist() for stage in block.stages() for _, rows in stage]
    assert stages == [[0], [1, 2], [3, 4]]
    assert obs.counters["encoded_children"] == 1 + 3  # A once, then B, C and D
    assert obs.counters["children_skipped"] == 0
    # The seed, A, then A (hit), B, C and D: the repeat copies A's row.
    assert obs.counters["am_queries"] == 1 + 1 + 4
    hvs = trained_model.encode_batch(children)
    accs, _ = block.side_data(0)
    np.testing.assert_array_equal(trained_model.encoder.hvs_from_accumulators(accs), hvs)
    np.testing.assert_array_equal(
        block.similarities[0], trained_model.associative_memory.similarities(hvs)
    )


class TestStageCalls:
    """How many kernel calls an iteration makes, as shipped."""

    @staticmethod
    def _calls(model, strategy, inputs, monkeypatch):
        """Rows per ``accumulate_delta`` call and children per iteration."""
        calls, iterations = [], []
        delta = _SingleDeltaSurface.accumulate_delta
        predict = LocalPredictor.predict

        def counting_delta(surface, *args):
            calls.append(len(args[0]))
            return delta(surface, *args)

        def counting_predict(predictor, plans, *args):
            iterations.append(sum(len(children) for _, children, _ in plans))
            return predict(predictor, plans, *args)

        monkeypatch.setattr(_SingleDeltaSurface, "accumulate_delta", counting_delta)
        monkeypatch.setattr(LocalPredictor, "predict", counting_predict)
        HDTest(model, strategy, config=HDTestConfig(iter_times=8), rng=SEED).fuzz(
            inputs
        )
        return calls, iterations

    def test_rand_iteration_is_one_call(self, trained_model, test_images, monkeypatch):
        # rand changes a handful of levels per child, far below the
        # two-core split, so its iterations never stage.
        calls, iterations = self._calls(
            trained_model, "rand", list(test_images[:4]), monkeypatch
        )
        assert iterations and len(calls) == len(iterations)

    def test_gauss_iterations_stage(self, trained_model, test_images, monkeypatch):
        # gauss children change hundreds of levels each: iterations run
        # in stages, and retiring ones leave children unencoded.
        calls, iterations = self._calls(
            trained_model, "gauss", list(test_images[:4]), monkeypatch
        )
        assert sum(calls) < sum(iterations)


def test_shift_queries_each_distinct_row_once(trained_model, test_images, monkeypatch):
    """``am_queries`` counts each stage's distinct new rows; repeats get copies.

    Every row of every stage still carries the labels and similarities a
    query of its own child gives, and every cached accumulator is its
    child's scratch one, so outcomes, survivors and caches are those of
    querying every row.
    """
    from repro.fuzz.predictor import ChildBlock
    from repro.hdc.associative_memory import AssociativeMemory

    memory, encoder = trained_model.associative_memory, trained_model.encoder
    real_similarities = AssociativeMemory.similarities
    queried = []

    def similarities(self, queries):
        queried.append(np.atleast_2d(queries).shape[0])
        return real_similarities(self, queries)

    real_run, real_store = ChildBlock._run, ChildBlock.store
    repeats = 0

    def run(self, rows):
        nonlocal repeats
        before = sum(queried)
        real_run(self, rows)
        plans = np.searchsorted(self.bounds, rows, side="right") - 1
        keys = {(int(p), self._keys[r]) for p, r in zip(plans, rows.tolist())}
        seen = self.__dict__.setdefault("reached_keys", set())
        assert sum(queried) - before == len(keys - seen)  # each distinct row once
        repeats += len(rows) - len(keys - seen)
        seen |= keys
        hvs = encoder.encode_batch(self._children[rows])
        want = real_similarities(memory, hvs)
        np.testing.assert_array_equal(self.similarities[0, rows], want)
        np.testing.assert_array_equal(self.labels[0, rows], want.argmax(axis=1))

    def store(self):
        for plan_misses in self._misses:
            for r in plan_misses:
                if self._ready[r]:
                    np.testing.assert_array_equal(
                        self._accs[r], encoder.accumulate_batch(self._children[r : r + 1])[0]
                    )
        real_store(self)

    monkeypatch.setattr(AssociativeMemory, "similarities", similarities)
    monkeypatch.setattr(ChildBlock, "_run", run)
    monkeypatch.setattr(ChildBlock, "store", store)
    obs = CampaignTelemetry()
    engine = HDTest(trained_model, "shift", config=HDTestConfig(iter_times=6), telemetry=obs)
    engine.fuzz(list(test_images[:N_INPUTS]), rng=SEED)
    assert obs.counters["am_queries"] == sum(queried)
    assert repeats > 0  # shift repeats children within an iteration

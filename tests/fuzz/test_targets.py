"""Prediction targets: single-model bit-identity and K-model lock-step.

Two claims pinned here:

* wrapping a model in :class:`SingleModelTarget` (what the engines do
  internally) changes nothing — outcomes are bit-identical to handing
  the engines the bare model, guided and unguided, sequential and
  batched;
* a :class:`ModelEnsembleTarget` runs the same Alg. 1 loop lock-step
  over K members with identical outcomes across every schedule
  (sequential == batched == BatchedExecutor == ProcessExecutor) and
  encode path (delta == scratch), under the shared RNG discipline.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.fuzz import (
    AgreementMarginFitness,
    BatchedExecutor,
    BatchedHDTest,
    CrossModelOracle,
    DistanceGuidedFitness,
    HDTest,
    HDTestConfig,
    MajorityOracle,
    ModelEnsembleTarget,
    ProcessExecutor,
    RandomFitness,
    SingleModelTarget,
    TargetPredictions,
    majority_vote,
    vote_counts,
)
from repro.fuzz.targets import TargetReference, clone_architecture
from repro.hdc import HDCClassifier, PixelEncoder

CFG = HDTestConfig(iter_times=8)
ENSEMBLE_DIM = 512


def outcome_key(outcome):
    key = (outcome.success, outcome.iterations, outcome.reference_label)
    if outcome.example is None:
        return key
    example = outcome.example
    return key + (
        example.adversarial_label,
        example.disagreed_members,
        np.asarray(example.adversarial).tobytes(),
    )


@pytest.fixture(scope="module")
def ensemble(digit_data):
    train, _ = digit_data
    members = [
        HDCClassifier(PixelEncoder(dimension=ENSEMBLE_DIM, rng=seed), 10).fit(
            train.images, train.labels
        )
        for seed in (3, 4, 5)
    ]
    return ModelEnsembleTarget(*members)


# -- single-model bit-identity ----------------------------------------------
class TestSingleModelTarget:
    def test_wrapping_is_bit_identical_sequential(self, trained_model, test_images):
        images = test_images[:4]
        bare = [
            HDTest(trained_model, "gauss", config=CFG).fuzz_one(x, rng=7)
            for x in images
        ]
        wrapped = [
            HDTest(SingleModelTarget(trained_model), "gauss", config=CFG).fuzz_one(
                x, rng=7
            )
            for x in images
        ]
        assert [outcome_key(o) for o in bare] == [outcome_key(o) for o in wrapped]

    def test_wrapping_is_bit_identical_batched(self, trained_model, test_images):
        images = list(test_images[:5])
        bare = BatchedHDTest(trained_model, "gauss", config=CFG).fuzz_outcomes(
            images, rng=11
        )
        wrapped = BatchedHDTest(
            SingleModelTarget(trained_model), "gauss", config=CFG
        ).fuzz_outcomes(images, rng=11)
        assert [outcome_key(o) for o in bare] == [outcome_key(o) for o in wrapped]

    def test_single_examples_have_no_member_bookkeeping(
        self, trained_model, test_images
    ):
        result = BatchedHDTest(trained_model, "gauss", config=CFG).fuzz(
            list(test_images[:6]), rng=0
        )
        assert result.n_members == 1
        for example in result.examples:
            assert example.disagreed_members is None

    def test_untrained_member_rejected(self):
        model = HDCClassifier(PixelEncoder(dimension=64, rng=0), 10)
        with pytest.raises(NotTrainedError):
            SingleModelTarget(model)

    def test_greybox_api_enforced(self):
        with pytest.raises(ConfigurationError, match="grey-box fuzzing API"):
            SingleModelTarget(object())

    def test_model_without_a_memory_rejected_at_construction(self, trained_model):
        """The targets query the memory, so its absence fails before any fuzzing."""

        class NoMemory:
            encoder = trained_model.encoder
            n_classes = trained_model.n_classes
            dimension = trained_model.dimension
            is_trained = True
            encode = staticmethod(trained_model.encode)
            encode_batch = staticmethod(trained_model.encode_batch)
            predict_hv = staticmethod(trained_model.predict_hv)

        with pytest.raises(ConfigurationError, match="associative_memory.similarities"):
            HDTest(NoMemory(), "gauss")

    def test_ensemble_oracle_rejected_for_single_model(
        self, trained_model
    ):
        with pytest.raises(ConfigurationError, match="ModelEnsembleTarget"):
            HDTest(trained_model, "gauss", oracle=CrossModelOracle())


# -- ensemble construction ---------------------------------------------------
class TestEnsembleConstruction:
    def test_requires_two_members(self, trained_model):
        with pytest.raises(ConfigurationError, match="at least 2"):
            ModelEnsembleTarget(trained_model)

    def test_accepts_member_list(self, ensemble):
        rebuilt = ModelEnsembleTarget(list(ensemble.members))
        assert rebuilt.n_members == 3

    def test_n_classes_must_agree(self, digit_data):
        train, _ = digit_data
        a = HDCClassifier(PixelEncoder(dimension=128, rng=0), 10).fit(
            train.images, train.labels
        )
        b = HDCClassifier(PixelEncoder(dimension=128, rng=1), 5).fit(
            train.images, np.asarray(train.labels) % 5
        )
        with pytest.raises(ConfigurationError, match="n_classes"):
            ModelEnsembleTarget(a, b)

    def test_trained_like_spawns_distinct_members(self, trained_model, digit_data):
        train, _ = digit_data
        target = ModelEnsembleTarget.trained_like(
            trained_model, 3, train.images[:100], train.labels[:100], rng=0
        )
        assert target.n_members == 3
        assert target.primary is trained_model
        first = target.members[1].encoder.position_memory.vectors
        second = target.members[2].encoder.position_memory.vectors
        assert not np.array_equal(first, second)  # independently spawned

    def test_trained_like_rng_reproducible(self, trained_model, digit_data):
        train, _ = digit_data
        one = ModelEnsembleTarget.trained_like(
            trained_model, 2, train.images[:50], train.labels[:50], rng=9
        )
        two = ModelEnsembleTarget.trained_like(
            trained_model, 2, train.images[:50], train.labels[:50], rng=9
        )
        np.testing.assert_array_equal(
            one.members[1].encoder.position_memory.vectors,
            two.members[1].encoder.position_memory.vectors,
        )

    def test_clone_architecture_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot clone"):
            clone_architecture(object(), rng=0)

    @pytest.mark.parametrize("bipolar_am", [True, False])
    def test_clone_preserves_am_semantics_across_encoders(self, bipolar_am):
        from repro.hdc import NgramEncoder, PermutationImageEncoder, RecordEncoder

        for encoder in (
            PixelEncoder(shape=(4, 4), dimension=64, rng=0),
            NgramEncoder(2, dimension=64, rng=0),
            RecordEncoder(5, dimension=64, rng=0),
            PermutationImageEncoder(shape=(4, 4), levels=16, dimension=64, rng=0),
        ):
            base = HDCClassifier(encoder, 3, bipolar_am=bipolar_am)
            clone = clone_architecture(base, rng=1)
            assert clone.associative_memory.bipolar == bipolar_am

    def test_copy_is_independent(self, ensemble, digit_data):
        train, _ = digit_data
        clone = ensemble.copy()
        clone.members[0].retrain(train.images[:20], train.labels[:20])
        # The original's member is untouched (copy() cloned the AMs).
        assert not np.array_equal(
            clone.members[0].associative_memory.counts,
            ensemble.members[0].associative_memory.counts,
        )

    def test_training_counts_tracks_members(self, ensemble, digit_data):
        train, _ = digit_data
        before = ensemble.training_counts()
        clone = ensemble.copy()
        clone.members[1].retrain(train.images[:10], train.labels[:10], mode="additive")
        assert clone.training_counts() != before


# -- lock-step schedule equivalence -----------------------------------------
class TestEnsembleEquivalence:
    @pytest.mark.parametrize("guided", [True, False])
    def test_sequential_matches_batched(self, ensemble, test_images, guided):
        from repro.utils.rng import spawn

        images = list(test_images[:6])
        cfg = HDTestConfig(iter_times=8, guided=guided)
        sequential = [
            HDTest(ensemble, "gauss", config=cfg).fuzz_one(x, rng=g)
            for x, g in zip(images, spawn(13, len(images)))
        ]
        batched = BatchedHDTest(ensemble, "gauss", config=cfg).fuzz_outcomes(
            images, generators=spawn(13, len(images))
        )
        assert [outcome_key(o) for o in sequential] == [
            outcome_key(o) for o in batched
        ]

    def test_delta_matches_scratch(self, ensemble, test_images):
        from repro.utils.rng import spawn

        images = list(test_images[:5])
        delta = BatchedHDTest(ensemble, "gauss", config=CFG).fuzz_outcomes(
            images, generators=spawn(3, len(images))
        )
        scratch_engine = BatchedHDTest(ensemble, "gauss", config=CFG)
        scratch_engine._delta_encoder = lambda: None  # noqa: SLF001 - test hook
        scratch = scratch_engine.fuzz_outcomes(images, generators=spawn(3, len(images)))
        assert [outcome_key(o) for o in delta] == [outcome_key(o) for o in scratch]

    def test_executors_agree(self, ensemble, test_images):
        images = list(test_images[:4])
        batched = BatchedExecutor(batch_size=2).run(
            ensemble, "gauss", images, config=CFG, rng=21
        )
        with ProcessExecutor(n_workers=2, batch_size=2) as process:
            pooled = process.run(ensemble, "gauss", images, config=CFG, rng=21)
        assert [outcome_key(o) for o in batched.outcomes] == [
            outcome_key(o) for o in pooled.outcomes
        ]
        assert batched.n_members == pooled.n_members == 3

    def test_majority_oracle_runs_everywhere(self, ensemble, test_images):
        from repro.utils.rng import spawn

        images = list(test_images[:4])
        oracle = MajorityOracle(10)
        sequential = [
            HDTest(ensemble, "gauss", config=CFG, oracle=oracle).fuzz_one(x, rng=g)
            for x, g in zip(images, spawn(2, len(images)))
        ]
        batched = BatchedHDTest(
            ensemble, "gauss", config=CFG, oracle=oracle
        ).fuzz_outcomes(images, generators=spawn(2, len(images)))
        assert [outcome_key(o) for o in sequential] == [
            outcome_key(o) for o in batched
        ]


# -- cross-model semantics ---------------------------------------------------
class TestEnsembleSemantics:
    def test_seed_discrepancies_are_iteration_zero(self, ensemble, test_images):
        result = BatchedHDTest(ensemble, "gauss", config=CFG).fuzz(
            list(test_images[:20]), rng=1
        )
        votes = ensemble.predict(list(test_images[:20]))
        naturally_split = (~(votes == votes[0]).all(axis=0)).sum()
        seeds = result.seed_discrepancies
        assert len(seeds) == naturally_split
        for example in seeds:
            assert example.iterations == 0
            np.testing.assert_array_equal(
                np.asarray(example.original), np.asarray(example.adversarial)
            )
            assert example.disagreed_members is not None

    def test_disagreed_members_point_at_dissenters(self, ensemble, test_images):
        result = BatchedHDTest(ensemble, "gauss", config=CFG).fuzz(
            list(test_images[:12]), rng=5
        )
        checked = 0
        for example in result.examples:
            labels = ensemble.predict([np.asarray(example.adversarial)])[:, 0]
            expected = tuple(
                int(m) for m in np.nonzero(labels != example.reference_label)[0]
            )
            assert example.disagreed_members == expected
            assert example.adversarial_label != example.reference_label
            checked += 1
        assert checked > 0

    def test_identical_members_never_disagree(self, trained_model, test_images):
        target = ModelEnsembleTarget(trained_model, trained_model.copy())
        result = BatchedHDTest(target, "gauss", config=CFG).fuzz(
            list(test_images[:5]), rng=0
        )
        assert result.n_success == 0  # cross-model oracle is blind to clones

    def test_mixed_family_ensemble_fuzzes(self, ensemble, test_images):
        from repro.hdc.backends.bipolar import PackedBipolarHDCClassifier

        packed_member = PackedBipolarHDCClassifier.from_dense(ensemble.members[1])
        mixed = ModelEnsembleTarget(ensemble.members[0], packed_member)
        result = BatchedHDTest(mixed, "gauss", config=CFG).fuzz(
            list(test_images[:6]), rng=2
        )
        assert result.n_inputs == 6 and result.n_members == 2
        # Packing is exact, so the packed member votes exactly like its
        # dense source: outcomes match the dense-dense pairing.
        dense = ModelEnsembleTarget(ensemble.members[0], ensemble.members[1])
        dense_result = BatchedHDTest(dense, "gauss", config=CFG).fuzz(
            list(test_images[:6]), rng=2
        )
        assert [outcome_key(o) for o in result.outcomes] == [
            outcome_key(o) for o in dense_result.outcomes
        ]

    def test_with_backend_repackages_members(self, ensemble):
        from repro.hdc.backends.bipolar import PackedBipolarHDCClassifier

        packed = ensemble.with_backend("packed-bipolar")
        assert packed.n_members == ensemble.n_members
        assert all(isinstance(m, PackedBipolarHDCClassifier) for m in packed.members)
        assert ensemble.with_backend(None) is ensemble

    def test_cosine_fitness_rejected_for_ensembles(self, ensemble):
        with pytest.raises(ConfigurationError, match="ensemble"):
            HDTest(ensemble, "gauss", fitness=DistanceGuidedFitness())

    def test_plain_oracle_rejected_for_ensembles(self, ensemble):
        from repro.fuzz import DifferentialOracle

        with pytest.raises(ConfigurationError, match="cross-model"):
            HDTest(ensemble, "gauss", oracle=DifferentialOracle())

    def test_mixed_dimension_ensemble_falls_back_to_scratch(
        self, ensemble, digit_data, test_images
    ):
        train, _ = digit_data
        odd = HDCClassifier(PixelEncoder(dimension=256, rng=9), 10).fit(
            train.images, train.labels
        )
        mixed = ModelEnsembleTarget(ensemble.members[0], odd)
        engine = HDTest(mixed, "gauss", config=CFG)
        assert engine._delta_encoder() is None  # noqa: SLF001 - documented hook
        outcome = engine.fuzz_one(test_images[0], rng=0)
        assert outcome.iterations >= 0  # runs end to end on the scratch path


# -- voting helpers and fitness ---------------------------------------------
#: An ensemble reference (the vote fitnesses read only the predictions).
REFERENCE = TargetReference(0, np.zeros(3, dtype=np.int64))


class TestVotingAndFitness:
    def test_vote_counts(self):
        labels = np.array([[0, 1, 2], [0, 1, 0], [1, 1, 2]])
        counts = vote_counts(labels, 3)
        np.testing.assert_array_equal(
            counts, [[2, 1, 0], [0, 3, 0], [1, 0, 2]]
        )

    def test_majority_vote_tie_breaks_low(self):
        labels = np.array([[2], [1]])
        assert majority_vote(labels, 3)[0] == 1  # tie → lowest label

    def test_agreement_margin_orders_by_vote_split(self):
        fitness = AgreementMarginFitness(similarity_weight=0.0)
        labels = np.array([
            [0, 0, 0],
            [0, 0, 1],
            [0, 1, 2],
        ])  # columns: child 0 unanimous, child 1 one defection, child 2 split
        sims = np.zeros(labels.shape + (3,))
        scores = fitness.scores(REFERENCE, TargetPredictions(labels, sims))
        assert scores[2] > scores[1] > scores[0]

    def test_similarity_tiebreak_stays_below_vote_quantum(self):
        fitness = AgreementMarginFitness()
        rng = np.random.default_rng(0)
        labels = np.tile(np.array([[0, 0], [0, 1], [1, 1]]), (1, 1))
        sims = rng.random((3, 2, 4))
        with_sims = fitness.scores(REFERENCE, TargetPredictions(labels, sims))
        votes_only = AgreementMarginFitness(similarity_weight=0.0).scores(
            REFERENCE, TargetPredictions(labels, sims)
        )
        # The tie-break only ever adds, and always less than one vote
        # quantum (1/K) — equal-vote children may reorder, nothing else.
        assert np.all(with_sims >= votes_only)
        assert np.all(with_sims - votes_only < 1.0 / 3.0)

    def test_agreement_margin_rejected_for_single_models(self, trained_model):
        with pytest.raises(ConfigurationError, match="ensemble"):
            HDTest(trained_model, "gauss", fitness=AgreementMarginFitness())

    def test_random_fitness_scores_ensembles(self):
        fitness = RandomFitness(rng=0)
        labels = np.zeros((3, 5), dtype=np.int64)
        predictions = TargetPredictions(labels, np.zeros((3, 5, 10)))
        scores = fitness.scores(REFERENCE, predictions, rng=4)
        assert scores.shape == (5,)

    def test_negative_similarity_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            AgreementMarginFitness(similarity_weight=-0.1)

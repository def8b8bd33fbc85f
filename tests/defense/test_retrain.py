"""Tests for the retraining defense (Sec. V-D / Fig. 8)."""

import numpy as np
import pytest

from repro.defense.retrain import DefenseReport, attack_success_rate, run_defense
from repro.errors import ConfigurationError
from repro.fuzz.campaign import generate_adversarial_set
from repro.fuzz.results import AdversarialExample
from repro.hdc.backends.bipolar import PackedBipolarEncoder, PackedBipolarHDCClassifier
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def adversarial_examples(trained_model, digit_data):
    _, test = digit_data
    examples, _ = generate_adversarial_set(
        trained_model,
        test.images.astype(np.float64),
        40,
        strategy="gauss",
        true_labels=test.labels,
        rng=3,
    )
    return examples


class TestAttackSuccessRate:
    def test_fresh_adversarials_fool_generator_model(
        self, trained_model, adversarial_examples
    ):
        rate = attack_success_rate(trained_model, adversarial_examples)
        # Adversarials were minted against this very model; when the
        # true label equals the reference label the attack succeeds by
        # construction, so the rate should be near 1.
        assert rate > 0.8

    def test_empty_examples_rejected(self, trained_model):
        with pytest.raises(ConfigurationError):
            attack_success_rate(trained_model, [])


class TestRunDefense:
    def test_report_structure_and_rate_drop(
        self, trained_model, adversarial_examples, digit_data
    ):
        _, test = digit_data
        report, hardened = run_defense(
            trained_model,
            adversarial_examples,
            clean_inputs=test.images,
            clean_labels=test.labels,
            rng=0,
        )
        assert report.n_retrain + report.n_attack == len(adversarial_examples)
        assert 0.0 <= report.attack_rate_after <= report.attack_rate_before <= 1.0
        assert report.rate_drop >= 0.0
        # Retraining must not destroy the model (paper keeps using it).
        assert report.clean_accuracy_after > report.clean_accuracy_before - 0.15

    def test_retraining_reduces_attack_rate(self, trained_model, adversarial_examples):
        report, _ = run_defense(trained_model, adversarial_examples, rng=1)
        assert report.rate_drop > 0.05

    def test_original_model_untouched(self, trained_model, adversarial_examples):
        before = trained_model.associative_memory.accumulators.copy()
        run_defense(trained_model, adversarial_examples, rng=2)
        np.testing.assert_array_equal(
            trained_model.associative_memory.accumulators, before
        )

    def test_split_fraction_controls_sizes(self, trained_model, adversarial_examples):
        report, _ = run_defense(
            trained_model, adversarial_examples, retrain_fraction=0.25, rng=0
        )
        assert report.n_retrain == round(0.25 * len(adversarial_examples))

    def test_additive_mode_runs(self, trained_model, adversarial_examples):
        report, _ = run_defense(
            trained_model, adversarial_examples, mode="additive", rng=0
        )
        assert 0.0 <= report.attack_rate_after <= 1.0

    def test_invalid_fraction_rejected(self, trained_model, adversarial_examples):
        with pytest.raises(ConfigurationError):
            run_defense(trained_model, adversarial_examples, retrain_fraction=1.0)

    def test_too_few_examples_rejected(self, trained_model, adversarial_examples):
        with pytest.raises(ConfigurationError):
            run_defense(trained_model, adversarial_examples[:1])

    @pytest.mark.parametrize("family", ["dense", "packed-bipolar"])
    def test_report_matches_separate_encodes(
        self, trained_model, adversarial_examples, digit_data, family
    ):
        """Each field equals the rate/score calls on separately encoded inputs."""
        model = (
            trained_model
            if family == "dense"
            else PackedBipolarHDCClassifier.from_dense(trained_model)
        )
        _, test = digit_data
        clean, clean_labels = test.images[:20], test.labels[:20]
        report, _ = run_defense(
            model, adversarial_examples, clean_inputs=clean,
            clean_labels=clean_labels, epochs=2, rng=4,
        )
        # The reference pipeline: the same split, every model call
        # encoding its own inputs.
        perm = ensure_rng(4).permutation(len(adversarial_examples))
        cut = round(0.5 * len(adversarial_examples))
        retrain_set = [adversarial_examples[i] for i in perm[:cut]]
        attack_set = [adversarial_examples[i] for i in perm[cut:]]
        hardened = model.copy()
        hardened.retrain(
            np.stack([e.adversarial for e in retrain_set]),
            [e.true_label for e in retrain_set],
            epochs=2,
        )
        assert report == DefenseReport(
            attack_rate_before=attack_success_rate(model, attack_set),
            attack_rate_after=attack_success_rate(hardened, attack_set),
            n_retrain=len(retrain_set),
            n_attack=len(attack_set),
            clean_accuracy_before=model.score(clean, clean_labels),
            clean_accuracy_after=hardened.score(clean, clean_labels),
        )

    def test_packed_model_encodes_each_input_once(
        self, trained_model, adversarial_examples, digit_data, monkeypatch
    ):
        packed = PackedBipolarHDCClassifier.from_dense(trained_model)
        rows = []
        encode_batch = PackedBipolarEncoder.encode_batch

        def spy(encoder, items):
            rows.append(len(items))
            return encode_batch(encoder, items)

        monkeypatch.setattr(PackedBipolarEncoder, "encode_batch", spy)
        _, test = digit_data
        report, _ = run_defense(
            packed, adversarial_examples, clean_inputs=test.images[:20],
            clean_labels=test.labels[:20], rng=0,
        )
        # Attack set, retrain set and clean set, one encode each.
        assert sorted(rows) == sorted([report.n_attack, report.n_retrain, 20])

    def test_summary_keys(self):
        report = DefenseReport(1.0, 0.7, 10, 10)
        summary = report.summary()
        assert summary["rate_drop"] == pytest.approx(0.3)
        assert "attack_rate_before" in summary

    def test_uses_reference_label_without_ground_truth(self, trained_model, test_images):
        from repro.fuzz.fuzzer import HDTest

        result = HDTest(trained_model, "gauss", rng=9).fuzz(test_images[:6])
        examples = result.examples
        if len(examples) < 2:
            pytest.skip("not enough adversarials")
        report, _ = run_defense(trained_model, examples, rng=0)
        assert report.attack_rate_before > 0.9  # reference label == prediction


class TestEnsembleDebugging:
    """The HDXplore-style cross-model debugging loop."""

    @pytest.fixture(scope="class")
    def ensemble(self, trained_model, digit_data):
        from repro.fuzz import ModelEnsembleTarget

        train, _ = digit_data
        return ModelEnsembleTarget.trained_like(
            trained_model, 3, train.images, train.labels, rng=0
        )

    @pytest.fixture(scope="class")
    def debug_run(self, ensemble, digit_data):
        from repro.defense import debug_ensemble
        from repro.fuzz import HDTestConfig

        _, test = digit_data
        images = test.images.astype(np.float64)
        return debug_ensemble(
            ensemble,
            images[:40],
            images[40:],
            config=HDTestConfig(iter_times=8),
            rng=1,
            clean_inputs=test.images,
            clean_labels=test.labels,
        )

    def test_resolves_heldout_disagreements(self, debug_run, ensemble, digit_data):
        report, hardened = debug_run
        assert report.n_discrepancies > 0
        assert report.n_holdout_disagreements > 0
        # The headline claim: some held-out inputs the original members
        # disagreed on — never seen by retraining — now agree.
        assert report.resolved_rate > 0.0
        assert 1 <= report.rounds_run <= 3
        assert len(report.per_round) == report.rounds_run
        assert not np.isnan(report.clean_accuracy_after)

    def test_original_target_untouched(self, debug_run, ensemble, digit_data):
        _, hardened = debug_run
        assert hardened is not ensemble
        # ensemble's member AMs still carry only the original training.
        counts = ensemble.members[0].associative_memory.counts
        assert counts.sum() == 400  # the module fixture's n_train

    def test_agreement_helpers_consistent(self, ensemble, digit_data):
        from repro.defense import ensemble_agreement

        _, test = digit_data
        images = test.images.astype(np.float64)[:20]
        value = ensemble_agreement(ensemble, images)
        labels = ensemble.predict(images)
        assert value == pytest.approx(
            float(np.mean((labels == labels[0]).all(axis=0)))
        )
        assert value == pytest.approx(ensemble.agreement(images))

    def test_true_labels_length_checked(self, ensemble, digit_data):
        from repro.defense import debug_ensemble

        _, test = digit_data
        images = test.images.astype(np.float64)
        with pytest.raises(ConfigurationError, match="true_labels"):
            debug_ensemble(ensemble, images[:10], images[10:], true_labels=[1, 2])

    def test_requires_ensemble_target(self, trained_model, digit_data):
        from repro.defense import debug_ensemble

        _, test = digit_data
        images = test.images.astype(np.float64)
        with pytest.raises(ConfigurationError, match="ModelEnsembleTarget"):
            debug_ensemble(trained_model, images[:5], images[5:])

    def test_invalid_rounds_and_empty_pools_rejected(self, ensemble, digit_data):
        from repro.defense import debug_ensemble

        _, test = digit_data
        images = test.images.astype(np.float64)
        with pytest.raises(ConfigurationError, match="rounds"):
            debug_ensemble(ensemble, images[:5], images[5:], rounds=0)
        with pytest.raises(ConfigurationError, match="non-empty"):
            debug_ensemble(ensemble, images[:0], images[5:])


class TestSharedCodebookDebugging:
    """``debug_ensemble`` on shared-codebook members encodes each round once."""

    #: SHA-256 of the hardened members' AM state dicts, as the loop
    #: produced them when every member re-encoded the retraining set.
    PINNED = {
        "additive": "7a345603367d87a4f0bd764c7f7c841da63c9f8ba6684b29d94b6fed9cb98617",
        "adaptive": "205fa76d2411762c0ae6d23e814856ea0825bfe2f7e6490436d5b773e8bf75fe",
    }

    @pytest.mark.parametrize("mode", ["additive", "adaptive"])
    def test_members_match_per_member_retraining_with_one_encode_per_round(
        self, mode, trained_model, digit_data, monkeypatch
    ):
        import hashlib

        from repro.defense import debug_ensemble
        from repro.fuzz import HDTest, HDTestConfig, SharedCodebookEnsembleTarget

        train, test = digit_data
        target = SharedCodebookEnsembleTarget.trained_shared(
            trained_model, 3, train.images, train.labels, rng=0
        )
        encoder = target.primary.encoder
        # Count the shared encoder's scratch encodes outside the fuzzer:
        # the two held-out predictions plus the retraining encodes.
        encodes, fuzzing = [], []
        encode_batch, fuzz_outcomes = encoder.encode_batch, HDTest.fuzz_outcomes

        def counting_encode(items):
            if not fuzzing:
                encodes.append(len(items))
            return encode_batch(items)

        def quiet_fuzz(self, *args, **kwargs):
            fuzzing.append(True)
            try:
                return fuzz_outcomes(self, *args, **kwargs)
            finally:
                fuzzing.pop()

        monkeypatch.setattr(encoder, "encode_batch", counting_encode)
        monkeypatch.setattr(HDTest, "fuzz_outcomes", quiet_fuzz)
        images = test.images.astype(np.float64)
        report, hardened = debug_ensemble(
            target, images[:24], images[24:], config=HDTestConfig(iter_times=6),
            rounds=2, mode=mode, epochs=2, rng=1,
        )
        assert report.per_round == (24, 24)
        # Held-out before, one retraining encode per round, held-out after.
        assert encodes == [56, 48, 48, 56]
        digest = hashlib.sha256()
        for member in hardened.members:
            for key, value in sorted(member.associative_memory.state_dict().items()):
                digest.update(key.encode())
                digest.update(np.ascontiguousarray(value).tobytes())
        assert digest.hexdigest() == self.PINNED[mode]

"""SharedCodebookEnsembleTarget: construction, persistence, equivalence.

The encode-once target's unit surface; the conformance suite
(tests/hdc/backends/test_conformance.py) covers the rematerialized
codebook semantics themselves, and bench_shared_codebook.py pins the
performance bars.
"""

import numpy as np
import pytest

from repro.datasets import load_digits
from repro.datasets.text import make_language_dataset
from repro.errors import ConfigurationError
from repro.fuzz import (
    BatchedHDTest,
    CrossModelOracle,
    HDTestConfig,
    ModelEnsembleTarget,
    SharedCodebookEnsembleTarget,
)
from repro.fuzz.targets import _fresh_member_like
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    HDCClassifier,
    NgramEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedPixelEncoder,
    PixelEncoder,
)
from repro.hdc.backends import packed as pk
from repro.hdc.similarity import cosine_matrix
from repro.utils.rng import ensure_rng, spawn

DIM = 768
SEED = 5


@pytest.fixture(scope="module")
def data():
    return load_digits(n_train=150, n_test=12, seed=SEED)


@pytest.fixture(scope="module", params=["materialized", "rematerialized"])
def shared(request, data):
    train, _ = data
    model = HDCClassifier(
        PixelEncoder(dimension=DIM, rng=SEED, codebook=request.param), 10
    ).fit(train.images, train.labels)
    return SharedCodebookEnsembleTarget.trained_shared(
        model, 3, train.images, train.labels, rng=SEED + 1
    )


def _float64_member_sims(target, hvs):
    """Per-member float64 cosines stacked ``(K, n, C)`` — the reference."""
    return np.stack(
        [
            cosine_matrix(
                hvs.astype(np.float64),
                m.associative_memory.class_hvs.astype(np.float64),
            )
            for m in target.members
        ]
    )


class TestConstruction:
    def test_members_share_one_encoder_object(self, shared):
        encoders = {id(m.encoder) for m in shared.members}
        assert len(encoders) == 1
        assert shared.n_members == 3
        assert shared.n_encode_blocks == 1

    def test_distinct_encoders_rejected(self, data):
        train, _ = data
        members = [
            HDCClassifier(PixelEncoder(dimension=DIM, rng=s), 10).fit(
                train.images, train.labels
            )
            for s in (0, 0)  # same seed, still distinct objects
        ]
        with pytest.raises(ConfigurationError, match="share one"):
            SharedCodebookEnsembleTarget(*members)

    def test_bagged_members_diverge_from_primary(self, shared):
        primary_am = shared.primary.associative_memory.state_dict()
        bagged_am = shared.members[1].associative_memory.state_dict()
        assert any(
            not np.array_equal(primary_am[k], bagged_am[k]) for k in primary_am
        )

    def test_copy_keeps_the_shared_encoder(self, shared, data):
        _, test = data
        clone = shared.copy()
        assert clone.primary.encoder is clone.members[1].encoder
        np.testing.assert_array_equal(
            clone.predict(list(test.images)), shared.predict(list(test.images))
        )


_FAMILIES = {
    "dense-bipolar": lambda: HDCClassifier(PixelEncoder(dimension=512, rng=SEED), 10),
    "rematerialized": lambda: HDCClassifier(
        PixelEncoder(dimension=512, rng=SEED, codebook="rematerialized"), 10
    ),
    "binary": lambda: BinaryHDCClassifier(BinaryPixelEncoder(dimension=512, rng=SEED), 10),
    "packed-bipolar": lambda: PackedBipolarHDCClassifier(
        PackedBipolarEncoder(dimension=512, rng=SEED), 10
    ),
    "packed-binary": lambda: PackedBinaryHDCClassifier(
        PackedPixelEncoder(dimension=512, rng=SEED), 10
    ),
}


def _members_fit_per_bag(model, k, inputs, labels, *, rng, include_base):
    """Fresh members built one ``fit`` per bag on the same spawned bags."""
    labels = np.asarray(labels)
    n = len(labels)
    members = []
    for child_rng in spawn(ensure_rng(rng), k - 1 if include_base else k):
        bag = child_rng.integers(0, n, size=n)
        if isinstance(inputs, np.ndarray):
            subset = inputs[bag]
        else:
            subset = [inputs[int(j)] for j in bag]
        members.append(_fresh_member_like(model).fit(subset, labels[bag]))
    return members


class TestTrainedShared:
    """One encode for all bagged members equals one ``fit`` per bag."""

    def _assert_members_match(self, model, inputs, labels, include_base):
        target = SharedCodebookEnsembleTarget.trained_shared(
            model, 4, inputs, labels, rng=SEED + 2, include_base=include_base
        )
        want = _members_fit_per_bag(
            model, 4, inputs, labels, rng=SEED + 2, include_base=include_base
        )
        got = target.members[1:] if include_base else target.members
        assert (target.primary is model) == include_base
        assert len(got) == len(want)
        for member, reference in zip(got, want):
            assert type(member) is type(reference)
            assert member.encoder is model.encoder
            got_state = member.associative_memory.state_dict()
            want_state = reference.associative_memory.state_dict()
            assert got_state.keys() == want_state.keys()
            for key, value in want_state.items():
                assert got_state[key].dtype == value.dtype, key
                np.testing.assert_array_equal(got_state[key], value, err_msg=key)

    @pytest.mark.parametrize("include_base", [True, False])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_members_equal_per_bag_fits(self, data, family, include_base):
        train, _ = data
        model = _FAMILIES[family]().fit(train.images, train.labels)
        self._assert_members_match(model, train.images, train.labels, include_base)

    @pytest.mark.parametrize("include_base", [True, False])
    def test_list_inputs_of_a_text_model(self, include_base):
        corpus = make_language_dataset(n_per_class=12, n_languages=3, length=40, seed=SEED)
        texts = list(corpus.texts)
        model = HDCClassifier(NgramEncoder(n=3, dimension=512, rng=SEED), 3).fit(
            texts, corpus.labels
        )
        self._assert_members_match(model, texts, corpus.labels, include_base)

    @pytest.mark.parametrize("n_inputs, n_labels", [(40, 60), (60, 50)])
    def test_inputs_and_labels_of_different_lengths_rejected(
        self, data, n_inputs, n_labels
    ):
        train, _ = data
        model = _FAMILIES["dense-bipolar"]().fit(train.images, train.labels)
        inputs, labels = train.images[:n_inputs], train.labels[:n_labels]
        # The error names both lengths: the encoded rows and the labels.
        match = rf"length-{n_inputs}\b.*\({n_labels},\)"
        with pytest.raises(ConfigurationError, match=match):
            SharedCodebookEnsembleTarget.trained_shared(model, 3, inputs, labels, rng=0)


    def test_fewer_than_two_members_rejected(self, data):
        train, _ = data
        model = _FAMILIES["dense-bipolar"]().fit(train.images, train.labels)
        with pytest.raises(ConfigurationError, match="ensemble size must be >= 2"):
            SharedCodebookEnsembleTarget.trained_shared(
                model, 1, train.images, train.labels, rng=0
            )

    def test_empty_training_set_rejected(self):
        corpus = make_language_dataset(n_per_class=4, n_languages=2, length=20, seed=SEED)
        model = HDCClassifier(NgramEncoder(n=3, dimension=128, rng=SEED), 2).fit(
            list(corpus.texts), corpus.labels
        )
        with pytest.raises(ConfigurationError, match="empty training set"):
            SharedCodebookEnsembleTarget.trained_shared(model, 2, [], [], rng=0)

    def test_model_that_cannot_spawn_members_rejected(self, data):
        train, _ = data
        with pytest.raises(ConfigurationError, match="cannot spawn a shared-codebook"):
            SharedCodebookEnsembleTarget.trained_shared(
                object(), 2, train.images, train.labels, rng=0
            )


class TestEncodeOnceEquivalence:
    """Encode-once is a pure optimisation of the independent target."""

    def test_predict_hvs_takes_exactly_one_block(self, shared, data):
        _, test = data
        bundle = shared.encode_batch(test.images[:2])
        assert len(bundle) == 1
        with pytest.raises(ConfigurationError, match="expected 1"):
            shared.predict_hvs(bundle * 2)

    def test_predict_and_similarities(self, shared, data):
        _, test = data
        independent = ModelEnsembleTarget(*shared.members)
        inputs = list(test.images)
        np.testing.assert_array_equal(
            shared.predict(inputs), independent.predict(inputs)
        )
        np.testing.assert_array_equal(
            shared.similarities(inputs), independent.similarities(inputs)
        )

    def test_predict_hvs_equals_per_member_float64_stacking(
        self, shared, data, monkeypatch
    ):
        _, test = data
        bundle = shared.encode_batch(test.images)
        packs = []
        real_pack = pk.pack_signs

        def counting_pack(values, **kwargs):
            packs.append(np.shape(values))
            return real_pack(values, **kwargs)

        monkeypatch.setattr(pk, "pack_signs", counting_pack)
        got = shared.predict_hvs(bundle)
        assert len(packs) == 1  # one pack for all K members
        sims = _float64_member_sims(shared, bundle[0])
        np.testing.assert_array_equal(got.labels, sims.argmax(axis=2))
        np.testing.assert_array_equal(got.similarities, sims)

    def test_packed_bipolar_members_match_dense(self, shared, data):
        _, test = data
        packed = shared.with_backend("packed-bipolar")
        got = packed.predict_hvs(packed.encode_batch(test.images))
        want = shared.predict_hvs(shared.encode_batch(test.images))
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.similarities, want.similarities)

    def test_raw_accumulator_members_keep_the_float_path(self, data):
        train, test = data
        encoder = PixelEncoder(dimension=DIM, rng=SEED)
        target = SharedCodebookEnsembleTarget(
            *[
                HDCClassifier(encoder, 10, bipolar_am=bipolar).fit(
                    train.images, train.labels
                )
                for bipolar in (False, True, True)
            ]
        )
        bundle = target.encode_batch(test.images)
        got = target.predict_hvs(bundle)
        np.testing.assert_array_equal(
            got.similarities, _float64_member_sims(target, bundle[0])
        )

    def test_campaign_outcomes(self, shared, data):
        _, test = data
        independent = ModelEnsembleTarget(*shared.members)
        inputs = list(test.images[:4])
        config = HDTestConfig(iter_times=6)
        keys = {}
        for name, target in (("shared", shared), ("independent", independent)):
            outcomes = BatchedHDTest(
                target, "gauss", config=config, oracle=CrossModelOracle()
            ).fuzz_outcomes(inputs, rng=2)
            keys[name] = [
                (o.success, o.iterations, o.reference_label) for o in outcomes
            ]
        assert keys["shared"] == keys["independent"]


class TestPersistence:
    def test_round_trip(self, shared, data, tmp_path):
        _, test = data
        path = tmp_path / "ensemble.npz"
        shared.save(path)
        loaded = SharedCodebookEnsembleTarget.load(path)
        assert loaded.n_members == shared.n_members
        assert loaded.primary.encoder is loaded.members[1].encoder
        assert loaded.primary.encoder.codebook == shared.primary.encoder.codebook
        np.testing.assert_array_equal(
            loaded.predict(list(test.images)), shared.predict(list(test.images))
        )

    def test_file_doubles_as_primary_checkpoint(self, shared, data, tmp_path):
        _, test = data
        path = tmp_path / "ensemble.npz"
        shared.save(path)
        single = HDCClassifier.load(path)
        np.testing.assert_array_equal(
            single.predict(test.images), shared.primary.predict(test.images)
        )

    def test_codebook_stored_once(self, shared, tmp_path):
        path = tmp_path / "ensemble.npz"
        shared.save(path)
        single_path = tmp_path / "single.npz"
        shared.primary.save(single_path)
        with np.load(path) as data:
            # One codebook (or seed) regardless of K: exactly the keys a
            # single model stores, plus AM deltas and the size tag.
            codebook_keys = [
                k for k in data.files if "position" in k or "value" in k
            ]
            with np.load(single_path) as single:
                single_codebook = [
                    k for k in single.files if "position" in k or "value" in k
                ]
            assert sorted(codebook_keys) == sorted(single_codebook)
        # K-1 AMs' worth of arrays, never K full checkpoints.
        assert path.stat().st_size < shared.n_members * single_path.stat().st_size

    @pytest.mark.parametrize("corruption", ["truncated-counts", "missing-class-row"])
    def test_corrupt_member_state_rejected(self, shared, tmp_path, corruption):
        path = tmp_path / "ensemble.npz"
        shared.save(path)
        with np.load(path) as data:
            payload = dict(data)
        if corruption == "truncated-counts":
            payload["member1_am_counts"] = payload["member1_am_counts"][:3]
            field = "counts"
        else:  # internally consistent, but fewer rows than n_classes
            for key in ("member2_am_accumulators", "member2_am_counts"):
                payload[key] = payload[key][:-1]
            field = "member2_am"
        np.savez_compressed(path, **payload)
        with pytest.raises(ConfigurationError, match=field):
            SharedCodebookEnsembleTarget.load(path)

    def test_single_model_file_rejected(self, shared, tmp_path):
        path = tmp_path / "single.npz"
        shared.primary.save(path)
        with pytest.raises(ConfigurationError, match="ensemble"):
            SharedCodebookEnsembleTarget.load(path)

    def test_binary_family_round_trip(self, data, tmp_path):
        train, test = data
        model = BinaryHDCClassifier(
            BinaryPixelEncoder(dimension=DIM, rng=SEED, codebook="rematerialized"),
            10,
        ).fit(train.images, train.labels)
        target = SharedCodebookEnsembleTarget.trained_shared(
            model, 3, train.images, train.labels, rng=1
        )
        path = tmp_path / "binary-ensemble.npz"
        target.save(path)
        loaded = SharedCodebookEnsembleTarget.load(path)
        assert isinstance(loaded.primary, BinaryHDCClassifier)
        np.testing.assert_array_equal(
            loaded.predict(list(test.images)), target.predict(list(test.images))
        )

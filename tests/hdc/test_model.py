"""Tests for the HDCClassifier facade (training, inference, persistence)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.hdc import HDCClassifier, NgramEncoder, PixelEncoder

DIM = 1024


@pytest.fixture(scope="module")
def small_model(digit_data):
    train, _ = digit_data
    enc = PixelEncoder(dimension=DIM, rng=11)
    return HDCClassifier(enc, n_classes=10).fit(train.images, train.labels)


class TestTraining:
    def test_fit_returns_self(self, digit_data):
        train, _ = digit_data
        model = HDCClassifier(PixelEncoder(dimension=DIM, rng=0), 10)
        assert model.fit(train.images[:50], train.labels[:50]) is model

    def test_accuracy_beats_chance_comfortably(self, small_model, digit_data):
        _, test = digit_data
        assert small_model.score(test.images, test.labels) > 0.6

    def test_untrained_predict_raises(self):
        model = HDCClassifier(PixelEncoder(dimension=DIM, rng=0), 10)
        with pytest.raises(NotTrainedError):
            model.predict(np.zeros((1, 28, 28)))

    def test_rejects_non_encoder(self):
        with pytest.raises(ConfigurationError):
            HDCClassifier(object(), 10)  # type: ignore[arg-type]

    def test_label_out_of_range_rejected(self, digit_data):
        train, _ = digit_data
        model = HDCClassifier(PixelEncoder(dimension=DIM, rng=0), n_classes=5)
        with pytest.raises(ConfigurationError):
            model.fit(train.images[:20], train.labels[:20] + 6)


class TestInference:
    def test_predict_shape_and_dtype(self, small_model, digit_data):
        _, test = digit_data
        preds = small_model.predict(test.images[:7])
        assert preds.shape == (7,)
        assert preds.dtype == np.int64

    def test_predict_one_matches_batch(self, small_model, digit_data):
        _, test = digit_data
        single = small_model.predict_one(test.images[0])
        batch = small_model.predict(test.images[:1])
        assert single == int(batch[0])

    def test_predict_hv_consistent_with_predict(self, small_model, digit_data):
        _, test = digit_data
        hvs = small_model.encode_batch(test.images[:5])
        np.testing.assert_array_equal(
            small_model.predict_hv(hvs), small_model.predict(test.images[:5])
        )

    def test_similarities_shape(self, small_model, digit_data):
        _, test = digit_data
        assert small_model.similarities(test.images[:4]).shape == (4, 10)

    def test_margins_non_negative(self, small_model, digit_data):
        _, test = digit_data
        assert (small_model.margins(test.images[:10]) >= 0).all()


class TestRetraining:
    def test_adaptive_retrain_fixes_targeted_errors(self, small_model, digit_data):
        _, test = digit_data
        model = small_model.copy()
        preds = model.predict(test.images)
        wrong = np.nonzero(preds != test.labels)[0]
        if wrong.size == 0:
            pytest.skip("model already perfect on this split")
        fix_imgs = test.images[wrong]
        fix_labels = test.labels[wrong]
        before = model.score(fix_imgs, fix_labels)
        model.retrain(fix_imgs, fix_labels, mode="adaptive", epochs=5)
        after = model.score(fix_imgs, fix_labels)
        assert after > before

    def test_additive_retrain_updates_counts(self, small_model, digit_data):
        _, test = digit_data
        model = small_model.copy()
        before = model.associative_memory.counts.sum()
        model.retrain(test.images[:10], test.labels[:10], mode="additive")
        assert model.associative_memory.counts.sum() == before + 10

    def test_adaptive_noop_when_all_correct(self, small_model, digit_data):
        _, test = digit_data
        model = small_model.copy()
        preds = model.predict(test.images)
        right = np.nonzero(preds == test.labels)[0][:10]
        acc_before = model.associative_memory.accumulators.copy()
        model.retrain(test.images[right], test.labels[right], mode="adaptive")
        np.testing.assert_array_equal(
            model.associative_memory.accumulators, acc_before
        )

    def test_invalid_mode_rejected(self, small_model, digit_data):
        _, test = digit_data
        with pytest.raises(ConfigurationError):
            small_model.copy().retrain(test.images[:2], test.labels[:2], mode="magic")


class TestCopyAndPersistence:
    def test_copy_shares_encoder_but_not_am(self, small_model):
        clone = small_model.copy()
        assert clone.encoder is small_model.encoder
        assert clone.associative_memory is not small_model.associative_memory

    def test_save_load_roundtrip(self, small_model, digit_data, tmp_path):
        _, test = digit_data
        path = tmp_path / "model.npz"
        small_model.save(path)
        loaded = HDCClassifier.load(path)
        np.testing.assert_array_equal(
            loaded.predict(test.images[:20]), small_model.predict(test.images[:20])
        )
        assert loaded.dimension == small_model.dimension

    def test_save_rejects_unknown_encoder(self, tmp_path):
        from repro.hdc.encoders.base import Encoder

        class WeirdEncoder(Encoder):
            dimension = DIM

            def encode(self, item):  # pragma: no cover - never called
                return np.zeros(DIM, dtype=np.int8)

        model = HDCClassifier(WeirdEncoder(), 2)
        with pytest.raises(ConfigurationError):
            model.save(tmp_path / "m.npz")

    def test_ngram_model_round_trips(self, tmp_path):
        texts = ["abcabcabc", "cbacbacba", "aaabbbccc", "cccbbbaaa"]
        labels = np.array([0, 1, 0, 1])
        model = HDCClassifier(
            NgramEncoder(n=3, alphabet="abc", dimension=DIM, rng=0), 2
        ).fit(texts, labels)
        model.save(tmp_path / "ngram.npz")
        loaded = HDCClassifier.load(tmp_path / "ngram.npz")
        assert loaded.encoder.alphabet == "abc"
        assert loaded.encoder.n == 3
        np.testing.assert_array_equal(loaded.predict(texts), model.predict(texts))
        np.testing.assert_array_equal(
            loaded.encoder.encode(texts[0]), model.encoder.encode(texts[0])
        )

    def test_record_model_round_trips(self, tmp_path):
        from repro.hdc.encoders.record import RecordEncoder
        from repro.hdc.item_memory import LevelMemory

        rng = np.random.default_rng(5)
        records = rng.random((8, 12))
        labels = np.array([0, 1] * 4)
        model = HDCClassifier(
            RecordEncoder(n_features=12, levels=16, dimension=DIM, rng=1), 2
        ).fit(records, labels)
        model.save(tmp_path / "record.npz")
        loaded = HDCClassifier.load(tmp_path / "record.npz")
        assert loaded.encoder.n_features == 12
        assert isinstance(loaded.encoder.value_memory, LevelMemory)
        np.testing.assert_array_equal(loaded.predict(records), model.predict(records))

    def test_repr(self, small_model):
        assert "HDCClassifier" in repr(small_model)

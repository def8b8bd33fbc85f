"""Tests for record-domain mutation strategies and the record constraint."""

import numpy as np
import pytest

from repro.errors import ConstraintError, MutationError
from repro.fuzz.constraints import RecordConstraint
from repro.fuzz.mutations.record import (
    RecordBandNoise,
    RecordGaussianNoise,
    RecordRandomNoise,
    RecordShift,
)


@pytest.fixture()
def record():
    return np.random.default_rng(0).uniform(0.1, 0.9, size=48)


class TestRecordGaussianNoise:
    def test_shape_and_clipping(self, record):
        out = RecordGaussianNoise(sigma=0.5).mutate(record, 4, rng=0)
        assert out.shape == (4, 48)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_touches_most_features(self, record):
        out = RecordGaussianNoise(sigma=0.05).mutate(record, 1, rng=0)
        assert (np.abs(out[0] - record) > 1e-12).mean() > 0.9

    def test_original_untouched(self, record):
        snap = record.copy()
        RecordGaussianNoise().mutate(record, 2, rng=0)
        np.testing.assert_array_equal(record, snap)

    def test_rejects_2d(self):
        with pytest.raises(MutationError):
            RecordGaussianNoise().mutate(np.zeros((2, 4)), 1, rng=0)

    def test_custom_value_range(self):
        rec = np.full(8, 5.0)
        out = RecordGaussianNoise(sigma=100.0, value_range=(0.0, 10.0)).mutate(rec, 3, rng=0)
        assert out.min() >= 0.0 and out.max() <= 10.0


class TestRecordRandomNoise:
    def test_locality(self, record):
        out = RecordRandomNoise(amplitude=0.3, features_per_step=3).mutate(record, 5, rng=0)
        for child in out:
            assert (np.abs(child - record) > 1e-12).sum() <= 3

    def test_too_many_features_rejected(self):
        with pytest.raises(MutationError, match="exceeds"):
            RecordRandomNoise(features_per_step=100).mutate(np.zeros(8), 1, rng=0)

    def test_deterministic(self, record):
        a = RecordRandomNoise().mutate(record, 3, rng=5)
        b = RecordRandomNoise().mutate(record, 3, rng=5)
        np.testing.assert_array_equal(a, b)


class TestRecordBandNoise:
    def test_contiguous_band(self, record):
        out = RecordBandNoise(amplitude=0.3, band_width=6).mutate(record, 5, rng=0)
        for child in out:
            idx = np.nonzero(np.abs(child - record) > 1e-12)[0]
            if idx.size:
                assert idx.max() - idx.min() < 6

    def test_band_wider_than_record(self):
        rec = np.full(4, 0.5)
        out = RecordBandNoise(band_width=100).mutate(rec, 2, rng=0)
        assert out.shape == (2, 4)


class TestRecordShift:
    def test_fill_with_range_minimum(self):
        rec = np.linspace(0.2, 0.9, 10)
        out = RecordShift(max_step=1).mutate(rec, 8, rng=0)
        for child in out:
            assert child.min() >= 0.0
            # One end must hold the fill value.
            assert child[0] == 0.0 or child[-1] == 0.0

    def test_values_preserved_modulo_fill(self):
        rec = np.linspace(0.2, 0.9, 10)
        original_values = set(np.round(rec, 9)) | {0.0}
        out = RecordShift().mutate(rec, 6, rng=0)
        for child in out:
            assert set(np.round(child, 9)).issubset(original_values)

    def test_empty_record_rejected(self):
        with pytest.raises(MutationError):
            RecordShift().mutate(np.array([]), 1, rng=0)


@pytest.mark.parametrize(
    "strategy", [RecordGaussianNoise, RecordRandomNoise, RecordBandNoise, RecordShift]
)
@pytest.mark.parametrize("value_range", [(0.5, 0.5), (1.0, 0.0)])
def test_empty_or_reversed_value_range_rejected(strategy, value_range):
    with pytest.raises(MutationError, match="low < high"):
        strategy(value_range=value_range)


class TestRecordConstraint:
    def test_accept_and_reject(self, record):
        constraint = RecordConstraint(max_l2=0.1)
        near = record.copy()
        near[0] += 0.05
        far = np.clip(record + 0.2, 0, 1)
        mask = constraint.accept(record, np.stack([near, far]))
        assert mask.tolist() == [True, False]

    def test_measure_keys(self, record):
        metrics = RecordConstraint().measure(record, np.clip(record + 0.01, 0, 1))
        assert set(metrics) == {"l1", "l2", "linf", "l0"}

    def test_value_range_scaling(self):
        # The same absolute change is twice as large in a half-size range.
        base = np.full(4, 1.0)
        cand = base.copy()
        cand[0] = 1.5
        wide = RecordConstraint(value_range=(0.0, 2.0)).measure(base, cand)["l2"]
        narrow = RecordConstraint(value_range=(0.0, 1.0)).measure(
            base / 2, cand / 2
        )["l2"]
        assert narrow == pytest.approx(wide * 2 / 2)  # both 0.25 vs 0.25... sanity
        assert wide == pytest.approx(0.25)

    def test_clip(self):
        out = RecordConstraint().clip(np.array([[-0.5, 1.5]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_l1_budget(self, record):
        constraint = RecordConstraint(max_l2=None, max_l1=0.5)
        spike = record.copy()
        spike[0] += 0.4  # L1 0.4, a single feature
        spread = record + 0.02  # L1 0.96 over 48 features, L2 only 0.14
        mask = constraint.accept(record, np.stack([spike, spread]))
        assert mask.tolist() == [True, False]

    def test_every_set_budget_binds(self, record):
        # A candidate passes only if it meets the L2 *and* the L1 budget.
        constraint = RecordConstraint(max_l2=0.3, max_l1=0.5)
        spike = record.copy()
        spike[0] += 0.4  # L2 0.4 > 0.3, L1 0.4
        spread = record + 0.02  # L2 0.14, L1 0.96 > 0.5
        small = record + 0.005  # L2 0.035, L1 0.24
        mask = constraint.accept(record, np.stack([spike, spread, small]))
        assert mask.tolist() == [False, False, True]

    def test_all_none_budgets_rejected(self):
        with pytest.raises(ConstraintError):
            RecordConstraint(max_l2=None, max_l1=None)

    def test_bad_value_range(self):
        with pytest.raises(ConstraintError):
            RecordConstraint(value_range=(1.0, 0.0))

    def test_shape_mismatch(self, record):
        with pytest.raises(ConstraintError):
            RecordConstraint().accept(record, np.zeros((1, 5)))


class TestRecordFuzzingEndToEnd:
    def test_voice_pipeline(self):
        from repro.datasets import make_voice_dataset
        from repro.fuzz import HDTest, HDTestConfig
        from repro.hdc import HDCClassifier, RecordEncoder

        data = make_voice_dataset(20, n_classes=4, n_features=32, seed=0)
        train, test = data.split(0.7, rng=1)
        encoder = RecordEncoder(
            32, levels=32, level_encoding="random", dimension=2048, rng=2
        )
        model = HDCClassifier(encoder, n_classes=4).fit(train.records, train.labels)
        assert model.score(test.records, test.labels) > 0.7
        fuzzer = HDTest(
            model,
            "record_gauss",
            constraint=RecordConstraint(max_l2=1.0),
            config=HDTestConfig(iter_times=30),
            rng=3,
        )
        result = fuzzer.fuzz([test.records[i] for i in range(4)])
        assert result.n_inputs == 4
        for ex in result.examples:
            assert model.predict_one(ex.adversarial) == ex.adversarial_label
            assert ex.metrics["l2"] <= 1.0 + 1e-9

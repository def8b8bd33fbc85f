"""Tests for the associative memory (Sec. III-B/C)."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.associative_memory import AssociativeMemory, CounterMemory
from repro.hdc.backends import packed as pk
from repro.hdc.backends.binary import PackedAssociativeMemory
from repro.hdc.backends.bipolar import PackedBipolarAssociativeMemory
from repro.hdc.binary_model import BinaryAssociativeMemory
from repro.hdc.similarity import cosine_matrix
from repro.hdc.spaces import BinarySpace, BipolarSpace

DIM = 512
SPACE = BipolarSpace(DIM)
#: Word-boundary edge cases (one bit, 63/65 straddling a word, exactly
#: one word) plus the paper's D = 10 000 with its 16-bit tail word.
TAIL_DIMS = [1, 63, 64, 65, 10_000]

#: Every associative memory family with the name of its per-class matrix.
AM_STATES = [
    (AssociativeMemory, "accumulators"),
    (PackedBipolarAssociativeMemory, "accumulators"),
    (BinaryAssociativeMemory, "ones"),
    (PackedAssociativeMemory, "ones"),
]


@pytest.fixture()
def am():
    return AssociativeMemory(3, DIM)


def _train_simple(am, rng=0):
    """Three well-separated classes from bundled noisy prototypes."""
    generator = np.random.default_rng(rng)
    prototypes = SPACE.random(3, rng=generator)
    for label in range(3):
        noisy = np.repeat(prototypes[label][None], 20, axis=0).copy()
        flips = generator.random(noisy.shape) < 0.1
        noisy[flips] = -noisy[flips]
        am.add(noisy, np.full(20, label))
    return prototypes


class TestUpdates:
    def test_add_accumulates(self, am):
        hv = SPACE.random(rng=0)
        am.add(hv, [1])
        am.add(hv, [1])
        np.testing.assert_array_equal(am.accumulators[1], 2 * hv.astype(np.int64))
        assert am.counts[1] == 2

    def test_single_vector_promoted(self, am):
        am.add(SPACE.random(rng=1), [0])
        assert am.counts[0] == 1

    def test_subtract_reverses_add(self, am):
        hv = SPACE.random(rng=2)
        am.add(hv, [2])
        am.subtract(hv, [2])
        np.testing.assert_array_equal(am.accumulators[2], np.zeros(DIM))

    def test_label_out_of_range(self, am):
        with pytest.raises(ConfigurationError):
            am.add(SPACE.random(rng=0), [3])

    def test_dimension_mismatch(self, am):
        with pytest.raises(DimensionMismatchError):
            am.add(np.ones((1, DIM + 1), dtype=np.int8), [0])

    def test_label_count_mismatch(self, am):
        with pytest.raises(ConfigurationError):
            am.add(SPACE.random(2, rng=0), [0])

    def test_is_trained_requires_all_classes(self, am):
        assert not am.is_trained
        am.add(SPACE.random(rng=0), [0])
        assert not am.is_trained
        am.add(SPACE.random(2, rng=1), [1, 2])
        assert am.is_trained


class TestQueries:
    def test_untrained_query_raises(self, am):
        with pytest.raises(NotTrainedError):
            am.predict(SPACE.random(rng=0))

    def test_predict_recovers_prototype_classes(self, am):
        prototypes = _train_simple(am)
        predictions = am.predict(prototypes)
        np.testing.assert_array_equal(predictions, [0, 1, 2])

    def test_similarities_shape_and_range(self, am):
        _train_simple(am)
        sims = am.similarities(SPACE.random(5, rng=1))
        assert sims.shape == (5, 3)
        assert (np.abs(sims) <= 1.0 + 1e-12).all()

    def test_class_hvs_bipolar_by_default(self, am):
        _train_simple(am)
        assert set(np.unique(am.class_hvs)).issubset({-1, 1})

    def test_non_bipolar_mode_keeps_accumulators(self):
        am = AssociativeMemory(2, DIM, bipolar=False)
        hv = SPACE.random(rng=3)
        am.add(hv, [0])
        am.add(SPACE.random(rng=4), [1])
        np.testing.assert_array_equal(am.class_hvs[0], hv.astype(np.int64))

    def test_margins_high_for_prototypes(self, am):
        prototypes = _train_simple(am)
        margins = am.margins(prototypes)
        assert (margins > 0.3).all()

    def test_margins_low_for_random_queries(self, am):
        _train_simple(am)
        margins = am.margins(SPACE.random(10, rng=5))
        assert margins.mean() < 0.2

    def test_cache_invalidated_on_update(self, am):
        _train_simple(am)
        before = am.class_hvs.copy()
        strong = np.repeat(-before[0][None], 50, axis=0)
        am.add(strong, np.zeros(50, dtype=int))
        assert not np.array_equal(am.class_hvs[0], before[0])


class TestPersistence:
    def test_state_dict_roundtrip(self, am):
        _train_simple(am)
        rebuilt = AssociativeMemory.from_state_dict(am.state_dict())
        np.testing.assert_array_equal(rebuilt.accumulators, am.accumulators)
        np.testing.assert_array_equal(rebuilt.class_hvs, am.class_hvs)
        assert rebuilt.bipolar == am.bipolar

    def test_copy_is_independent(self, am):
        _train_simple(am)
        clone = am.copy()
        clone.add(SPACE.random(rng=9), [0])
        assert clone.counts[0] == am.counts[0] + 1

    @pytest.mark.parametrize("am_type,field", AM_STATES)
    def test_from_state_dict_rejects_1d(self, am_type, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be 2-D"):
            am_type.from_state_dict(
                {field: np.zeros(4), "counts": np.zeros(1), "bipolar": True}
            )

    @pytest.mark.parametrize("am_type,field", AM_STATES)
    @pytest.mark.parametrize("n_counts", [3, 11])
    def test_from_state_dict_rejects_counts_of_the_wrong_length(
        self, am_type, field, n_counts
    ):
        # Loading used to succeed (as trained, for a short ``counts``)
        # and the next ``add`` raised a bare IndexError.
        state = {field: np.zeros((10, 64)), "counts": np.ones(n_counts), "bipolar": True}
        with pytest.raises(ConfigurationError, match="counts"):
            am_type.from_state_dict(state)

    def test_repr(self, am):
        assert "AssociativeMemory" in repr(am)


def _trained(dim, *, bipolar=True, n_classes=4, seed=0):
    generator = np.random.default_rng(seed)
    am = AssociativeMemory(n_classes, dim, bipolar=bipolar)
    hvs = BipolarSpace(dim).random(3 * n_classes, rng=generator)
    am.add(hvs, np.arange(3 * n_classes) % n_classes)
    return am


def _float_reference(am, queries):
    """The float64 cosine every query took before the popcount path."""
    return cosine_matrix(
        np.asarray(queries).astype(np.float64), am.class_hvs.astype(np.float64)
    )


class TestPopcountQueries:
    """Bipolar memories answer ±1 blocks by popcount, to the last bit."""

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    @pytest.mark.parametrize("n", [None, 1, 6])  # None: a single (D,) query
    def test_sign_blocks_bit_identical_to_float64(self, dim, n, popcount_calls):
        am = _trained(dim)
        queries = BipolarSpace(dim).random(n, rng=dim)
        sims = am.similarities(queries)
        assert len(popcount_calls) == 1
        np.testing.assert_array_equal(sims, _float_reference(am, queries))
        np.testing.assert_array_equal(am.predict(queries), sims.argmax(axis=1))

    @pytest.mark.parametrize("dim", TAIL_DIMS)
    def test_packed_sign_words_equal_int8_queries(self, dim):
        am = _trained(dim)
        queries = BipolarSpace(dim).random(5, rng=1)
        words = pk.pack_signs(queries)
        np.testing.assert_array_equal(am.similarities(words), am.similarities(queries))
        np.testing.assert_array_equal(
            am.similarities(words[0]), am.similarities(queries[:1])
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64])
    def test_empty_blocks(self, dtype):
        am = _trained(65)
        width = 65 if dtype == np.int8 else pk.packed_words(65)
        sims = am.similarities(np.zeros((0, width), dtype=dtype))
        assert sims.shape == (0, am.n_classes) and sims.dtype == np.float64

    @pytest.mark.parametrize("value", [0, 2])
    def test_int8_blocks_with_other_values_fall_back(self, value, popcount_calls):
        am = _trained(DIM)
        queries = SPACE.random(4, rng=2)
        queries[1, 7] = value
        np.testing.assert_array_equal(
            am.similarities(queries), _float_reference(am, queries)
        )
        assert popcount_calls == []

    def test_float64_sign_blocks_fall_back(self, popcount_calls):
        am = _trained(DIM)
        queries = SPACE.random(4, rng=3).astype(np.float64)
        np.testing.assert_array_equal(
            am.similarities(queries), _float_reference(am, queries)
        )
        assert popcount_calls == []

    def test_raw_accumulator_memory_falls_back(self, popcount_calls):
        am = _trained(DIM, bipolar=False)
        queries = SPACE.random(4, rng=4)
        assert am.query_words(queries) is None
        np.testing.assert_array_equal(
            am.similarities(queries),
            cosine_matrix(queries.astype(np.float64), am.accumulators.astype(np.float64)),
        )
        assert popcount_calls == []

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_width_checked_before_packing(self, dtype):
        # D − 1 and D components pack to the same 157 words at D = 10 000,
        # so the word-count check alone would accept the short block.
        dim = 10_000
        am = _trained(dim)
        short = BipolarSpace(dim - 1).random(3, rng=5).astype(dtype)
        assert pk.packed_words(dim - 1) == pk.packed_words(dim)
        with pytest.raises(DimensionMismatchError):
            am.similarities(short)

    def test_packed_words_of_the_wrong_count_rejected(self):
        am = _trained(DIM)
        with pytest.raises(DimensionMismatchError):
            am.similarities(pk.pack_signs(BipolarSpace(DIM + 64).random(2, rng=6)))

    @pytest.mark.parametrize("update", ["add", "subtract"])
    def test_updates_drop_the_packed_class_words(self, update):
        am = _trained(DIM)
        queries = SPACE.random(8, rng=7)
        before = am.similarities(queries)  # fills the packed cache
        flip = np.repeat(am.class_hvs[0][None], 50, axis=0)
        if update == "add":
            am.add(-flip, np.zeros(50, dtype=int))
        else:
            am.subtract(flip, np.zeros(50, dtype=int))
        after = am.similarities(queries)
        np.testing.assert_array_equal(after, _float_reference(am, queries))
        assert not np.array_equal(after[:, 0], before[:, 0])

    def test_retrain_drops_the_packed_class_words(self, trained_model, digit_data):
        _, test = digit_data
        model = trained_model.copy()
        hvs = model.encode_batch(test.images)
        before = model.predict_hv(hvs)  # fills the packed cache
        model.retrain(test.images, (before + 1) % 10, epochs=2)
        am = model.associative_memory
        after = am.similarities(hvs)
        np.testing.assert_array_equal(after, _float_reference(am, hvs))
        assert not np.array_equal(after.argmax(axis=1), before)

    def test_copy_and_load_start_with_fresh_class_words(self, tmp_path, trained_model):
        am = trained_model.copy().associative_memory
        queries = BipolarSpace(am.dimension).random(6, rng=8)
        am.similarities(queries)
        assert am._class_words_cache is not None  # noqa: SLF001
        path = tmp_path / "model.npz"
        trained_model.save(path)
        for fresh in (am.copy(), type(trained_model).load(path).associative_memory):
            assert fresh._class_words_cache is None  # noqa: SLF001
            np.testing.assert_array_equal(
                fresh.similarities(queries), _float_reference(fresh, queries)
            )


def _update_rows(am_type, n, dim, seed):
    """``(rows as am_type takes them, the same rows as dense int8)``."""
    bipolar = am_type in (AssociativeMemory, PackedBipolarAssociativeMemory)
    dense = (BipolarSpace if bipolar else BinarySpace)(dim).random(n, rng=seed)
    if am_type is PackedBipolarAssociativeMemory:
        return pk.pack_signs(dense), dense
    if am_type is PackedAssociativeMemory:
        return pk.pack_bits(dense), dense
    return dense, dense


class TestCounterCore:
    """What the four memories share through :class:`CounterMemory`."""

    def test_memories_share_only_the_core(self):
        # The repository benchmark times each memory by the methods in
        # its own class body, packed updates included.
        memories = [am_type for am_type, _ in AM_STATES]
        for am_type in memories:
            assert issubclass(am_type, CounterMemory)
            assert not any(
                other is not am_type and issubclass(am_type, other) for other in memories
            )
            assert "similarities" in vars(am_type)
        for am_type in (PackedBipolarAssociativeMemory, PackedAssociativeMemory):
            assert {"add", "subtract"} <= set(vars(am_type))

    @pytest.mark.parametrize("am_type,field", AM_STATES)
    @pytest.mark.parametrize("op", ["add", "subtract", "similarities"])
    def test_3d_blocks_raise_dimension_mismatch(self, am_type, field, op):
        am = am_type(3, 65)
        rows, _ = _update_rows(am_type, 6, 65, seed=0)
        am.add(rows, np.arange(6) % 3)
        before = am.state_dict()[field]
        block = rows.reshape(2, 3, rows.shape[1])
        with pytest.raises(DimensionMismatchError):
            if op == "similarities":
                am.similarities(block)
            else:
                getattr(am, op)(block, [0, 1])
        np.testing.assert_array_equal(am.state_dict()[field], before)

    @pytest.mark.parametrize("am_type,field", AM_STATES)
    def test_updates_equal_the_add_at_reference(self, am_type, field):
        dim, n = 130, 40
        rows, dense = _update_rows(am_type, n, dim, seed=1)
        labels = np.random.default_rng(2).integers(0, 3, size=n)  # repeats
        am = am_type(3, dim)
        am.add(rows, labels)
        reference = np.zeros((3, dim), dtype=np.int64)
        np.add.at(reference, labels, dense.astype(np.int64))
        np.testing.assert_array_equal(am.state_dict()[field], reference)
        # Rows subtracted from other classes than they joined; bit counts
        # clamp at zero, signed sums go negative.
        wrong = (labels[:30] + 1) % 3
        am.subtract(rows[:30], wrong)
        np.subtract.at(reference, wrong, dense[:30].astype(np.int64))
        if field == "ones":
            assert (reference < 0).any()
            np.maximum(reference, 0, out=reference)
        np.testing.assert_array_equal(am.state_dict()[field], reference)
        np.testing.assert_array_equal(am.counts, np.bincount(labels, minlength=3))

    @pytest.mark.parametrize("am_type", [AssociativeMemory, BinaryAssociativeMemory])
    def test_dense_add_allocates_no_wide_temporaries(self, am_type):
        # A 400 x 10 000 int8 block is 4 MB; cast whole to int64 it was 32 MB.
        rows, _ = _update_rows(am_type, 400, 10_000, seed=3)
        am = am_type(10, 10_000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            am.add(rows, np.arange(400) % 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 12_000_000

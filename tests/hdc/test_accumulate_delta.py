"""Property tests for the incremental (delta) encoding path.

The batched fuzzing engine encodes mutants from their parent's
accumulator; these tests pin the contract that makes that safe:
``accumulate_delta`` is *bit-identical* to ``accumulate_batch`` on the
children, for any mix of changed pixels — and, since the record encoder
grew the same surface, for any mix of changed feature slots.
"""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.hdc import NgramEncoder, PixelEncoder, RecordEncoder

SHAPE = (8, 8)
DIM = 256


@pytest.fixture(scope="module")
def encoder():
    return PixelEncoder(shape=SHAPE, dimension=DIM, rng=5)


def _levels(encoder, images):
    return encoder.quantize(images).reshape(len(images), -1)


class TestAccumulateDelta:
    def test_matches_full_encode(self, encoder, rng):
        parents = rng.integers(0, 256, size=(6,) + SHAPE).astype(np.float64)
        children = parents.copy()
        # Perturb a random subset of pixels per child.
        for i in range(len(children)):
            k = int(rng.integers(0, SHAPE[0] * SHAPE[1]))
            idx = rng.choice(SHAPE[0] * SHAPE[1], size=k, replace=False)
            flat = children[i].reshape(-1)
            flat[idx] = rng.integers(0, 256, size=k)
        got = encoder.accumulate_delta(
            _levels(encoder, children),
            _levels(encoder, parents),
            encoder.accumulate_batch(parents),
        )
        np.testing.assert_array_equal(got, encoder.accumulate_batch(children))

    def test_identical_child_copies_parent_accumulator(self, encoder, rng):
        parents = rng.integers(0, 256, size=(3,) + SHAPE).astype(np.float64)
        accs = encoder.accumulate_batch(parents)
        got = encoder.accumulate_delta(
            _levels(encoder, parents), _levels(encoder, parents), accs
        )
        np.testing.assert_array_equal(got, accs)

    def test_every_pixel_changed(self, encoder, rng):
        parents = np.zeros((2,) + SHAPE)
        children = np.full((2,) + SHAPE, 255.0)
        got = encoder.accumulate_delta(
            _levels(encoder, children),
            _levels(encoder, parents),
            encoder.accumulate_batch(parents),
        )
        np.testing.assert_array_equal(got, encoder.accumulate_batch(children))

    def test_exact_beyond_int16_change_counts(self, rng):
        """Regression: >16383 changed pixels must not wrap the partial sum.

        The fast path accumulates corrections in int16 (exact for
        paper-sized images); larger encoder shapes must widen instead of
        silently overflowing.
        """
        big = PixelEncoder(shape=(150, 150), dimension=32, rng=1)
        parents = np.zeros((1, 150, 150))
        children = rng.integers(1, 256, size=(1, 150, 150)).astype(np.float64)
        got = big.accumulate_delta(
            big.quantize(children).reshape(1, -1),
            big.quantize(parents).reshape(1, -1),
            big.accumulate_batch(parents),
        )
        np.testing.assert_array_equal(got, big.accumulate_batch(children))

    def test_accepts_compact_dtypes(self, encoder, rng):
        """int16 levels/accumulators (the engine's storage) work unchanged."""
        parents = rng.integers(0, 256, size=(4,) + SHAPE).astype(np.float64)
        children = np.clip(parents + rng.normal(0, 30, parents.shape), 0, 255)
        got = encoder.accumulate_delta(
            _levels(encoder, children).astype(np.int16),
            _levels(encoder, parents).astype(np.int16),
            encoder.accumulate_batch(parents).astype(np.int16),
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, encoder.accumulate_batch(children))

    def test_does_not_mutate_parent_accumulators(self, encoder, rng):
        parents = rng.integers(0, 256, size=(2,) + SHAPE).astype(np.float64)
        children = np.clip(parents + 40, 0, 255)
        accs = encoder.accumulate_batch(parents)
        before = accs.copy()
        encoder.accumulate_delta(_levels(encoder, children), _levels(encoder, parents), accs)
        np.testing.assert_array_equal(accs, before)

    def test_shape_mismatch_rejected(self, encoder):
        levels = np.zeros((2, SHAPE[0] * SHAPE[1]), dtype=np.int64)
        with pytest.raises(EncodingError):
            encoder.accumulate_delta(levels, levels[:, :-1], np.zeros((2, DIM)))

    def test_wrong_pixel_count_rejected(self, encoder):
        levels = np.zeros((2, 10), dtype=np.int64)
        with pytest.raises(EncodingError):
            encoder.accumulate_delta(levels, levels, np.zeros((2, DIM)))

    def test_wrong_accumulator_shape_rejected(self, encoder):
        levels = np.zeros((2, SHAPE[0] * SHAPE[1]), dtype=np.int64)
        with pytest.raises(EncodingError):
            encoder.accumulate_delta(levels, levels, np.zeros((2, DIM - 1)))


class TestRecordAccumulateDelta:
    """The record encoder's delta surface: exact over changed feature slots."""

    N_FEATURES = 24

    @pytest.fixture(scope="class", params=["linear", "random"])
    def record_encoder(self, request):
        return RecordEncoder(
            self.N_FEATURES, levels=32, dimension=DIM,
            level_encoding=request.param, rng=6,
        )

    def _levels(self, enc, records):
        return enc.quantize(np.asarray(records, dtype=np.float64))

    def test_randomized_mutation_chains(self, record_encoder):
        """delta == scratch along chains of random slot mutations.

        The child of each step becomes the next parent, so a single
        wrong correction would compound instead of hiding.
        """
        enc = record_encoder
        rng = np.random.default_rng(0)
        current = rng.random(self.N_FEATURES)
        acc = enc.accumulate_batch(current[None])[0]
        for _ in range(20):
            child = current.copy()
            k = int(rng.integers(1, 6))
            slots = rng.choice(self.N_FEATURES, size=k, replace=False)
            child[slots] = rng.random(k)
            delta = enc.accumulate_delta(
                self._levels(enc, child[None]),
                self._levels(enc, current[None]),
                acc[None],
            )[0]
            np.testing.assert_array_equal(delta, enc.accumulate_batch(child[None])[0])
            current, acc = child, delta

    def test_batch_of_children(self, record_encoder):
        enc = record_encoder
        rng = np.random.default_rng(2)
        parents = rng.random((6, self.N_FEATURES))
        children = parents + rng.normal(0, 0.2, parents.shape)
        got = enc.accumulate_delta(
            self._levels(enc, children),
            self._levels(enc, parents),
            enc.accumulate_batch(parents),
        )
        np.testing.assert_array_equal(got, enc.accumulate_batch(children))
        np.testing.assert_array_equal(
            enc.hvs_from_accumulators(got), enc.encode_batch(children)
        )

    def test_identical_child_copies_parent_accumulator(self, record_encoder):
        enc = record_encoder
        records = np.random.default_rng(3).random((3, self.N_FEATURES))
        accs = enc.accumulate_batch(records)
        levels = self._levels(enc, records)
        got = enc.accumulate_delta(levels, levels, accs)
        np.testing.assert_array_equal(got, accs)
        # And the parent accumulators are never written through.
        before = accs.copy()
        enc.accumulate_delta(levels, levels, accs)
        np.testing.assert_array_equal(accs, before)

    def test_compact_dtypes(self, record_encoder):
        """int16 levels/accumulators (the engines' storage) work unchanged."""
        enc = record_encoder
        rng = np.random.default_rng(4)
        parents = rng.random((4, self.N_FEATURES))
        children = np.clip(parents + rng.normal(0, 0.3, parents.shape), 0, 1)
        got = enc.accumulate_delta(
            self._levels(enc, children).astype(np.int16),
            self._levels(enc, parents).astype(np.int16),
            enc.accumulate_batch(parents).astype(np.int16),
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, enc.accumulate_batch(children))

    def test_shape_validation(self, record_encoder):
        enc = record_encoder
        levels = np.zeros((2, self.N_FEATURES), dtype=np.int64)
        with pytest.raises(EncodingError):
            enc.accumulate_delta(levels, levels[:, :-1], np.zeros((2, DIM)))
        with pytest.raises(EncodingError):
            enc.accumulate_delta(levels[:, :-1], levels[:, :-1], np.zeros((2, DIM)))
        with pytest.raises(EncodingError):
            enc.accumulate_delta(levels, levels, np.zeros((2, DIM - 1)))


class TestLevelRange:
    """Levels outside ``[0, levels)`` raise instead of reading another row.

    Codebook gathers do not check their indices: on a materialized
    16-level pixel codebook, child level 99 encoded as level 15 and −5
    as level 0; a rematerialized codebook generated rows that are no
    level's; a materialized n-gram codebook wrapped negative codes.
    """

    @pytest.fixture(params=["materialized", "rematerialized"])
    def codebook(self, request):
        return request.param

    @pytest.fixture(params=["pixel", "ngram"])
    def encoder(self, request, codebook):
        if request.param == "pixel":
            return PixelEncoder(shape=SHAPE, levels=16, dimension=DIM, rng=5, codebook=codebook)
        return NgramEncoder(3, alphabet="abcdefgh", dimension=DIM, rng=5, codebook=codebook)

    def _rows(self, encoder):
        """Two valid rows holding the lowest and the highest level."""
        n_keys = SHAPE[0] * SHAPE[1] if isinstance(encoder, PixelEncoder) else 12
        rows = np.zeros((2, n_keys), dtype=np.int16)
        rows[1, ::2] = encoder.levels - 1
        return rows

    @pytest.mark.parametrize("bad", [-5, -1, "levels", 99])
    @pytest.mark.parametrize("which", ["level_batch", "parent_levels"])
    def test_out_of_range_levels_rejected(self, encoder, which, bad):
        rows = self._rows(encoder)
        broken = rows.copy()
        broken[1, 3] = encoder.levels if bad == "levels" else bad
        args = (broken, rows) if which == "level_batch" else (rows, broken)
        with pytest.raises(EncodingError, match=rf"{which} must lie in \[0, {encoder.levels}\)"):
            encoder.accumulate_delta(*args, np.zeros((2, DIM), dtype=np.int64))

    def test_edge_levels_accepted(self, encoder):
        rows = self._rows(encoder)
        accs = np.zeros((2, DIM), dtype=np.int64)
        got = encoder.accumulate_delta(rows[::-1], rows, accs)
        assert got.shape == (2, DIM) and got.any()


"""Tests for the image mutation strategies (Table I semantics)."""

import numpy as np
import pytest

from repro.errors import MutationError
from repro.fuzz.mutations.noise import GaussianNoise, RandomNoise
from repro.fuzz.mutations.rowcol import ColRandom, RowColRandom, RowRandom
from repro.fuzz.mutations.shift import Shift


@pytest.fixture()
def image():
    return np.random.default_rng(0).uniform(30, 220, size=(28, 28))


#: Mid-grey and non-square: noise of amplitude below 127 is never clipped,
#: so every drawn change shows, and rows and columns differ in length.
GREY = np.full((5, 9), 128.0)


def reference_shift(strategy, image, n, generator):
    """``Shift.mutate`` as one draw pair and one ``np.roll`` per child."""
    out = np.empty((n, *image.shape))
    for child in range(n):
        axis, sign = Shift._DIRECTIONS[generator.integers(0, 4)]
        delta = sign * int(generator.integers(1, strategy.max_step + 1))
        rolled = np.roll(image, delta, axis=axis)
        if strategy.mode == "fill":
            vacated = [slice(None)] * 2
            vacated[axis] = slice(None, delta) if delta > 0 else slice(delta, None)
            rolled[tuple(vacated)] = 0.0
        out[child] = rolled
    return out


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestGaussianNoise:
    def test_shape(self, image):
        out = GaussianNoise().mutate(image, 5, rng=0)
        assert out.shape == (5, 28, 28)

    def test_original_untouched(self, image):
        before = image.copy()
        GaussianNoise().mutate(image, 3, rng=0)
        np.testing.assert_array_equal(image, before)

    def test_values_clipped(self):
        bright = np.full((8, 8), 254.0)
        out = GaussianNoise(sigma=50.0).mutate(bright, 10, rng=0)
        assert out.max() <= 255.0 and out.min() >= 0.0

    def test_touches_most_pixels(self, image):
        out = GaussianNoise(sigma=5.0).mutate(image, 1, rng=0)
        changed = (np.abs(out[0] - image) > 1e-9).mean()
        assert changed > 0.95

    def test_deterministic(self, image):
        a = GaussianNoise().mutate(image, 2, rng=7)
        b = GaussianNoise().mutate(image, 2, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_children_differ(self, image):
        out = GaussianNoise().mutate(image, 2, rng=0)
        assert not np.array_equal(out[0], out[1])

    def test_sigma_validated(self):
        with pytest.raises(Exception):
            GaussianNoise(sigma=-1.0)

    def test_rejects_batch_input(self):
        with pytest.raises(MutationError):
            GaussianNoise().mutate(np.zeros((2, 4, 4)), 1, rng=0)

    def test_matches_one_normal_draw(self):
        image = np.random.default_rng(2).uniform(0, 255, size=GREY.shape)
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = np.clip(
                image[None] + theirs.normal(0.0, 2.5, size=(16, *image.shape)), 0.0, 255.0
            )
            assert_same_bits(GaussianNoise().mutate(image, 16, rng=ours), expected)
            assert ours.random() == theirs.random()  # same generator state after


class TestRandomNoise:
    def test_touches_exactly_k_pixels(self, image):
        strat = RandomNoise(amplitude=50.0, pixels_per_step=5)
        out = strat.mutate(image, 4, rng=0)
        for child in out:
            changed = int((np.abs(child - image) > 1e-9).sum())
            assert changed <= 5  # clipping can mask a change, never add one

    def test_sparse_relative_to_gauss(self, image):
        rand_child = RandomNoise(pixels_per_step=8).mutate(image, 1, rng=0)[0]
        gauss_child = GaussianNoise().mutate(image, 1, rng=0)[0]
        rand_changed = (np.abs(rand_child - image) > 1e-9).sum()
        gauss_changed = (np.abs(gauss_child - image) > 1e-9).sum()
        assert rand_changed < gauss_changed / 10

    def test_amplitude_bounds_change(self, image):
        out = RandomNoise(amplitude=3.0, pixels_per_step=10).mutate(image, 3, rng=1)
        assert np.abs(out - image[None]).max() <= 3.0 + 1e-9

    def test_pixels_per_step_exceeding_image_rejected(self):
        strat = RandomNoise(pixels_per_step=100)
        with pytest.raises(MutationError, match="exceeds"):
            strat.mutate(np.zeros((8, 8)), 1, rng=0)

    def test_deterministic(self, image):
        a = RandomNoise().mutate(image, 3, rng=9)
        b = RandomNoise().mutate(image, 3, rng=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 8, GREY.size - 1, GREY.size])
    def test_changes_exactly_k_distinct_pixels(self, k):
        # k = 8 of 45 repeats a pixel in about half the first draws, so
        # redrawn rows and random-key rows both occur; k >= 44 always
        # ends on random keys.
        out = RandomNoise(amplitude=100.0, pixels_per_step=k).mutate(GREY, 64, rng=3)
        np.testing.assert_array_equal(np.count_nonzero(out != GREY, axis=(1, 2)), k)

    @pytest.mark.parametrize("k", [8, GREY.size - 1])
    def test_every_pixel_equally_likely(self, k):
        n = 4000
        out = RandomNoise(amplitude=100.0, pixels_per_step=k).mutate(GREY, n, rng=4)
        hits = np.count_nonzero(out != GREY, axis=0).ravel()
        p = k / GREY.size
        assert np.abs(hits - n * p).max() < 5 * np.sqrt(n * p * (1 - p))


class TestRowCol:
    def test_row_rand_touches_single_row(self, image):
        out = RowRandom(amplitude=40.0).mutate(image, 3, rng=0)
        for child in out:
            changed_rows = np.unique(np.nonzero(np.abs(child - image) > 1e-9)[0])
            assert len(changed_rows) == 1

    def test_col_rand_touches_single_col(self, image):
        out = ColRandom(amplitude=40.0).mutate(image, 3, rng=0)
        for child in out:
            changed_cols = np.unique(np.nonzero(np.abs(child - image) > 1e-9)[1])
            assert len(changed_cols) == 1

    def test_row_col_rand_mixes_axes(self, image):
        out = RowColRandom(amplitude=40.0).mutate(image, 32, rng=0)
        row_hits = 0
        col_hits = 0
        for child in out:
            rows = np.unique(np.nonzero(np.abs(child - image) > 1e-9)[0])
            cols = np.unique(np.nonzero(np.abs(child - image) > 1e-9)[1])
            if len(rows) == 1:
                row_hits += 1
            if len(cols) == 1:
                col_hits += 1
        assert row_hits > 0 and col_hits > 0

    def test_clipped(self):
        dark = np.zeros((8, 8))
        out = RowRandom(amplitude=100.0).mutate(dark, 5, rng=0)
        assert out.min() >= 0.0

    @pytest.mark.parametrize(
        "cls,axes", [(RowRandom, {0}), (ColRandom, {1}), (RowColRandom, {0, 1})]
    )
    def test_changes_exactly_one_whole_line(self, cls, axes):
        h, w = GREY.shape
        seen = set()
        for child in cls(amplitude=100.0).mutate(GREY, 32, rng=5):
            rows, cols = np.nonzero(child != GREY)
            if rows.size == w and np.unique(rows).size == 1:
                seen.add(0)
            else:
                assert cols.size == h and np.unique(cols).size == 1
                seen.add(1)
        assert seen == axes

    @pytest.mark.parametrize("cls", [RowRandom, ColRandom, RowColRandom])
    def test_deterministic(self, cls):
        a, b, c = (cls().mutate(GREY, 6, rng=seed) for seed in (9, 9, 10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestShift:
    def test_shift_moves_content(self):
        img = np.zeros((8, 8))
        img[4, 4] = 200.0
        out = Shift().mutate(img, 16, rng=0)
        for child in out:
            assert child.sum() in (0.0, 200.0)  # moved or slid out
            if child.sum() > 0:
                r, c = np.nonzero(child)
                assert (abs(int(r[0]) - 4) + abs(int(c[0]) - 4)) == 1

    def test_fill_mode_zeroes_vacated_edge(self):
        img = np.full((4, 4), 100.0)
        child = Shift(mode="fill").shift_once(img, axis=1, delta=1)
        np.testing.assert_array_equal(child[:, 0], np.zeros(4))
        np.testing.assert_array_equal(child[:, 1:], np.full((4, 3), 100.0))

    def test_wrap_mode_preserves_mass(self):
        img = np.random.default_rng(0).uniform(0, 255, size=(8, 8))
        child = Shift(mode="wrap").shift_once(img, axis=0, delta=3)
        assert child.sum() == pytest.approx(img.sum())

    def test_negative_delta(self):
        img = np.zeros((4, 4))
        img[0, 0] = 50.0
        child = Shift(mode="fill").shift_once(img, axis=0, delta=-1)
        assert child.sum() == 0.0  # slid off the top

    def test_pixel_values_never_invented(self):
        img = np.random.default_rng(1).uniform(0, 255, size=(8, 8))
        out = Shift().mutate(img, 8, rng=0)
        original_values = set(np.round(img.ravel(), 6)) | {0.0}
        for child in out:
            assert set(np.round(child.ravel(), 6)).issubset(original_values)

    def test_max_step_respected(self):
        img = np.zeros((9, 9))
        img[4, 4] = 10.0
        out = Shift(max_step=3).mutate(img, 20, rng=0)
        for child in out:
            if child.sum() > 0:
                r, c = np.nonzero(child)
                assert abs(int(r[0]) - 4) <= 3 and abs(int(c[0]) - 4) <= 3

    def test_invalid_axis(self):
        with pytest.raises(MutationError):
            Shift().shift_once(np.zeros((4, 4)), axis=2, delta=1)

    def test_invalid_mode(self):
        with pytest.raises(Exception):
            Shift(mode="extend")

    @pytest.mark.parametrize("mode", ["fill", "wrap"])
    @pytest.mark.parametrize("max_step", [1, 3])
    def test_matches_the_per_child_loop(self, max_step, mode):
        image = np.random.default_rng(2).uniform(0, 255, size=GREY.shape)
        strategy = Shift(max_step=max_step, mode=mode)
        for seed in range(10):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_bits(
                strategy.mutate(image, 16, rng=ours),
                reference_shift(strategy, image, 16, theirs),
            )
            assert ours.random() == theirs.random()  # same generator state after

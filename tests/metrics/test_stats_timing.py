"""Tests for aggregation helpers and timing utilities."""

import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics.stats import group_means
from repro.metrics.timing import Stopwatch, per_minute, per_thousand


class TestGroupMeans:
    def test_basic_grouping(self):
        out = group_means([1.0, 3.0, 5.0, 7.0], [0, 0, 1, 1])
        np.testing.assert_allclose(out, [2.0, 6.0])

    def test_empty_group_nan(self):
        out = group_means([1.0], [2], n_groups=4)
        assert np.isnan(out[0]) and np.isnan(out[1]) and np.isnan(out[3])
        assert out[2] == 1.0

    def test_n_groups_inferred(self):
        assert group_means([1.0, 2.0], [0, 5]).shape == (6,)

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            group_means([1.0, 2.0], [0])

    def test_empty_inputs(self):
        assert group_means([], []).shape == (0,)


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_live_reading_while_running(self):
        with Stopwatch() as sw:
            first = sw.elapsed
            time.sleep(0.005)
            assert sw.elapsed >= first

    def test_frozen_after_exit(self):
        with Stopwatch() as sw:
            pass
        frozen = sw.elapsed
        time.sleep(0.005)
        assert sw.elapsed == frozen


class TestRates:
    def test_per_thousand(self):
        assert per_thousand(10.0, 100) == pytest.approx(100.0)

    def test_per_minute(self):
        assert per_minute(30.0, 200) == pytest.approx(400.0)

    def test_paper_rate_sanity(self):
        # "HDTest can generate around 400 adversarial inputs within one
        # minute" — i.e. 1000 images in ~150 s.
        assert per_minute(150.0, 1000) == pytest.approx(400.0)

    def test_per_thousand_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            per_thousand(1.0, 0)

    def test_per_minute_rejects_zero_elapsed(self):
        with pytest.raises(ConfigurationError):
            per_minute(0.0, 5)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError):
            per_thousand(-1.0, 5)

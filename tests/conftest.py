"""Shared fixtures: one small trained model reused across test modules.

Tests use a deliberately small hypervector dimension (1024) and dataset
so the whole suite stays fast; statistical assertions are calibrated
for that scale (bipolar HV cosine noise at D=1024 is ≈ 1/√1024 ≈ 0.03).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_digits
from repro.hdc import HDCClassifier, PixelEncoder

TEST_DIMENSION = 1024


@pytest.fixture(scope="session")
def digit_data():
    """Small synthetic digit train/test split (deterministic)."""
    return load_digits(n_train=400, n_test=80, seed=7)


@pytest.fixture(scope="session")
def trained_model(digit_data):
    """An HDC classifier trained on the small split (D=1024)."""
    train, _ = digit_data
    encoder = PixelEncoder(dimension=TEST_DIMENSION, rng=7)
    return HDCClassifier(encoder, n_classes=10).fit(train.images, train.labels)


@pytest.fixture(scope="session")
def test_images(digit_data):
    """Float64 test images in [0, 255] for fuzzing."""
    _, test = digit_data
    return test.images.astype(np.float64)


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def popcount_calls(monkeypatch):
    """Shapes of the query blocks the packed popcount kernel answers.

    Spies on :func:`repro.hdc.backends.packed.hamming_counts`, which every
    popcount cosine (packed or dense, AM or ``cosine_matrix``) goes
    through, so tests can pin which path a query took.
    """
    from repro.hdc.backends import packed

    calls = []
    real = packed.hamming_counts

    def spy(queries, references):
        calls.append(np.shape(queries))
        return real(queries, references)

    monkeypatch.setattr(packed, "hamming_counts", spy)
    return calls

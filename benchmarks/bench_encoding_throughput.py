"""Micro-benchmarks: scratch-encoding throughput (the fuzzer's hot path).

Every fuzzing iteration encodes a batch of mutated seeds, so encoder
throughput bounds HDTest's generation rate end to end.  These benches
time the scratch encode of the two key ⊛ value families — digits and
617-feature (ISOLET-length) records, both a delta from the all-level-0
input through the fused kernel (:mod:`repro.hdc.encoders.keyvalue`) —
and the similarity query.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PAPER_DIMENSION, SEED

from repro.hdc import PixelEncoder, RecordEncoder
from repro.hdc.similarity import cosine_matrix

BATCH = 16


@pytest.fixture(scope="module")
def images(digit_data):
    _, test = digit_data
    return test.images[:BATCH].astype(np.float64)


def test_encode_sparse_path(benchmark, images):
    encoder = PixelEncoder(dimension=PAPER_DIMENSION, rng=SEED)
    out = benchmark(lambda: encoder.encode_batch(images))
    assert out.shape == (BATCH, PAPER_DIMENSION)


def test_encode_records(benchmark):
    """617-feature records: nearly every slot is off level 0."""
    encoder = RecordEncoder(617, dimension=PAPER_DIMENSION, rng=SEED)
    records = np.random.default_rng(SEED).random((BATCH, 617))
    out = benchmark(lambda: encoder.encode_batch(records))
    assert out.shape == (BATCH, PAPER_DIMENSION)


def test_similarity_query(benchmark, digit_data):
    _, test = digit_data
    encoder = PixelEncoder(dimension=PAPER_DIMENSION, rng=SEED)
    queries = encoder.encode_batch(test.images[:BATCH].astype(np.float64))
    references = encoder.encode_batch(test.images[BATCH : 2 * BATCH].astype(np.float64))[:10]
    out = benchmark(lambda: cosine_matrix(queries, references))
    assert out.shape == (BATCH, 10)

"""The one scratch-encode path: blocked ``encode_batch`` in exact compact dtypes.

Every encoder exposing ``accumulate_batch`` encodes through
``Encoder.encode_batch`` in blocks of ``_blocked.block_rows(D)`` inputs,
and builds its accumulators in ``_blocked.exact_dtype`` of their bound.
These tests pin what makes both invisible: batches on either side of one
and several block boundaries encode exactly as one input at a time, for
every family and both codebook kinds; and what makes them worth doing:
a paper-scale image or record encode's working set stays bounded
whatever the batch size.
"""

import tracemalloc

import numpy as np
import pytest

from repro.hdc.backends import PackedBipolarEncoder, PackedPixelEncoder
from repro.hdc.binary_model import BinaryPixelEncoder
from repro.hdc.encoders import _blocked
from repro.hdc.encoders._blocked import block_rows, exact_dtype
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder

DIM = 128
BLOCK = 7  # block rows the tests force at DIM
CODEBOOKS = ["materialized", "rematerialized"]
IMAGE_FAMILIES = [PixelEncoder, PackedBipolarEncoder, BinaryPixelEncoder, PackedPixelEncoder]


def _encoder(family, codebook):
    if family == "record":
        return RecordEncoder(
            12, levels=8, dimension=DIM, rng=5, codebook=codebook,
            level_encoding="random" if codebook == "rematerialized" else "linear",
        )
    if family == "ngram":
        return NgramEncoder(3, alphabet="abcdefgh", dimension=DIM, rng=5, codebook=codebook)
    return family(shape=(6, 5), levels=16, dimension=DIM, rng=5, codebook=codebook)


def _items(encoder, n, rng):
    if isinstance(encoder, RecordEncoder):
        return rng.random((n, 12))
    if isinstance(encoder, NgramEncoder):
        # Ragged lengths, some longer than a block of grams.
        lengths = rng.integers(3, 4 * BLOCK, n)
        return ["".join(rng.choice(list("abcdefgh"), size)) for size in lengths]
    images = rng.integers(0, 256, (n, 6, 5)).astype(np.float64)
    images[rng.random(images.shape) < 0.6] = 0.0  # mostly background
    return images


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", IMAGE_FAMILIES + ["record", "ngram"])
def test_block_boundaries_encode_like_one_input_at_a_time(family, codebook, monkeypatch):
    monkeypatch.setattr(_blocked, "BLOCK_ELEMS", BLOCK * DIM)
    assert block_rows(DIM) == BLOCK
    encoder = _encoder(family, codebook)
    rng = np.random.default_rng(11)
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        items = _items(encoder, n, rng)
        got = encoder.encode_batch(items)
        expected = np.stack([encoder.encode(item) for item in items])
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("family", IMAGE_FAMILIES + ["record", "ngram"])
def test_accumulators_built_in_the_exact_compact_dtype(family):
    encoder = _encoder(family, "materialized")
    items = _items(encoder, 4, np.random.default_rng(3))
    accs = encoder.accumulate_batch(items)
    assert accs.dtype == np.int16
    reference = [encoder.accumulate_batch(items[i : i + 1])[0] for i in range(4)]
    np.testing.assert_array_equal(accs, np.stack(reference))


def test_exact_dtype_widens_past_each_bound():
    assert exact_dtype(784) == np.int16
    assert exact_dtype(np.iinfo(np.int16).max) == np.int16
    assert exact_dtype(np.iinfo(np.int16).max + 1) == np.int32
    assert exact_dtype(np.iinfo(np.int32).max + 1) == np.int64


def test_single_item_arrays_read_as_a_batch_of_one(monkeypatch):
    monkeypatch.setattr(_blocked, "BLOCK_ELEMS", DIM)  # one input per block
    encoder = _encoder(PixelEncoder, "materialized")
    image = _items(encoder, 1, np.random.default_rng(2))[0]
    np.testing.assert_array_equal(encoder.encode_batch(image), encoder.encode(image)[None])


@pytest.mark.parametrize("family", IMAGE_FAMILIES)
def test_paper_scale_scratch_encode_is_bounded(family, digit_data):
    # An unblocked int64 encode held a 32 MB (n, D) accumulator block
    # for 400 digits alone, and its transient grew with n.
    train, _ = digit_data
    encoder = family(dimension=10_000, rng=3)
    encoder.encode_batch(train.images[:2])  # warm the kernel buffers
    for n in (400, 1600):
        images = np.concatenate([train.images] * (n // len(train.images)))
        tracemalloc.start()
        try:
            hvs = encoder.encode_batch(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hvs.shape[0] == n
        assert peak - hvs.nbytes <= 8_000_000, (n, peak - hvs.nbytes)


@pytest.mark.parametrize("family", ["record"])
def test_paper_scale_grouped_encode_is_bounded(family):
    # A record scratch encode is a delta from the all-level-0 record, so
    # nearly every slot changes: a 104-record block (64 168 entries)
    # runs as two kernel blocks; as one it would read 9.4 MB.
    encoder = RecordEncoder(617, dimension=10_000, rng=3)
    items = np.random.default_rng(3).random((400, 617))
    encoder.encode_batch(items[:2])
    tracemalloc.start()
    try:
        hvs = encoder.encode_batch(items)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hvs.shape[0] == 400
    assert peak - hvs.nbytes <= 8_000_000, peak - hvs.nbytes

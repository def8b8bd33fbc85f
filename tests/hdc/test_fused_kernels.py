"""Property tests at the fused encode kernel's exactness boundaries.

The kernel in :mod:`repro.hdc.encoders._blocked` (and the encoder
methods built on it) cuts calls into child blocks of at most
``BLOCK_ENTRIES`` changed entries, cuts children into tiles of at most
``tile_rows(D)`` changed entries, sums each tile in the most compact
exact dtype, and gathers value differences from a bounded pair table.
These tests pin the contract that makes those choices invisible: on
*any* block — empty deltas, everything changed, children on either
side of one and two tiles, blocks straddling the int16 tile cap,
ragged chunks, calls cut into pair-table windows and child blocks,
randomized mutation chains — the fused result is bit-identical to the
pre-fusion one-``accumulate_delta``-call-per-child loop and to an
independent scratch reference (:class:`ScratchReference`), for every
delta family and both codebook kinds.  Large blocks run in two halves
on two threads; the split path is forced on and off here, and both
must give the same bits.
"""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.hdc.backends import PackedPixelEncoder
from repro.hdc.binary_model import BinaryPixelEncoder
from repro.hdc.encoders import _blocked
from repro.hdc.encoders._blocked import tile_rows
from repro.fuzz.mutations import create_strategy
from repro.hdc.backends import PackedBipolarEncoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.encoders.keyvalue import KeyValueEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder
from repro.hdc.item_memory import RematerializedItemMemory
from repro.hdc.spaces import BinarySpace

DIM = 96
CODEBOOKS = ["materialized", "rematerialized"]

# Tile heights are capped where ±2-bounded (bipolar) partial sums stay
# int16-exact; binary corrections are ±1-bounded.
BIPOLAR_INT16_SAFE = np.iinfo(np.int16).max // 2  # 16383
BINARY_INT16_SAFE = np.iinfo(np.int16).max  # 32767


def per_row_delta(encoder, levels, parents, accs):
    """The pre-fusion reference: one ``accumulate_delta`` call per child."""
    return np.concatenate(
        [
            encoder.accumulate_delta(
                levels[i : i + 1], parents[i : i + 1], accs[i : i + 1]
            )
            for i in range(levels.shape[0])
        ]
    )


class ScratchReference:
    """Scratch accumulators ``Σ_k key_k ⊛ val[x_k]``, one input at a time.

    Every key ⊛ value encoder's own ``accumulate_batch`` runs the fused
    delta kernel (a delta from the all-level-0 input), so it cannot be
    the independent scratch reference their delta tests compare
    against; this is, with plain multiplication (bipolar) or XOR
    (binary) over the codebook rows.
    """

    def __init__(self, encoder):
        self.encoder = encoder

    def accumulate_batch(self, items):
        enc = self.encoder
        keys = enc.codebooks()[enc.KEY].vectors
        values = enc.value_memory.vectors
        bind = np.bitwise_xor if enc.SPACE is BinarySpace else np.multiply
        return np.stack(
            [
                bind(keys, values[row.ravel()]).sum(axis=0, dtype=np.int64)
                for row in enc.quantize(items)
            ]
        )


def scratch_twin(encoder):
    """A scratch reference for *encoder* that never enters the delta kernel."""
    if isinstance(encoder, KeyValueEncoder):
        return ScratchReference(encoder)
    return encoder  # the n-gram scratch path gathers grams directly


def force_split(monkeypatch, on: bool, entries: int = 1) -> None:
    """Split every call of at least *entries* changed entries (*on*), or none."""
    monkeypatch.setattr(_blocked, "usable_cores", lambda: 2 if on else 1)
    monkeypatch.setattr(_blocked, "SPLIT_ENTRIES", entries)


class HalfCounter:
    """Spy on ``_blocked._in_two_halves``: how many calls ran split."""

    def __init__(self, monkeypatch):
        self.calls = 0
        in_two_halves = _blocked._in_two_halves

        def spy(first, second):
            self.calls += 1
            return in_two_halves(first, second)

        monkeypatch.setattr(_blocked, "_in_two_halves", spy)


def assert_delta_exact(encoder, levels, parents, parent_accs, scratch):
    fused = encoder.accumulate_delta(levels, parents, parent_accs)
    looped = per_row_delta(encoder, levels, parents, parent_accs)
    np.testing.assert_array_equal(fused, looped)
    np.testing.assert_array_equal(fused, scratch)
    return fused


# -- randomized mutation chains (engine-shaped workloads) -------------------
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_image_families_fused_chain(family, codebook):
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    enc = cls(shape=(9, 7), levels=16, dimension=DIM, rng=11, codebook=codebook)
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, (6, 9, 7)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    np.testing.assert_array_equal(accs, scratch_twin(enc).accumulate_batch(images))
    for frac in (0.05, 0.4, 1.0):
        children = images.copy().reshape(6, -1)
        for i in range(6):
            k = max(1, int(frac * children.shape[1]))
            idx = rng.choice(children.shape[1], size=k, replace=False)
            children[i, idx] = rng.integers(0, 256, k)
        children = children.reshape(6, 9, 7)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children).reshape(6, -1),
            enc.quantize(images).reshape(6, -1),
            accs,
            scratch_twin(enc).accumulate_batch(children),
        )
        images = children


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("packed", [False, True])
def test_binary_scratch_matches_xor_reference(packed, codebook):
    """The binary families' scratch path against plain per-image XOR sums."""
    cls = PackedPixelEncoder if packed else BinaryPixelEncoder
    enc = cls(shape=(9, 7), levels=16, dimension=DIM, rng=19, codebook=codebook)
    rng = np.random.default_rng(23)
    images = rng.integers(0, 256, (9, 9, 7)).astype(np.float64)
    images[rng.random(images.shape) < 0.7] = 0.0
    images[0] = 0.0  # the all-background image is the delta's parent
    images[1] = 255.0  # every pixel changed
    reference = ScratchReference(enc).accumulate_batch(images)
    np.testing.assert_array_equal(enc.accumulate_batch(images), reference)
    bits = (reference >= enc.position_memory.size / 2).astype(np.int8)
    hvs = enc.encode_batch(images)
    np.testing.assert_array_equal(enc.unpack(hvs) if packed else hvs, bits)


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "packed-bipolar", "record"])
def test_bipolar_scratch_matches_the_reference(family, codebook):
    """The bipolar families' scratch path against plain per-input products."""
    rng = np.random.default_rng(29)
    if family == "record":
        enc = RecordEncoder(
            20, levels=12, dimension=DIM, rng=19, codebook=codebook,
            level_encoding="random" if codebook == "rematerialized" else "linear",
        )
        items = rng.random((9, 20))
        items[rng.random(items.shape) < 0.3] = 0.0
    else:
        cls = PackedBipolarEncoder if family == "packed-bipolar" else PixelEncoder
        enc = cls(shape=(9, 7), levels=16, dimension=DIM, rng=19, codebook=codebook)
        items = rng.integers(0, 256, (9, 9, 7)).astype(np.float64)
        items[rng.random(items.shape) < 0.7] = 0.0
    items[0] = 0.0  # the all-level-0 input is the delta's parent
    items[1] = items.max()  # every slot changed
    reference = ScratchReference(enc).accumulate_batch(items)
    np.testing.assert_array_equal(enc.accumulate_batch(items), reference)
    signs = np.where(reference >= 0, 1, -1).astype(np.int8)
    hvs = enc.encode_batch(items)
    np.testing.assert_array_equal(enc.unpack(hvs) if family == "packed-bipolar" else hvs, signs)


@pytest.mark.parametrize("codebook", CODEBOOKS)
def test_ngram_fused_chain(codebook):
    enc = NgramEncoder(
        3, alphabet="abcdefgh", dimension=DIM, rng=13, codebook=codebook
    )
    rng = np.random.default_rng(17)
    codes = rng.integers(0, 8, (5, 14))
    accs = enc.accumulate_batch(codes)
    for n_mut in (1, 4, 14):
        children = codes.copy()
        for i in range(5):
            idx = rng.choice(14, size=n_mut, replace=False)
            children[i, idx] = rng.integers(0, 8, n_mut)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children),
            enc.quantize(codes),
            accs,
            enc.accumulate_batch(children),
        )
        codes = children


@pytest.mark.parametrize(
    "codebook,level_encoding",
    [("materialized", "linear"), ("rematerialized", "random")],
)
def test_record_fused_chain(codebook, level_encoding):
    enc = RecordEncoder(
        20,
        levels=12,
        level_encoding=level_encoding,
        dimension=DIM,
        rng=19,
        codebook=codebook,
    )
    rng = np.random.default_rng(23)
    records = rng.random((6, 20))
    accs = enc.accumulate_batch(records)
    np.testing.assert_array_equal(accs, scratch_twin(enc).accumulate_batch(records))
    for n_mut in (2, 20):
        children = records.copy()
        for i in range(6):
            idx = rng.choice(20, size=n_mut, replace=False)
            children[i, idx] = rng.random(n_mut)
        accs = assert_delta_exact(
            enc,
            enc.quantize(children),
            enc.quantize(records),
            accs,
            scratch_twin(enc).accumulate_batch(children),
        )
        records = children


# -- degenerate blocks ------------------------------------------------------
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_empty_delta_block_returns_parent_accumulators(family):
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    enc = cls(shape=(5, 5), levels=8, dimension=DIM, rng=3)
    rng = np.random.default_rng(29)
    images = rng.integers(0, 256, (4, 5, 5)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    levels = enc.quantize(images).reshape(4, -1)
    fused = enc.accumulate_delta(levels, levels, accs)
    np.testing.assert_array_equal(fused, accs)
    assert fused is not accs  # fresh block, parents untouched


def test_mixed_empty_and_full_rows_in_one_block():
    enc = PixelEncoder(shape=(6, 6), levels=8, dimension=DIM, rng=7)
    rng = np.random.default_rng(31)
    images = rng.integers(0, 256, (3, 6, 6)).astype(np.float64)
    accs = enc.accumulate_batch(images)
    children = images.copy()
    # row 0: unchanged; row 1: one pixel; row 2: every pixel changed
    children[1, 2, 3] = (children[1, 2, 3] + 128.0) % 256.0
    children[2] = (children[2] + 64.0) % 256.0
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(3, -1),
        enc.quantize(images).reshape(3, -1),
        accs,
        scratch_twin(enc).accumulate_batch(children),
    )


# -- the int16 tile-height cap ----------------------------------------------
def _boundary_images(shape, ks):
    """All-zero parents plus children with exactly ``k`` changed pixels."""
    n_pixels = shape[0] * shape[1]
    parents = np.zeros((len(ks), n_pixels), dtype=np.float64)
    children = parents.copy()
    for i, k in enumerate(ks):
        children[i, :k] = 255.0
    return (
        parents.reshape(len(ks), *shape),
        children.reshape(len(ks), *shape),
    )


@pytest.mark.parametrize(
    "ks",
    [
        [BIPOLAR_INT16_SAFE - 1, BIPOLAR_INT16_SAFE],  # one tile each
        [BIPOLAR_INT16_SAFE, BIPOLAR_INT16_SAFE + 1],  # splits past the cap
    ],
)
def test_bipolar_int16_crossover(ks):
    shape = (129, 128)  # 16512 pixels > int16-safe bound
    enc = PixelEncoder(shape=shape, levels=4, dimension=32, rng=41)
    parents, children = _boundary_images(shape, ks)
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        enc.accumulate_batch(parents),
        scratch_twin(enc).accumulate_batch(children),
    )


@pytest.mark.parametrize(
    "ks",
    [
        [1, BINARY_INT16_SAFE],  # three tiles
        [1, BINARY_INT16_SAFE + 1],  # three tiles, one entry more
    ],
)
def test_binary_int16_crossover(ks):
    shape = (256, 129)  # 33024 pixels > int16-safe bound
    enc = BinaryPixelEncoder(shape=shape, levels=4, dimension=32, rng=43)
    parents, children = _boundary_images(shape, ks)
    assert_delta_exact(
        enc,
        enc.quantize(children).reshape(len(ks), -1),
        enc.quantize(parents).reshape(len(ks), -1),
        enc.accumulate_batch(parents),
        ScratchReference(enc).accumulate_batch(children),
    )


# -- tile boundaries --------------------------------------------------------
TILE = tile_rows(DIM)  # changed entries per fused-delta tile at DIM
# 1-pixel children interleaved with children on either side of one and
# two tiles (the last splits into three tiles).
TILE_KS = [1, TILE - 1, 1, TILE, TILE + 1, 1, 2 * TILE + 1, 1]


def _delta_block(family, codebook, ks, levels):
    """``(encoder, scratch twin, child levels, parent levels, parent accs)``.

    Child *i* differs from its parent in exactly ``ks[i]`` pixels.  The
    scratch twin is the :class:`ScratchReference`, which never enters
    the delta kernel.
    """
    side = math.isqrt(max(ks)) + 1
    cls = PixelEncoder if family == "pixel" else BinaryPixelEncoder
    enc = cls(
        shape=(side, side), levels=levels, dimension=DIM, rng=47, codebook=codebook
    )
    scratch = ScratchReference(enc)
    rng = np.random.default_rng(53)
    parents = rng.integers(0, levels, (len(ks), side * side))
    children = parents.copy()
    for i, k in enumerate(ks):
        idx = rng.choice(side * side, size=k, replace=False)
        children[i, idx] = (parents[i, idx] + rng.integers(1, levels, k)) % levels
    images = _grey(parents, levels, side)
    return enc, scratch, children, parents, scratch.accumulate_batch(images)


def _grey(level_rows, levels, side):
    """Images whose pixels quantise to *level_rows* (grey 255·l / (L − 1))."""
    return 255.0 / (levels - 1) * level_rows.reshape(len(level_rows), side, side)


def _tile_block(family, codebook):
    return _delta_block(family, codebook, TILE_KS, 4)


@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_tile_boundaries_fused_matches_per_child_and_scratch(family, codebook):
    assert max(TILE_KS) > 2 * TILE  # the split path runs at this D
    enc, scratch, children, parents, accs = _tile_block(family, codebook)
    np.testing.assert_array_equal(
        np.count_nonzero(children != parents, axis=1), TILE_KS
    )
    side = enc.shape[0]
    child_images = 85.0 * children.reshape(len(TILE_KS), side, side)
    fused = assert_delta_exact(
        enc, children, parents, accs, scratch.accumulate_batch(child_images)
    )
    compact = enc.accumulate_delta(
        children, parents, accs.astype(np.int16), result_dtype=np.int16
    )
    assert compact.dtype == np.int16
    np.testing.assert_array_equal(compact, fused)


@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_rematerialized_rows_generated_once_per_memory_per_block(
    family, monkeypatch
):
    enc, _, children, parents, accs = _tile_block(family, "rematerialized")
    halves = HalfCounter(monkeypatch)
    takes = []
    take = RematerializedItemMemory.take

    def spy(memory, index):
        takes.append(id(memory))
        return take(memory, index)

    monkeypatch.setattr(RematerializedItemMemory, "take", spy)
    memories = [id(enc.position_memory), id(enc.value_memory)]
    bounds = np.cumsum([0] + TILE_KS)
    # One take per memory per block: a whole call, a split one, and one
    # cut into four child blocks of at most 2·TILE + 1 entries.
    splits = 0
    for split, budget, blocks in ((False, None, 1), (True, None, 1), (False, 2 * TILE + 1, 4)):
        force_split(monkeypatch, split)
        if budget is not None:
            monkeypatch.setattr(_blocked, "BLOCK_ENTRIES", budget)
            assert len(list(_blocked._child_chunks(bounds, len(TILE_KS), budget))) == blocks
        takes.clear()
        enc.accumulate_delta(children, parents, accs)
        assert sorted(takes) == sorted(memories * blocks)
        splits += split
        assert halves.calls == splits


# -- the pair table ---------------------------------------------------------
# Changed entries per child at 16 levels.  Under the tight budget below,
# child 3 alone holds more distinct (new, old) pairs than one window and
# splits mid-child; the others pack several children to a window.
PAIR_KS = [1, 3, 2, 40, 1, 5, 4, 2]
TIGHT_PAIRS = 6  # pair rows the tight table holds besides its zero row


def _pair_block(family, codebook, ks, result_dtype):
    """A 16-level :func:`_delta_block` and its fused delta in *result_dtype*."""
    block = _delta_block(family, codebook, ks, 16)
    enc, _, children, parents, accs = block
    fused = enc.accumulate_delta(
        children, parents, accs.astype(result_dtype), result_dtype=result_dtype
    )
    assert fused.dtype == result_dtype
    return fused, block


def _assert_matches_references(fused, block):
    """*fused* equals the per-child loop and the scratch encode of *block*."""
    enc, scratch, children, parents, accs = block
    np.testing.assert_array_equal(fused, per_row_delta(enc, children, parents, accs))
    np.testing.assert_array_equal(
        fused, scratch.accumulate_batch(_grey(children, 16, enc.shape[0]))
    )


@pytest.mark.parametrize("result_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_pair_table_windows_match_per_child_and_scratch(
    family, codebook, result_dtype, monkeypatch
):
    monkeypatch.setattr(_blocked, "PAIR_TABLE_ELEMS", (TIGHT_PAIRS + 1) * DIM)
    windows = []
    pair_windows = _blocked._pair_windows

    def spy(keys, bounds, capacity):
        for window in pair_windows(keys, bounds, capacity):
            windows.append(window[:2] + (window[2].size,))
            yield window

    monkeypatch.setattr(_blocked, "_pair_windows", spy)
    fused, block = _pair_block(family, codebook, PAIR_KS, result_dtype)
    bounds = set(np.cumsum([0] + PAIR_KS).tolist())
    # Consecutive windows cover the block, each within the budget; the
    # over-budget child is cut mid-child, and some window packs
    # several whole children.
    assert [w[0] for w in windows[1:]] == [w[1] for w in windows[:-1]]
    assert (windows[0][0], windows[-1][1]) == (0, sum(PAIR_KS))
    assert all(n_pairs <= TIGHT_PAIRS for _, _, n_pairs in windows)
    assert any(end not in bounds for _, end, _ in windows)
    assert any(
        len(bounds & set(range(start + 1, end))) > 0 and {start, end} <= bounds
        for start, end, _ in windows
    )
    _assert_matches_references(fused, block)


@pytest.mark.parametrize("result_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_ragged_chunk_pad_lanes_gather_the_zero_row(
    family, codebook, result_dtype, monkeypatch
):
    ks = [1, 2, 5, 3, 7]  # tiles of mixed height, a padded chunk per half
    assert len(ks) * max(ks) <= TILE
    force_split(monkeypatch, True)
    _assert_matches_references(*_pair_block(family, codebook, ks, result_dtype))
    # Both halves ran, each through its own buffer set, and neither
    # wrote its table's zero row.
    for _, _, table in _blocked._KERNEL_BUFFERS[DIM]:
        assert table[1].any() and not table[0].any()


def test_binary_correction_identity():
    """``(p ⊕ a) − (p ⊕ b) = (a − b)·(1 − 2p)`` on every {0, 1} triple."""
    p, a, b = np.array(list(np.ndindex(2, 2, 2)), dtype=np.int8).T
    np.testing.assert_array_equal((p ^ a) - (p ^ b), (a - b) * (1 - 2 * p))


# -- the two-thread split ---------------------------------------------------
def _split_and_whole(monkeypatch, block, result_dtype):
    """*block*'s fused delta with the split forced on, then forced off."""
    enc, _, children, parents, accs = block
    results = []
    for on in (True, False):
        force_split(monkeypatch, on)
        threads = threading.active_count()
        results.append(
            enc.accumulate_delta(
                children, parents, accs.astype(result_dtype), result_dtype=result_dtype
            )
        )
        assert threading.active_count() == threads  # no helper outlives a call
    return results


# Child entry counts: one child (nothing to cut), two, and an odd count
# whose middle falls inside a child.
SPLIT_KS = [[2 * TILE + 5], [TILE + 3, 7], [5, TILE + 9, 1, 2 * TILE, 3]]


@pytest.mark.parametrize("ks", SPLIT_KS, ids=["1-child", "2-children", "5-children"])
@pytest.mark.parametrize("result_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_split_calls_match_whole_calls(family, codebook, result_dtype, ks, monkeypatch):
    halves = HalfCounter(monkeypatch)
    block = _delta_block(family, codebook, ks, 16)
    split, whole = _split_and_whole(monkeypatch, block, result_dtype)
    assert halves.calls == (len(ks) > 1)
    assert split.dtype == whole.dtype == result_dtype
    np.testing.assert_array_equal(split, whole)
    _assert_matches_references(split, block)


@pytest.mark.parametrize("result_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_each_half_runs_its_own_pair_windows(family, codebook, result_dtype, monkeypatch):
    monkeypatch.setattr(_blocked, "PAIR_TABLE_ELEMS", (TIGHT_PAIRS + 1) * DIM)
    halves = HalfCounter(monkeypatch)
    runs = {}
    pair_windows = _blocked._pair_windows

    def spy(keys, bounds, capacity):
        windows = runs.setdefault((threading.get_ident(), keys.size), [])
        for window in pair_windows(keys, bounds, capacity):
            windows.append(window[:2])
            yield window

    monkeypatch.setattr(_blocked, "_pair_windows", spy)
    ks = PAIR_KS + PAIR_KS[::-1]  # the over-budget child in each half
    block = _delta_block(family, codebook, ks, 16)
    split, whole = _split_and_whole(monkeypatch, block, result_dtype)
    assert halves.calls == 1
    # The split call ran two halves on two threads, the whole call one
    # pass; each half ran several windows and cut its over-budget child.
    assert sorted(size for _, size in runs) == [sum(PAIR_KS)] * 2 + [sum(ks)]
    assert len({ident for ident, _ in runs}) == 2
    caller = threading.get_ident()
    helper = next(ident for ident, _ in runs if ident != caller)
    for ident, half_ks in ((caller, PAIR_KS), (helper, PAIR_KS[::-1])):
        windows = runs[ident, sum(half_ks)]
        child_ends = set(np.cumsum([0] + half_ks).tolist())
        assert len(windows) > 2
        assert any(end not in child_ends for _, end in windows)
    np.testing.assert_array_equal(split, whole)
    _assert_matches_references(split, block)


# Children with no changed entry between the others: their flat-index
# bounds repeat.
LAYOUT_KS = [5, 0, TILE + 9, 1, 2 * TILE, 0, 3]


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("layout", ["member-axis", "fortran"])
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_non_contiguous_level_blocks_match_contiguous_ones(
    family, layout, split, monkeypatch
):
    """Changed entries are found in C order whatever the level blocks' layout."""
    block = _delta_block(family, "materialized", LAYOUT_KS, 16)
    enc, _, children, parents, accs = block
    force_split(monkeypatch, split)
    contiguous = enc.accumulate_delta(children, parents, accs)
    if layout == "member-axis":
        # An ensemble passes member m's (n, P) slice of (n, K, P) stacks.
        def member(rows):
            return np.stack([rows[::-1], rows, np.zeros_like(rows)], axis=1)[:, 1]
    else:
        member = np.asfortranarray
    child_view, parent_view = member(children), member(parents)
    assert not (child_view.flags.c_contiguous or parent_view.flags.c_contiguous)
    result = enc.accumulate_delta(child_view, parent_view, accs)
    np.testing.assert_array_equal(result, contiguous)
    _assert_matches_references(result, block)


def test_split_rule_at_the_entry_threshold(monkeypatch):
    enc, _, children, parents, accs = _delta_block("pixel", "materialized", [30, 31], 16)
    halves = HalfCounter(monkeypatch)
    results = []
    for threshold, split in ((62, False), (61, True)):  # N = entries + 1, N = entries
        force_split(monkeypatch, True, threshold)
        results.append(enc.accumulate_delta(children, parents, accs))
        assert halves.calls == split
    np.testing.assert_array_equal(*results)


def test_calls_stay_whole_without_a_spare_core(monkeypatch):
    """Each call reads the process's CPU affinity."""
    halves = HalfCounter(monkeypatch)
    monkeypatch.setattr(_blocked, "SPLIT_ENTRIES", 1)
    enc, _, children, parents, accs = _delta_block("pixel", "materialized", [30, 31], 16)
    results = []
    for cores, splits in (({0}, 0), ({0, 1}, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: c, raising=False)
        results.append(enc.accumulate_delta(children, parents, accs))
        assert halves.calls == splits
    np.testing.assert_array_equal(*results)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
def test_index_slices_do_not_change_the_sums(split, monkeypatch):
    """Gather indices built a chunk at a time or a window at once: same bits."""
    block = _delta_block("binary", "rematerialized", [5, TILE + 9, 1, 2 * TILE, 3, 2, 2], 16)
    enc, _, children, parents, accs = block
    force_split(monkeypatch, split)
    lanes_per_slice = []
    lane_slices = _blocked._lane_slices

    def spy(*args):
        for piece in lane_slices(*args):
            lanes_per_slice.append(piece[2].size)
            yield piece

    monkeypatch.setattr(_blocked, "_lane_slices", spy)
    results, slices = [], []
    for budget in (1, 10 * TILE):
        monkeypatch.setattr(_blocked, "INDEX_LANES", budget)
        lanes_per_slice.clear()
        results.append(enc.accumulate_delta(children, parents, accs))
        slices.append(list(lanes_per_slice))
    one_chunk_each, one_per_half = slices
    assert max(one_chunk_each) <= TILE  # a chunk holds at most one tile's rows
    assert len(one_per_half) == 1 + split
    assert len(one_chunk_each) > len(one_per_half)
    assert sum(one_chunk_each) == sum(one_per_half)
    np.testing.assert_array_equal(*results)
    _assert_matches_references(results[0], block)


def test_split_calls_stay_exact_under_rapid_thread_switches(monkeypatch):
    """A row update lost or doubled between the halves would break equality."""
    ks = [TILE + 3, 7, 5, 2 * TILE, 1, 9, TILE]
    enc, _, children, parents, accs = _delta_block("binary", "materialized", ks, 16)
    force_split(monkeypatch, False)
    whole = enc.accumulate_delta(children, parents, accs)
    force_split(monkeypatch, True)
    halves = HalfCounter(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            split = enc.accumulate_delta(children, parents, accs)
            np.testing.assert_array_equal(split, whole)
    finally:
        sys.setswitchinterval(interval)
    assert halves.calls == 30


def test_helper_errors_reach_the_caller(monkeypatch):
    force_split(monkeypatch, True)
    fill = _blocked._fill_pair_table

    def fails_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper half failed")
        return fill(*args)

    monkeypatch.setattr(_blocked, "_fill_pair_table", fails_off_the_main_thread)
    enc, _, children, parents, accs = _delta_block("pixel", "materialized", [30, 31], 16)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="helper half failed"):
        enc.accumulate_delta(children, parents, accs)
    assert threading.active_count() == threads


# -- the block budget -------------------------------------------------------
# Changed entries per child under a budget of BUDGET entries: children
# 0-2 fill the first block exactly (child 2 ends on its edge), child 3
# is larger than a block on its own, and children 4-7 share the last.
BUDGET = 40
BLOCK_KS = [10, 25, 5, 60, 3, 17, 9, 1]


class BlockRecorder:
    """Spy on the kernel's recursion: the child blocks a call ran as."""

    def __init__(self, monkeypatch):
        self.blocks = []
        kernel = _blocked.fused_delta_into

        def spy(out, pos_memory, val_memory, levels, parents, **kwargs):
            self.blocks.append(levels.shape[0])
            return kernel(out, pos_memory, val_memory, levels, parents, **kwargs)

        monkeypatch.setattr(_blocked, "fused_delta_into", spy)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("result_dtype", [np.int16, np.int64])
@pytest.mark.parametrize("codebook", CODEBOOKS)
@pytest.mark.parametrize("family", ["pixel", "binary"])
def test_calls_over_the_block_budget_match_one_block(
    family, codebook, result_dtype, split, monkeypatch
):
    block = _delta_block(family, codebook, BLOCK_KS, 16)
    enc, _, children, parents, accs = block
    force_split(monkeypatch, split)
    recorder = BlockRecorder(monkeypatch)
    results = []
    for budget in (BUDGET, sum(BLOCK_KS)):
        monkeypatch.setattr(_blocked, "BLOCK_ENTRIES", budget)
        recorder.blocks.clear()
        threads = threading.active_count()
        results.append(
            enc.accumulate_delta(
                children, parents, accs.astype(result_dtype), result_dtype=result_dtype
            )
        )
        assert threading.active_count() == threads  # no helper outlives a block
        # Children per block the call recursed into; none when it fits.
        assert recorder.blocks == ([3, 1, 4] if budget == BUDGET else [])
    blocked, whole = results
    assert blocked.dtype == whole.dtype == result_dtype
    np.testing.assert_array_equal(blocked, whole)
    _assert_matches_references(blocked, block)


def test_paper_scale_delta_call_is_bounded(digit_data):
    """A 1 536-child gauss call's index arrays are built one block at a time.

    A 64-input batched gauss campaign sends all its children to one
    ``accumulate_delta`` call (~616 000 changed entries); built for the
    whole call, its index arrays would peak near 50 MB above the output.
    """
    train, _ = digit_data
    enc = PixelEncoder(dimension=10_000, rng=3)
    digits = train.images[:64].astype(np.float64)
    gauss, rng = create_strategy("gauss"), np.random.default_rng(1)
    children = np.concatenate([gauss.mutate(digit, 24, rng=rng) for digit in digits])
    child_levels = enc.quantize(children).reshape(len(children), -1).astype(np.int16)
    parent_levels = np.repeat(enc.quantize(digits).reshape(64, -1).astype(np.int16), 24, 0)
    parent_accs = np.repeat(enc.accumulate_batch(digits), 24, axis=0)
    assert np.count_nonzero(child_levels != parent_levels) > 10 * _blocked.BLOCK_ENTRIES
    enc.accumulate_delta(child_levels[:2], parent_levels[:2], parent_accs[:2])  # warm buffers
    tracemalloc.start()
    try:
        out = enc.accumulate_delta(
            child_levels, parent_levels, parent_accs, result_dtype=parent_accs.dtype
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1536, 10_000)
    assert peak - out.nbytes <= 8_000_000, peak - out.nbytes

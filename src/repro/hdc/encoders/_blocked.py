"""The fused cross-child encode kernel shared by the key ⊛ value encoders.

Every delta encoder used to loop over children in Python — one gather,
one multiply, one reduction *per child* — which campaign phase
telemetry showed was ~90 % of batched wall time.
:func:`fused_delta_into`, the ragged-scatter correction kernel, turns
those loops into one call per block: the ``levels != parents`` mask
over the ``(n, P)`` block becomes flat indices into that block in C
order (one ``np.flatnonzero``, whatever the level blocks' memory
layout), and the corrections are summed into the ``(n, D)``
accumulator block through cache-resident *tiles* of at most
:func:`tile_rows` changed entries (the tile rule is documented at
:data:`TILE_ELEMS`).  Each distinct (new level, old level) pair's value
difference is built once per block into a fixed-size pair table
(:data:`PAIR_TABLE_ELEMS`), so a changed entry costs two row gathers —
its position row and its pair row — and one multiply, for bipolar and
binary codebooks alike.
Rematerialized codebooks generate each touched row once per block, and
every tile gathers from that block.  A call of more than
:data:`BLOCK_ENTRIES` changed entries runs as consecutive child blocks
of at most that many, and a block of at least :data:`SPLIT_ENTRIES`
changed entries runs its two halves on two cores: a short-lived helper
thread takes the second half of the children.

The key ⊛ value encoders' scratch path is this kernel too: a delta
from the all-level-0 input (``KeyValueEncoder.accumulate_batch``).
The kernel is exact in integers, so results are elementwise equal to
the per-child loops it replaces (property-tested at the tile, window,
split and block boundaries in ``tests/hdc/test_fused_kernels.py``).
Its temporaries stay bounded however many children a call fuses, and
scratch accumulators are built in :func:`exact_dtype` of their bound
(``Encoder.encode_batch`` encodes in :func:`block_rows` row blocks).
:func:`_child_chunks` cuts child blocks for this kernel and the n-gram
encoder's blocked delta, which also sums through :func:`segment_reduce`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.hdc.item_memory import RematerializedItemMemory
from repro.utils.cores import usable_cores

__all__ = [
    "BLOCK_ELEMS",
    "BLOCK_ENTRIES",
    "INDEX_LANES",
    "PAIR_TABLE_ELEMS",
    "SPLIT_ENTRIES",
    "TILE_ELEMS",
    "bipolar_sign",
    "block_rows",
    "exact_dtype",
    "fused_delta_into",
    "tile_rows",
]


def exact_dtype(bound: int) -> type:
    """Smallest accumulator dtype (int16 up) holding every value in ``±bound``.

    An accumulator sums *bound* terms of magnitude at most 1 — pixel,
    feature or n-gram HVs, bipolar or binary — so this dtype is exact
    for scratch and delta encodes alike; the fuzzing engines store
    their seed accumulators in it too.
    """
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def bipolar_sign(accumulators: np.ndarray) -> np.ndarray:
    """Eq. 1 binarization ``acc >= 0 → +1 else −1`` as compact int8.

    Semantically ``np.where(accs >= 0, 1, -1).astype(np.int8)``, but
    without materializing the intermediate at the accumulator's (wide)
    dtype: the comparison writes straight into the int8 result through
    a bool view, and ``2x − 1`` maps {0, 1} onto {−1, +1} in place.
    On the engine's (n, 10 000) int64 blocks this is ~5× less memory
    traffic, and thresholding was the single largest item in the encode
    phase profile after the kernels were fused.
    """
    accs = np.asarray(accumulators)
    out = np.empty(accs.shape, dtype=np.int8)
    np.greater_equal(accs, 0, out=out.view(np.bool_))
    np.multiply(out, 2, out=out)
    np.subtract(out, 1, out=out)
    return out

#: Elements (int8) the n-gram encoder's chunked kernels may materialize
#: per chunk, the row budget of one ``Encoder.encode_batch`` block
#: (:func:`block_rows`), and the base of :data:`BLOCK_ENTRIES`.  Larger
#: chunks turn the gather→multiply→reduce pipeline into repeated DRAM
#: passes.  These chunks align to child boundaries, so a single child
#: larger than the budget still encodes (using exactly the memory a
#: per-child loop did).  :func:`fused_delta_into` tiles *inside*
#: children instead, under :data:`TILE_ELEMS`.
BLOCK_ELEMS = 1 << 20


def block_rows(dimension: int) -> int:
    """Rows of one scratch-encode block at *dimension* (104 at D = 10 000)."""
    return max(1, BLOCK_ELEMS // dimension)


#: Changed entries of one :func:`fused_delta_into` block: a call with
#: more runs as consecutive child blocks of at most this many.  A
#: block's index arrays (flat indices, gathered levels, pair keys and
#: their inverse, the padded index copies) take about 83 B per changed
#: entry, so at ``BLOCK_ELEMS // 32`` = 32 768 entries they stay near
#: 2.7 MB however many children a call fuses: a 1 536-child gauss call
#: at D = 10 000 (616 k entries) peaks 4.6 MB above its output instead
#: of 46.5 MB, in the same 0.33 s (2-core AMD EPYC host, numpy 2.4.6,
#: tracemalloc; best of 5), and a 104-row block of 617-feature
#: records (64 k entries) runs as two kernel blocks, within 6.9 MB
#: rather than 9.4 MB.  ``BLOCK_ELEMS // 16`` would leave that record
#: block whole; ``BLOCK_ELEMS // 64`` would cut calls the perfbench
#: workloads make, whose largest at paper scale (seeds 1–3) hold
#: 18 579 entries (a 104-digit set-up scratch block) and 26 327 (a
#: 48-child gauss call of two inputs; gauss changes at most ~84 % of a
#: child's pixels, so such a call stays under 32 000).
BLOCK_ENTRIES = BLOCK_ELEMS // 32


#: Elements (int8) of each of the two gather buffers — position rows
#: and pair-table rows — of one :func:`fused_delta_into` tile; at
#: ``1 << 19`` the two fit a 2 MB L2 together (52 rows each at
#: D = 10 000).  The tile rule: children are cut into consecutive tiles
#: of at most :func:`tile_rows` changed entries, small children pack
#: several to a tile, and each tile's partial sum adds into its child's
#: row.  A tile of k rows sums k terms bounded by ±2, so its partial
#: sum is int8-exact when 2·k ≤ 127 — every tile once D > 8 192 — and
#: int16-exact otherwise, since tile height is capped at 16 383 rows.
TILE_ELEMS = 1 << 19

#: Elements (int8) of the :func:`fused_delta_into` pair table: one row
#: ``val[new] − val[old]`` per distinct (new level, old level) pair of
#: the entries a call changes, plus the all-zero row that pad lanes
#: gather (419 rows at D = 10 000, so 418 pairs).  The table is
#: allocated once per dimension at this fixed size; a call with more
#: distinct pairs runs in windows that each fit it (see
#: :func:`_pair_windows`).
PAIR_TABLE_ELEMS = 1 << 22

#: Tile heights whose ±2-bounded partial sums are int8-exact, and the
#: cap that keeps every tile's partial sum int16-exact.
_INT8_EXACT_ROWS = np.iinfo(np.int8).max // 2
_INT16_EXACT_ROWS = np.iinfo(np.int16).max // 2


def tile_rows(dimension: int) -> int:
    """Changed entries per :func:`fused_delta_into` tile at *dimension*."""
    return min(max(1, TILE_ELEMS // dimension), _INT16_EXACT_ROWS)


def _row_source(memory, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(table, index)`` with ``table[index]`` equal to ``memory.take(rows)``.

    A materialized codebook is its own table.  A rematerialized one
    regenerates rows from its PRF on every ``take``, so its distinct
    touched rows are generated once — one ``take`` per call — and the
    tiles gather from that block through the inverse map.
    """
    if isinstance(memory, RematerializedItemMemory):
        uniq, inv = np.unique(rows, return_inverse=True)
        return memory.take(uniq), inv
    return memory.vectors, rows


def _child_chunks(bounds: np.ndarray, n: int, max_rows: int):
    """Yield consecutive ``(lo, hi)`` child ranges whose flat entries fit *max_rows*.

    A child with more entries than *max_rows* is a range of its own.
    """
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and bounds[hi + 1] - bounds[lo] <= max_rows:
            hi += 1
        yield lo, hi
        lo = hi


def _segment_breaks(ids: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first entry of each run in *ids*."""
    breaks = np.empty(ids.size, dtype=bool)
    breaks[0] = True
    np.not_equal(ids[1:], ids[:-1], out=breaks[1:])
    return breaks


def segment_reduce(
    block: np.ndarray, starts: np.ndarray, sum_dtype
) -> np.ndarray:
    """Column sums of consecutive row segments of *block*.

    Semantically ``np.add.reduceat(block, starts, axis=0, dtype=...)``,
    but ``reduceat`` has no vectorised inner loop — it pays ~30× per
    element over ``np.add.reduce`` at these shapes — so each segment is
    reduced with one vectorised ``reduce`` instead.  The Python-level
    loop is per *segment* (per child), not per row, and measures
    10–40× faster than ``reduceat`` across the engine's workload shapes
    (a few long segments through thousands of short ones).
    """
    # (np.r_ would read nicer but costs ~30 µs per call — this helper
    # runs once per chunk on the hot path.)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = block.shape[0]
    out = np.empty((starts.size, block.shape[1]), dtype=sum_dtype)
    for i in range(starts.size):
        np.add.reduce(
            block[starts[i] : ends[i]], axis=0, dtype=sum_dtype, out=out[i]
        )
    return out


#: Reused int8 kernel buffers, keyed by hypervector dimension: two
#: sets of the two tile gather buffers and the pair table, one set per
#: half of a split call (:data:`SPLIT_ENTRIES`; an unsplit call uses the
#: first).  A fused call gathers into the same buffers every tile — and
#: every *call* reuses the process-wide sets, because a fresh
#: ``np.empty`` per call is mmap'd and page-faults on first touch, which
#: profiling showed dominating sparse engine iterations.  Both sets are
#: allocated together, so a warm-up call that does not split still
#: allocates what a later split call uses.  One cache per process is
#: safe because the package calls the kernel from one thread at a
#: time, and each half of a split call owns one set.
_KERNEL_BUFFERS: dict[int, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]] = {}


def _kernel_buffers(
    dimension: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Two ``(position tile, pair tile, pair table)`` buffer sets for *dimension*.

    Row 0 of each pair table is zero for good; pair rows start at 1.
    """
    table_rows = max(2, PAIR_TABLE_ELEMS // dimension)
    sets = _KERNEL_BUFFERS.get(dimension)
    if sets is None or sets[0][2].shape[0] != table_rows:
        shape = (tile_rows(dimension), dimension)
        sets = tuple(
            (
                np.empty(shape, dtype=np.int8),
                np.empty(shape, dtype=np.int8),
                np.zeros((table_rows, dimension), dtype=np.int8),
            )
            for _ in range(2)
        )
        _KERNEL_BUFFERS[dimension] = sets
    return sets


#: Changed entries from which a :func:`fused_delta_into` call runs in
#: two halves, one on a short-lived helper thread.  Small calls lose:
#: the thread's start and each half's own pair windows and table fills
#: cost more than the second core returns.  Measured on calls captured
#: from perfbench's three workloads (2-core AMD EPYC host, 1 thread per
#: core, 1 MB L2 each; numpy 2.4.6, D = 10 000; best of 8 alternating
#: runs per call), a split call ran at 0.86–0.96× the speed of a whole
#: one below 1 000 entries, 1.04–1.09× from 1 000 to 3 000, 1.0–1.34×
#: from 3 000 to 6 000 and 1.30–1.47× above.  Splitting stops losing
#: near 1 000 entries; 2 000 keeps a margin, forgoes at most 1.09× on
#: the few calls in between, and keeps ``rand``'s ~190-entry and
#: ``row_col_rand``'s ~500-entry calls whole.  A call splits whenever
#: :func:`~repro.utils.cores.usable_cores` reads 2 or more, in process
#: pool workers too: on the same host at paper scale (median of 5
#: alternating runs), workers that split ran ``bench_executor_scaling``'s
#: default one-worker pool at 147 inputs/s against 112 unsplit, and its
#: two-worker pool at 155 against 158.
SPLIT_ENTRIES = 2_000


def _split_child(bounds: np.ndarray) -> int:
    """The child boundary nearest the middle entry, or 0 if a half would be empty.

    *bounds* holds the children's flat entry offsets, ``bounds[-1]``
    entries in all.  Halves are cut between children, so every ``out``
    row is written by one thread only.
    """
    half = bounds[-1] / 2
    cut = int(np.searchsorted(bounds, half))
    if half - bounds[cut - 1] < bounds[cut] - half:
        cut -= 1
    return cut if 0 < bounds[cut] < bounds[-1] else 0


def _in_two_halves(first, second) -> None:
    """Run *second* on a helper thread while this thread runs *first*.

    The helper is joined before this returns, also when *first* raises;
    an error the helper raised is re-raised here.
    """
    errors: list[BaseException] = []

    def helper_main() -> None:
        try:
            second()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    helper = threading.Thread(target=helper_main, name="fused-delta-half")
    helper.start()
    try:
        first()
    finally:
        helper.join()
    if errors:
        raise errors[0]


def _pair_windows(keys: np.ndarray, bounds: np.ndarray, capacity: int):
    """Yield ``(s, e, pairs, inverse)``: flat entries ``[s, e)`` and their pairs.

    ``pairs`` are the distinct *keys* of the window — at most *capacity*
    — and ``pairs[inverse]`` is ``keys[s:e]``.  A call that fits is one
    window.  Otherwise windows are greedy runs of consecutive children
    (*bounds* holds the children's flat entry offsets); when the child
    at a window's start holds more distinct keys than *capacity* alone,
    the window ends at the last entry that fits, and the next one
    continues the child from that intermediate parent row — exact,
    since corrections add linearly.
    """
    pairs, inverse = np.unique(keys, return_inverse=True)
    if pairs.size <= capacity:
        yield 0, keys.size, pairs, inverse
        return
    # prev[i] is the last entry before i with the same key, else -1, so
    # the distinct keys of [s, e) are its entries with prev < s.
    order = np.argsort(inverse, kind="stable")
    prev = np.full(keys.size, -1, dtype=np.int64)
    repeat = inverse[order[1:]] == inverse[order[:-1]]
    prev[order[1:][repeat]] = order[:-1][repeat]
    s = 0
    while s < keys.size:
        # Count ahead in growing spans, not to the end of the call, so
        # many windows cost linear time.
        span = 4 * capacity
        while True:
            distinct = np.cumsum(prev[s : s + span] < s)
            if distinct[-1] > capacity or s + span >= keys.size:
                break
            span *= 4
        end = s + int(np.searchsorted(distinct, capacity, side="right"))
        boundary = int(bounds[np.searchsorted(bounds, end, side="right") - 1])
        e = boundary if boundary > s else end
        yield (s, e, *np.unique(keys[s:e], return_inverse=True))
        s = e


def _fill_pair_table(
    table: np.ndarray,
    val_table: np.ndarray,
    new: np.ndarray,
    old: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Rows ``1 .. n`` of *table* ← ``val[new] − val[old]``, old rows via *scratch*."""
    n = new.size
    np.take(val_table, new, axis=0, out=table[1 : n + 1], mode="clip")
    step = scratch.shape[0]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        old_rows = np.take(
            val_table, old[lo:hi], axis=0, out=scratch[: hi - lo], mode="clip"
        )
        np.subtract(table[1 + lo : 1 + hi], old_rows, out=table[1 + lo : 1 + hi])


def _chunk_runs(heights: list[int], tile: int) -> tuple[list[int], list[int]]:
    """``(tiles per chunk, chunk kmax)`` of greedy runs over ascending *heights*.

    A chunk grows while its padded size — its tile count times its
    tallest tile — stays within *tile* rows, so a full tile is a chunk
    of its own.
    """
    sizes, kmaxes = [], []
    a, n = 0, len(heights)
    while a < n:
        b = a + 1
        while b < n and (b + 1 - a) * heights[b] <= tile:
            b += 1
        sizes.append(b - a)
        kmaxes.append(heights[b - 1])
        a = b
    return sizes, kmaxes


#: Lanes — padded gather rows — whose row indices
#: :func:`fused_delta_into` builds at once: each int64 index array of a
#: slice of chunks is at most an eighth of a tile buffer's bytes, so
#: however many entries a call changes, its index arrays stay small.
INDEX_LANES = TILE_ELEMS // 64


def _lane_slices(heights: np.ndarray, starts: np.ndarray, tile: int):
    """Yield ``(first tile, chunks, src)`` for slices of a window's chunks.

    The tiles — ascending *heights*, flat entries from *starts* — pack
    into chunks as in :func:`_chunk_runs`, and consecutive chunks form
    slices of at most :data:`INDEX_LANES` lanes.  ``chunks`` holds a
    slice's ``(tiles, kmax)`` pairs and ``src`` the flat entry of
    each of its lanes, chunk after chunk, every tile padded to its
    chunk's kmax with entry -1, the pad lanes' entry.  Building a slice's indices in one
    vectorised pass leaves the chunk loop only the calls that move
    rows, so little of a call runs as Python, which holds the
    interpreter lock.
    """
    sizes, kmaxes = _chunk_runs(heights.tolist(), tile)
    c = t0 = 0
    while c < len(sizes):
        c1, lanes = c, 0
        while c1 < len(sizes) and (
            c1 == c or lanes + sizes[c1] * kmaxes[c1] <= INDEX_LANES
        ):
            lanes += sizes[c1] * kmaxes[c1]
            c1 += 1
        t1 = t0 + sum(sizes[c:c1])
        per_tile = np.repeat(kmaxes[c:c1], sizes[c:c1])
        ends = np.cumsum(per_tile)
        lane = np.arange(lanes) - np.repeat(ends - per_tile, per_tile)
        src = np.where(
            lane < np.repeat(heights[t0:t1], per_tile),
            lane + np.repeat(starts[t0:t1], per_tile),
            -1,
        )
        yield t0, zip(sizes[c:c1], kmaxes[c:c1]), src
        c, t0 = c1, t1


def fused_delta_into(
    out: np.ndarray,
    pos_memory,
    val_memory,
    levels: np.ndarray,
    parents: np.ndarray,
    *,
    binary: bool = False,
) -> np.ndarray:
    """Scatter-add child-vs-parent corrections into *out*, one ragged block.

    *out* is the ``(n, D)`` integer block already holding each child's
    parent accumulator; rows whose levels equal their parent's are left
    untouched.  With ``H = val[c_p] − val[s_p]``, corrections are
    ``pos_p ⊛ H`` for bipolar codebooks and
    ``(pos_p ⊕ val[c_p]) − (pos_p ⊕ val[s_p]) = H ⊛ (1 − 2·pos_p)`` for
    binary ones — both exact in integers, so the result is elementwise
    equal to the per-child loop this replaces.

    A call of more than :data:`BLOCK_ENTRIES` changed entries runs as
    consecutive child blocks of at most that many (a child larger than
    that is a block of its own), each a call of its own with its own
    mask, row sources, pair windows and split, so the index arrays
    below are built for one block at a time.  A rematerialized codebook
    generates each row a block touches once per block.  A block's
    changed entries are its mask's flat indices in C order, so child
    *i*'s run from ``bounds[i]`` to ``bounds[i + 1]`` (one
    ``searchsorted`` over the row starts); each entry's slot, new level
    and old level are read through them.

    ``H`` depends only on the (new level, old level) pair, and a block
    repeats few pairs many times, so each distinct pair's row is built
    once into the fixed pair table (:data:`PAIR_TABLE_ELEMS`; windows
    keep a block with more pairs within it) and a changed entry costs
    two row gathers and one multiply.  Each child's changed entries are
    cut into consecutive tiles of at most :func:`tile_rows` entries.
    Tiles are sorted by height and packed into padded rectangular
    ``(m, kmax, D)`` chunks of at most one tile's rows, whose pad lanes
    gather the table's zero row, so each chunk's per-tile sums collapse
    into a single vectorised ``np.add.reduce`` over the middle axis —
    mutators that change a fixed number of components per child
    (``rand``, ``row_col_rand``) pad nothing at all.  A full tile fills
    its chunk alone, so no chunk holds two tiles of one child.  Partial
    sums add into *out* tile by tile, and every intermediate row is the
    accumulator of a valid input (some changed entries applied, the
    rest still the parent's), so any dtype that holds the children's
    accumulators is exact.

    A block of at least :data:`SPLIT_ENTRIES` changed entries runs in
    two halves when a second core is usable.  The mask, the counts and
    the row sources are built once per block; the children are then
    cut at the boundary nearest the middle entry, and a short-lived
    helper thread runs the second half's pair windows and tiles,
    through its own buffer set, while the calling thread runs the first
    half.  Each ``out`` row is written by one thread and every sum is
    an exact integer, so a split block's result is bit-identical to an
    unsplit one.
    """
    mask = levels != parents
    n_entries = int(np.count_nonzero(mask))
    if not n_entries:
        return out
    n, n_keys = mask.shape
    if n_entries > BLOCK_ENTRIES and n > 1:
        bounds = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1))))
        for lo, hi in _child_chunks(bounds, n, BLOCK_ENTRIES):
            fused_delta_into(
                out[lo:hi], pos_memory, val_memory, levels[lo:hi], parents[lo:hi],
                binary=binary,
            )
        return out
    # Changed entries as flat indices into the C-order (n, n_keys) block,
    # so child i's entries are flat[bounds[i]:bounds[i + 1]].
    flat = np.flatnonzero(mask)
    bounds = np.searchsorted(flat, np.arange(0, (n + 1) * n_keys, n_keys))
    pos_table, pos_idx = _row_source(pos_memory, flat % n_keys)
    val_table, val_idx = _row_source(
        val_memory, np.concatenate((np.take(levels, flat), np.take(parents, flat)))
    )
    # Pair keys need the index range squared: widen compact levels.
    val_idx = val_idx.astype(np.intp, copy=False)
    new_idx, old_idx = val_idx[: val_idx.size // 2], val_idx[val_idx.size // 2 :]
    n_val = val_table.shape[0]
    keys = new_idx * n_val + old_idx
    dimension = out.shape[1]
    tile = tile_rows(dimension)
    # Pad lanes gather flat entry -1: pair_idx's last entry, the zero
    # pair row, times the last entry's position row.
    pair_idx = np.zeros(n_entries + 1, dtype=np.intp)

    def run(lo: int, hi: int, buffers) -> None:
        """Children ``[lo, hi)`` into ``out[lo:hi]`` through one buffer set."""
        pos_buf, pair_buf, table = buffers
        rows_out = out[lo:hi]
        part = bounds[lo : hi + 1]
        base = int(part[0])
        for s, e, pairs, inverse in _pair_windows(
            keys[base : part[-1]], part - base, table.shape[0] - 1
        ):
            s, e = s + base, e + base
            _fill_pair_table(
                table, val_table, pairs // n_val, pairs % n_val, pair_buf
            )
            pair_idx[s:e] = inverse + 1
            # Tile t covers flat entries [starts[t], starts[t] + heights[t])
            # of child owner[t]; a child's tiles in this window are
            # consecutive, all full but its last.
            window = np.minimum(np.maximum(part, s), e)
            spans = window[1:] - window[:-1]
            n_tiles = (spans + (tile - 1)) // tile
            owner = np.repeat(np.arange(spans.size), n_tiles)
            offsets = tile * (
                np.arange(owner.size) - np.repeat(np.cumsum(n_tiles) - n_tiles, n_tiles)
            )
            heights = np.minimum(tile, spans[owner] - offsets)
            order = np.argsort(heights, kind="stable")
            heights, owner = heights[order], owner[order]
            starts = window[owner] + offsets[order]
            for t0, chunks, src in _lane_slices(heights, starts, tile):
                pos_src, pair_src = pos_idx[src], pair_idx[src]
                r0 = 0
                for m, kmax in chunks:
                    r1, t1 = r0 + m * kmax, t0 + m
                    # The ``out=`` takes use mode="clip": with the default
                    # "raise" numpy drops to a buffered bounds-checking
                    # path that measures ~3× slower, and every index here
                    # is valid by construction.
                    pos_rows = pos_table.take(pos_src[r0:r1], 0, pos_buf[: r1 - r0], "clip")
                    if binary:  # {0, 1} position rows → the ±1 factor 1 − 2·p
                        np.multiply(pos_rows, -2, out=pos_rows)
                        np.add(pos_rows, 1, out=pos_rows)
                    corr = table.take(pair_src[r0:r1], 0, pair_buf[: r1 - r0], "clip")
                    np.multiply(pos_rows, corr, out=corr)
                    # The tile rule's exactness bound (see TILE_ELEMS);
                    # the add upcasts to ``out``'s dtype, which is exact.
                    sums = np.add.reduce(
                        corr.reshape(m, kmax, dimension),
                        axis=1,
                        dtype=np.int8 if kmax <= _INT8_EXACT_ROWS else np.int16,
                    )
                    if m == 1:
                        # One tile: add into its child's row in place.  The
                        # fancy-index add below, which copies the row out
                        # and back, made calls of 2 000+ entries 4–9 %
                        # slower.
                        row = rows_out[owner[t0]]
                        row += sums[0]
                    else:
                        rows_out[owner[t0:t1]] += sums
                    r0, t0 = r1, t1

    buffers = _kernel_buffers(dimension)
    split = n_entries >= SPLIT_ENTRIES and usable_cores() >= 2
    cut = _split_child(bounds) if split else 0
    if cut:
        _in_two_halves(
            lambda: run(0, cut, buffers[0]),
            lambda: run(cut, n, buffers[1]),
        )
    else:
        run(0, n, buffers[0])
    return out

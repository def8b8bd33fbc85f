"""Fused cross-child encode kernels shared by the encoder families.

Every delta encoder used to loop over children in Python — one gather,
one multiply, one reduction *per child* — which campaign phase
telemetry showed was ~90 % of batched wall time.  The helpers here turn
those loops into O(1) kernel calls per block:

* :func:`fused_delta_into` — the ragged-scatter correction kernel: the
  ``levels != parents`` mask over the whole ``(n, P)`` block becomes
  flat (child, pixel) COO indices, and the corrections are summed into
  the ``(n, D)`` accumulator block through cache-resident *tiles* of at
  most :func:`tile_rows` changed entries (the tile rule is documented
  at :data:`TILE_ELEMS`).  Each distinct (new level, old level) pair's
  value difference is built once per call into a fixed-size pair table
  (:data:`PAIR_TABLE_ELEMS`), so a changed entry costs two row gathers
  — its position row and its pair row — and one multiply, for bipolar
  and binary codebooks alike.  Rematerialized codebooks generate each
  touched row once per call, and every tile gathers from that block.
  The image encoders' scratch path is this kernel too: a delta from
  the all-background image.
* :func:`grouped_products` — the blocked scratch-encode kernel of the
  record encoder and the dense pixel path: the per-child
  ``Σ_p pos_p ⊛ val[level_p]`` einsum becomes a level-grouped identity
  ``Σ_l val_l ⊛ (Σ_{p: level_p=l} pos_p)`` — P×D multiply-adds turn
  into int8 segmented sums plus at most ``min(L, P)``×D multiplies per
  child, batched over children.

All kernels are exact in integers, so results are elementwise equal to
the per-child loops they replace (property-tested at the tile and
partial-sum boundaries in ``tests/hdc/test_fused_kernels.py``).
Blocks are internally chunked or tiled so peak temporary memory stays
bounded regardless of how many children are fused into one call, and
scratch accumulators are built in :func:`exact_dtype` of their bound
(``Encoder.encode_batch`` encodes in :func:`block_rows` row blocks).
"""

from __future__ import annotations

import numpy as np

from repro.hdc.item_memory import RematerializedItemMemory

__all__ = [
    "BLOCK_ELEMS",
    "PAIR_TABLE_ELEMS",
    "TILE_ELEMS",
    "bipolar_sign",
    "block_rows",
    "exact_dtype",
    "fused_delta_into",
    "grouped_products",
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

#: Elements (int8) a chunked scratch kernel — :func:`grouped_products`
#: and the n-gram chunkers — may materialize per chunk, and the row
#: budget of one ``Encoder.encode_batch`` block (:func:`block_rows`).
#: Larger chunks turn the gather→multiply→reduce pipeline into repeated
#: DRAM passes.  These chunks align to child boundaries, so a single
#: child larger than the budget still encodes (using exactly the memory
#: a per-child loop did).  :func:`fused_delta_into` tiles *inside*
#: children instead, under :data:`TILE_ELEMS`.
BLOCK_ELEMS = 1 << 20


def block_rows(dimension: int) -> int:
    """Rows of one scratch-encode block at *dimension* (104 at D = 10 000)."""
    return max(1, BLOCK_ELEMS // dimension)


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
    """Yield ``(lo, hi)`` child ranges whose flat entries fit *max_rows*."""
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


#: Reused int8 kernel buffers, keyed by hypervector dimension: the two
#: tile gather buffers and the pair table.  A fused call gathers into
#: the same buffers every tile — and every *call* reuses the
#: process-wide set, because a fresh ``np.empty`` per call is mmap'd
#: and page-faults on first touch, which profiling showed dominating
#: sparse engine iterations.  The package is single-threaded per
#: process (parallelism is fork-based), so one cache per process is
#: safe.
_KERNEL_BUFFERS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _kernel_buffers(dimension: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(position tile, pair tile, pair table)`` buffers for *dimension*.

    Row 0 of the pair table is zero for good; pair rows start at 1.
    """
    table_rows = max(2, PAIR_TABLE_ELEMS // dimension)
    bufs = _KERNEL_BUFFERS.get(dimension)
    if bufs is None or bufs[2].shape[0] != table_rows:
        shape = (tile_rows(dimension), dimension)
        bufs = (
            np.empty(shape, dtype=np.int8),
            np.empty(shape, dtype=np.int8),
            np.zeros((table_rows, dimension), dtype=np.int8),
        )
        _KERNEL_BUFFERS[dimension] = bufs
    return bufs


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

    ``H`` depends only on the (new level, old level) pair, and a call
    repeats few pairs many times, so each distinct pair's row is built
    once into the fixed pair table (:data:`PAIR_TABLE_ELEMS`; windows
    keep a call with more pairs within it) and a changed entry costs
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
    """
    mask = levels != parents
    counts = np.count_nonzero(mask, axis=1)
    if not counts.any():
        return out
    pos_table, pos_idx = _row_source(pos_memory, np.nonzero(mask)[1])
    val_table, val_idx = _row_source(
        val_memory, np.concatenate((levels[mask], parents[mask]))
    )
    # Pair keys need the index range squared: widen compact levels.
    val_idx = val_idx.astype(np.intp, copy=False)
    new_idx, old_idx = val_idx[: val_idx.size // 2], val_idx[val_idx.size // 2 :]
    n_val = val_table.shape[0]
    dimension = out.shape[1]
    tile = tile_rows(dimension)
    pos_buf, pair_buf, table = _kernel_buffers(dimension)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    n_entries = int(bounds[-1])
    # Flat entry n_entries is the pad lanes' sentinel: position row 0
    # times the zero pair row.
    pair_idx = np.zeros(n_entries + 1, dtype=np.intp)
    pos_idx = np.append(pos_idx, 0)
    for s, e, pairs, inverse in _pair_windows(
        new_idx * n_val + old_idx, bounds, table.shape[0] - 1
    ):
        _fill_pair_table(table, val_table, pairs // n_val, pairs % n_val, pair_buf)
        pair_idx[s:e] = inverse + 1
        # Tile t covers flat entries [starts[t], starts[t] + heights[t])
        # of child owner[t]; a child's tiles in this window are
        # consecutive, all full but its last.
        window = np.minimum(np.maximum(bounds, s), e)
        spans = window[1:] - window[:-1]
        active = np.flatnonzero(spans)
        n_tiles = -(-spans[active] // tile)
        owner = np.repeat(active, n_tiles)
        first = np.repeat(np.cumsum(n_tiles) - n_tiles, n_tiles)
        starts = window[owner] + (np.arange(owner.size) - first) * tile
        heights = np.minimum(tile, window[owner + 1] - starts)
        order = np.argsort(heights, kind="stable")
        a = 0
        while a < order.size:
            b = a + 1
            # heights are sorted, so heights[order[b]] is the running max
            # and (b + 1 - a) * it bounds the padded chunk size.
            while b < order.size and (b + 1 - a) * int(heights[order[b]]) <= tile:
                b += 1
            ids = order[a:b]
            a = b
            k = heights[ids][:, None]
            kmax = int(k[-1, 0])
            # Flat COO positions of each tile's entries, padded to kmax
            # with the sentinel.  The ``out=`` takes use mode="clip":
            # with the default "raise" numpy drops to a buffered
            # bounds-checking path that measures ~3× slower, and every
            # index here is valid by construction.
            lane = np.arange(kmax)
            src = np.where(lane < k, starts[ids][:, None] + lane, n_entries).ravel()
            rows = src.size
            pos_rows = np.take(
                pos_table, pos_idx[src], axis=0, out=pos_buf[:rows], mode="clip"
            )
            if binary:  # {0, 1} position rows → the ±1 factor 1 − 2·p
                np.multiply(pos_rows, -2, out=pos_rows)
                np.add(pos_rows, 1, out=pos_rows)
            corr = np.take(
                table, pair_idx[src], axis=0, out=pair_buf[:rows], mode="clip"
            )
            np.multiply(pos_rows, corr, out=corr)
            # The tile rule's exactness bound (see TILE_ELEMS); the
            # scatter add upcasts to ``out``'s dtype, which is exact.
            out[owner[ids]] += np.add.reduce(
                corr.reshape(ids.size, kmax, dimension),
                axis=1,
                dtype=np.int8 if kmax <= _INT8_EXACT_ROWS else np.int16,
            )
    return out


def grouped_products(
    pos_vectors: np.ndarray, val_vectors: np.ndarray, levels_block: np.ndarray
) -> np.ndarray:
    """``Σ_p pos_p ⊛ val[levels[i, p]]`` for every child *i*, level-grouped.

    Sorting each child's pixels by level turns the P×D gather-multiply
    into pure int8 segmented sums of position rows followed by one
    multiply per distinct (child, level) segment — the blocked identity
    ``acc_i = Σ_l val_l ⊛ (Σ_{p: level_ip=l} pos_p)``.  The sorted
    (child, pixel) entries are gathered in spans of :func:`block_rows`
    rows, so a child wider than a block (every image and 617-feature
    record at D = 10 000) is split by pixel range; a segment cut by a
    span edge contributes two partial products, which add exactly.
    Exact integer algebra throughout, so the result equals the einsum
    formulation elementwise; every partial sum is bounded by the pixel
    count, so the block is built in :func:`exact_dtype` of it.
    """
    n, n_pixels = levels_block.shape
    dimension = pos_vectors.shape[1]
    sum_dtype = exact_dtype(n_pixels)
    out = np.zeros((n, dimension), dtype=sum_dtype)
    if n == 0:
        return out
    chunk = max(1, BLOCK_ELEMS // (n_pixels * dimension))
    span = block_rows(dimension)
    for lo in range(0, n, chunk):
        lv = levels_block[lo : lo + chunk]
        c = lv.shape[0]
        order = np.argsort(lv, axis=1, kind="stable")
        pixels = order.ravel()
        sorted_lv = np.take_along_axis(lv, order, axis=1).ravel()
        child_ids = np.repeat(np.arange(lo, lo + c), n_pixels)
        for s in range(0, pixels.size, span):
            e = min(s + span, pixels.size)
            breaks = _segment_breaks(sorted_lv[s:e])
            breaks[1:] |= child_ids[s + 1 : e] != child_ids[s : e - 1]
            starts = np.flatnonzero(breaks)
            seg = segment_reduce(pos_vectors[pixels[s:e]], starts, sum_dtype)
            seg *= val_vectors[sorted_lv[s + starts]]
            owners = child_ids[s + starts]
            child_starts = np.flatnonzero(_segment_breaks(owners))
            out[owners[child_starts]] += segment_reduce(seg, child_starts, sum_dtype)
    return out

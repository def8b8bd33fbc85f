"""Bit-packed binary hypervector kernels (uint64 words + popcount).

The dense-binary model family stores {0, 1} hypervectors one byte per
bit, so the fuzzer's hottest path — Hamming queries against the
associative memory — wastes 8× memory and most of its bandwidth.
Hardware formulations of dense binary HDC (Schmuck et al., *Hardware
Optimizations of Dense Binary Hyperdimensional Computing*) pack 64
components per machine word: population count (``popcnt``) computes 64
components of a Hamming distance per instruction, and bundling adds
whole words of bit-sliced counters.  This module holds those query and
bundling kernels in numpy; the encoders bind inside their own delta
kernel.

Layout
------
A packed hypervector of logical dimension ``D`` is a uint64 array of
``ceil(D / 64)`` words.  Component ``d`` lives in bit ``d % 64`` of word
``d // 64`` (``bitorder="little"``, matching :func:`numpy.packbits`);
when ``D`` is not a multiple of 64, the unused tail bits of the last
word are always zero — every kernel preserves that invariant, and
:func:`check_packed` enforces it on foreign arrays.

Popcount
--------
:func:`popcount` uses :func:`numpy.bitwise_count` (numpy ≥ 2.0, which
lowers to the hardware instruction) and falls back to a vectorised
SWAR bit-count (Hacker's Delight 5-2) on older numpy — ~3× slower than
the ufunc but still far ahead of the unpacked byte-per-bit path.  A
uint8 lookup-table popcount (:func:`_popcount_lut`) is kept as an
independently-simple reference that both implementations are tested
against.  Setting the environment variable ``REPRO_NO_BITWISE_COUNT``
forces the SWAR fallback — CI exercises that path so the kernels stay
correct (and fast enough) on numpy 1.x.

Everything here is representation-exact: packing is lossless, so every
kernel result is bit-identical to the corresponding computation on the
unpacked {0, 1} arrays (property-tested in
``tests/hdc/backends/test_packed_kernels.py``).

Bipolar hypervectors
--------------------
The paper's {-1, +1} family packs through the same machinery: a bipolar
component is one *sign bit* (bit 1 ⇔ −1, so XOR is exactly the
Hadamard-product bind), :func:`pack_signs` / :func:`unpack_signs`
convert, :func:`sign_words` thresholds signed accumulators straight
into sign words (Eq. 1, 0 → +1), and the dot product of two bipolar HVs is
``D − 2·popcount(a XOR b)`` — which :func:`cosine_matrix_packed_bipolar`
turns into the model's cosine similarity with float operations that
mirror :func:`repro.hdc.similarity.cosine_matrix` exactly.  The dense
bipolar path uses the same kernels: ``cosine_matrix`` and the dense
associative memory pack int8 blocks that pass :func:`is_sign_block`
and answer them by popcount.

Bundling kernel
---------------
:func:`bit_sliced_counts` is the word-level bundling kernel: it sums a
packed stack column-wise with carry-save-adder trees over *bit-sliced*
vertical counters (Schmuck et al.'s combinational bundling, in numpy),
so majority/threshold bundling — both packed AMs' updates — never
unpacks the stack per component.

Rematerialized codebooks
------------------------
Schmuck et al.'s second memory optimization regenerates item-memory
rows on the fly instead of storing them.  :func:`prf_words` is that
generator: a counter-based PRF (SplitMix64's finalizer over the counter
``row·W + word``) that yields row *i*'s word *w* as a pure function of
``(seed, i, w)`` — stateless, vectorised, and identical however rows
are gathered (``RematerializedItemMemory.take_words``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdc.encoders._blocked import BLOCK_ELEMS

__all__ = [
    "WORD_BITS",
    "SPLITMIX64_GAMMA",
    "packed_words",
    "prf_words",
    "pack_bits",
    "unpack_bits",
    "pack_signs",
    "sign_words",
    "is_sign_block",
    "unpack_signs",
    "check_packed",
    "popcount",
    "using_hardware_popcount",
    "bit_counts",
    "bit_sliced_counts",
    "hamming_counts",
    "cosine_matrix_packed_bipolar",
]

#: Components per packed word.
WORD_BITS = 64

#: Per-byte popcounts (reference implementation; see :func:`_popcount_lut`).
_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# SWAR bit-count masks (Hacker's Delight, Fig. 5-2).
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)

#: Whether the hardware-lowered ufunc is available *and* not disabled.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count") and not os.environ.get(
    "REPRO_NO_BITWISE_COUNT"
)


def using_hardware_popcount() -> bool:
    """True when :func:`popcount` lowers to ``numpy.bitwise_count``.

    False on numpy < 2.0 or when ``REPRO_NO_BITWISE_COUNT`` is set, in
    which case the uint8 lookup-table fallback is active.
    """
    return _HAVE_BITWISE_COUNT


def packed_words(dimension: int) -> int:
    """Number of uint64 words holding *dimension* components."""
    if dimension < 1:
        raise ConfigurationError(f"dimension must be positive, got {dimension}")
    return -(-int(dimension) // WORD_BITS)


#: SplitMix64's golden-ratio increment (Steele et al., "Fast Splittable
#: Pseudorandom Number Generators").
SPLITMIX64_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def prf_words(seed: int, rows: np.ndarray, dimension: int) -> np.ndarray:
    """Counter-based-PRF codebook words: index array → ``(..., W)`` uint64.

    Row *i*'s word *w* is output ``i·W + w`` of the SplitMix64 stream
    seeded with *seed* — a pure function of ``(seed, i, w)``, so any
    gather of any subset of rows, in any order, on any process, yields
    identical bits.  This is what lets a codebook be *rematerialized* on
    the fly (Schmuck et al.'s hardware optimization) instead of stored:
    the retained state is one 64-bit seed.

    *rows* may be a scalar or any integer array; the result has shape
    ``rows.shape + (W,)`` with ``W = ceil(dimension / 64)``.  Tail bits
    of the last word are masked to zero, so the rows are valid packed
    hypervectors (:func:`check_packed`) and ``pack∘unpack`` round-trips
    them exactly — the dense and packed views of a rematerialized row
    are the same bits by construction.
    """
    n_words = packed_words(dimension)
    idx = np.asarray(rows)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ConfigurationError(f"rows must be integer(s), got dtype {idx.dtype}")
    counters = idx.astype(np.uint64)[..., None] * np.uint64(n_words) + np.arange(
        n_words, dtype=np.uint64
    )
    # SplitMix64: the k-th output is the finalizer applied to
    # seed + (k+1)·GAMMA; vectorised here over the whole counter block.
    z = np.uint64(seed) + (counters + np.uint64(1)) * SPLITMIX64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    words = z ^ (z >> np.uint64(31))
    tail = dimension % WORD_BITS
    if tail:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words


def pack_bits(bits: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Pack a {0, 1} array ``(..., D)`` into uint64 words ``(..., W)``.

    ``W = ceil(D / 64)``; tail bits of the last word are zero.  The
    inverse is :func:`unpack_bits` with the original *D*.  Internal hot
    paths whose inputs are {0, 1} by construction (threshold
    comparisons) pass ``validate=False`` to skip the membership scan.
    """
    arr = np.asarray(bits)
    if arr.ndim < 1:
        raise DimensionMismatchError("bits must have at least one axis")
    if validate and arr.size and not np.isin(arr, (0, 1)).all():
        raise ConfigurationError("pack_bits requires {0,1} components")
    n_words = packed_words(arr.shape[-1]) if arr.shape[-1] else 0
    words = np.zeros(arr.shape[:-1] + (n_words,), dtype=np.uint64)
    if n_words:
        # packbits reads any non-zero integer or True as 1, so such blocks
        # pack without a uint8 copy; the tail bytes stay zero.
        if arr.dtype.kind not in "biu":
            arr = arr.astype(np.uint8)
        as_bytes = np.packbits(arr, axis=-1, bitorder="little")
        words.view(np.uint8)[..., : as_bytes.shape[-1]] = as_bytes
    return words


def unpack_bits(words: np.ndarray, dimension: int) -> np.ndarray:
    """Unpack uint64 words ``(..., W)`` back to an int8 {0, 1} ``(..., D)``."""
    arr = _as_words(words, "words")
    expected = packed_words(dimension)
    if arr.shape[-1] != expected:
        raise DimensionMismatchError(
            f"words has {arr.shape[-1]} words, dimension {dimension} needs {expected}"
        )
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=int(dimension), bitorder="little").astype(
        np.int8
    )


def pack_signs(values: np.ndarray, *, validate: bool = True) -> np.ndarray:
    """Pack a {-1, +1} array ``(..., D)`` into sign words ``(..., W)``.

    The bipolar packing convention: bit 1 ⇔ component −1, bit 0 ⇔ +1.
    Under it the Hadamard-product bind of two bipolar HVs is a plain
    XOR of their sign words (signs multiply ⇔ sign bits xor), and
    ``popcount(a XOR b)`` counts disagreeing components, so
    ``a·b = D − 2·popcount(a XOR b)``.  Inverse: :func:`unpack_signs`.
    """
    arr = np.asarray(values)
    if arr.ndim < 1:
        raise DimensionMismatchError("values must have at least one axis")
    if validate and arr.size and not np.isin(arr, (-1, 1)).all():
        raise ConfigurationError("pack_signs requires {-1,+1} components")
    return sign_words(arr)


def sign_words(values: np.ndarray) -> np.ndarray:
    """Sign words of the Eq. 1 bipolarisation of *values* (0 → +1).

    Bit 1 wherever a component is negative: on {-1, +1} arrays this is
    :func:`pack_signs`, and on signed accumulators it is the packed
    form of ``np.where(acc >= 0, 1, -1)`` without that dense ±1
    intermediate — the packed bipolar encoder's output and both bipolar
    associative memories' class words.
    """
    return pack_bits(np.asarray(values) < 0, validate=False)


def is_sign_block(values: np.ndarray) -> bool:
    """Whether *values* is a non-empty int8 array of {-1, +1} components.

    The guard of the dense popcount path: a block passing it packs
    losslessly with :func:`pack_signs`, so popcount cosines over its
    sign words equal the float cosine of the values bit for bit.  Three
    vectorised scans (min, max, non-zero count) cost 1–2 µs per
    10 000-wide row.  Every other dtype (float64 ±1 included) and empty
    arrays answer False.
    """
    arr = np.asarray(values)
    return bool(
        arr.dtype == np.int8
        and arr.size
        and arr.min() >= -1
        and arr.max() <= 1
        and np.count_nonzero(arr) == arr.size
    )


def unpack_signs(words: np.ndarray, dimension: int) -> np.ndarray:
    """Unpack sign words ``(..., W)`` back to an int8 {-1, +1} ``(..., D)``."""
    bits = unpack_bits(words, dimension)
    return (1 - 2 * bits).astype(np.int8)


def check_packed(words: np.ndarray, dimension: int, *, name: str = "hv") -> np.ndarray:
    """Validate a packed array: dtype, word count, and zeroed tail bits."""
    arr = _as_words(words, name)
    expected = packed_words(dimension)
    if arr.shape[-1] != expected:
        raise DimensionMismatchError(
            f"{name} has {arr.shape[-1]} words, dimension {dimension} needs {expected}"
        )
    tail = dimension % WORD_BITS
    if tail and arr.size:
        mask = np.uint64(~np.uint64((1 << tail) - 1))
        if np.bitwise_and(arr[..., -1], mask).any():
            raise ConfigurationError(
                f"{name} has non-zero bits beyond dimension {dimension}"
            )
    return arr


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word population counts (same shape as *words*, small ints).

    Uses ``numpy.bitwise_count`` when available; otherwise the
    vectorised SWAR fallback (exactly equal, ~3× slower).
    """
    arr = _as_words(words, "words")
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(arr)
    return _popcount_swar(arr)


def _popcount_swar(arr: np.ndarray) -> np.ndarray:
    """Portable popcount: SWAR parallel bit-count, ~6 uint64 ops per word.

    Works in place on two arrays of *arr*'s size (the result and one
    scratch) rather than a fresh temporary per operation.
    """
    x = np.right_shift(arr, np.uint64(1), out=np.empty_like(arr))
    x &= _M1
    np.subtract(arr, x, out=x)
    t = np.right_shift(x, np.uint64(2), out=np.empty_like(x))
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, np.uint64(4), out=t)
    x += t
    x &= _M4
    # The top byte of x * 0x0101…01 is the sum of x's bytes (wrapping
    # multiply is intentional and exact for byte sums <= 64).
    x *= _H01
    x >>= np.uint64(56)
    return x


def _popcount_lut(arr: np.ndarray) -> np.ndarray:
    """Reference popcount: per-byte table lookups summed per word.

    Slower than both production paths; kept so the tests can pin
    ``bitwise_count`` and the SWAR kernel against a third,
    independently-obvious implementation.
    """
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.uint8)
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    per_byte = _POPCOUNT_LUT[as_bytes]
    return per_byte.reshape(arr.shape + (8,)).sum(axis=-1, dtype=np.uint8)


def bit_counts(words: np.ndarray, dimension: int) -> np.ndarray:
    """Per-component ones counts over a packed stack ``(n, W)`` → ``(D,)``.

    The bit-count half of majority bundling: column sums of the
    unpacked {0, 1} matrix, computed without materialising it as int64.
    """
    arr = _as_words(words, "words")
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected (n, W) stack, got shape {arr.shape}")
    if arr.shape[0] == 0:
        return np.zeros(int(dimension), dtype=np.int64)
    return unpack_bits(arr, dimension).sum(axis=0, dtype=np.int64)


def _add_counter_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add two stacks of k-plane bit-sliced counters → k+1 planes.

    *a* and *b* have shape ``(..., r, k, W)``: ``r`` counters of ``k``
    binary planes (plane ``j`` holds bit ``j`` of every per-component
    count).  One ripple-carry pass over the planes adds them pairwise —
    each plane step is a handful of whole-word bitwise operations, fully
    vectorised over the leading axes.
    """
    k = a.shape[-2]
    out = np.empty(a.shape[:-2] + (k + 1, a.shape[-1]), dtype=np.uint64)
    out[..., 0, :] = np.bitwise_xor(a[..., 0, :], b[..., 0, :])
    carry = np.bitwise_and(a[..., 0, :], b[..., 0, :])
    for j in range(1, k):
        aj, bj = a[..., j, :], b[..., j, :]
        half = np.bitwise_xor(aj, bj)
        out[..., j, :] = np.bitwise_xor(half, carry)
        carry = np.bitwise_or(np.bitwise_and(aj, bj), np.bitwise_and(carry, half))
    out[..., k, :] = carry
    return out


def _ripple_add_planes(a: list, b: list) -> list:
    """Add two bit-sliced counters given as plane lists (ragged widths)."""
    planes = []
    carry = None
    for j in range(max(len(a), len(b))):
        terms = [p[j] for p in (a, b) if j < len(p)]
        if carry is not None:
            terms.append(carry)
        if len(terms) == 1:
            planes.append(terms[0])
            carry = None
        elif len(terms) == 2:
            planes.append(np.bitwise_xor(terms[0], terms[1]))
            carry = np.bitwise_and(terms[0], terms[1])
        else:
            x, y, z = terms
            half = np.bitwise_xor(x, y)
            planes.append(np.bitwise_xor(half, z))
            carry = np.bitwise_or(np.bitwise_and(x, y), np.bitwise_and(z, half))
    if carry is not None:
        planes.append(carry)
    return planes


def _bit_sliced_planes(arr: np.ndarray) -> list:
    """Column-sum a packed stack ``(..., m, W)`` into counter bit planes.

    Carry-save-adder tree: rows start as one-plane counters and are
    added pairwise level by level (``m → m/2 → …``), so summing ``m``
    rows costs ``O(m)`` whole-word operations total and every operation
    is vectorised across all surviving counters at once.  Odd leftovers
    are folded in at the end with a ripple add.  Returns planes of
    weight ``2^j``, ``j = 0, 1, …`` (at most ``⌈log2(m+1)⌉`` of them).
    """
    x = arr[..., :, None, :]  # (..., m, 1, W): m single-plane counters
    pending: list[list] = []
    while x.shape[-3] > 1:
        if x.shape[-3] % 2:
            pending.append([x[..., -1, j, :] for j in range(x.shape[-2])])
            x = x[..., :-1, :, :]
        x = _add_counter_pairs(x[..., 0::2, :, :], x[..., 1::2, :, :])
    planes = [x[..., 0, j, :] for j in range(x.shape[-2])]
    for extra in pending:
        planes = _ripple_add_planes(planes, extra)
    return planes


def bit_sliced_counts(words: np.ndarray, dimension: int) -> np.ndarray:
    """Per-component ones counts of a packed stack, word-level throughout.

    ``(..., m, W) → (..., D)`` int64: the same column sums as
    :func:`bit_counts`, but computed with carry-save-adder trees over
    *bit-sliced* vertical counters — the stack is never unpacked.  This
    is the packed memories' update kernel: bundling ``m`` packed HVs
    costs ``O(m·W)`` word operations plus one unpack per counter plane
    (``⌈log2(m+1)⌉`` of them), instead of ``O(m·D)`` byte operations.
    The counts are exact integers, so every consumer (majority
    quantisation, signed bipolar sums) stays bit-identical to the
    unpacked computation.
    """
    arr = _as_words(words, "words")
    if arr.ndim < 2:
        raise DimensionMismatchError(
            f"expected a (..., m, W) packed stack, got shape {arr.shape}"
        )
    expected = packed_words(dimension)
    if arr.shape[-1] != expected:
        raise DimensionMismatchError(
            f"words has {arr.shape[-1]} words, dimension {dimension} needs {expected}"
        )
    lead = arr.shape[:-2]
    if arr.shape[-2] == 0:
        return np.zeros(lead + (int(dimension),), dtype=np.int64)
    counts = np.zeros(lead + (int(dimension),), dtype=np.int64)
    for j, plane in enumerate(_bit_sliced_planes(arr)):
        counts += np.int64(1 << j) * unpack_bits(plane, dimension)
    return counts


def hamming_counts(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Pairwise differing-bit counts ``(n, m)`` between packed stacks.

    The popcount inner loop of every packed associative-memory query:
    ``out[i, j] = popcount(queries[i] XOR references[j])``.  Each block
    of query rows meets every reference row in one ``(rows, m, W)`` word
    operation of at most ``BLOCK_ELEMS`` bytes (the encoders'
    scratch-block bound), and its popcounts sum in the narrowest
    unsigned dtype that holds ``64·W`` before one widening copy into the
    result.  The SWAR fallback builds two more arrays of a block's size,
    and runs fastest on blocks an eighth as large: at n = 128 queries,
    m = 10, D = 10 000 it takes 400 µs in 128 kB blocks, 890 µs in
    256 kB ones and 1 675 µs one reference at a time.
    """
    q = np.atleast_2d(_as_words(queries, "queries"))
    r = np.atleast_2d(_as_words(references, "references"))
    if q.shape[-1] != r.shape[-1]:
        raise DimensionMismatchError(
            f"queries have {q.shape[-1]} words, references {r.shape[-1]}"
        )
    n, m, n_words = q.shape[0], r.shape[0], q.shape[-1]
    sum_dtype = np.min_scalar_type(n_words * WORD_BITS)
    block_bytes = BLOCK_ELEMS if _HAVE_BITWISE_COUNT else BLOCK_ELEMS // 8
    step = max(1, block_bytes // (8 * max(1, m * n_words)))
    out = np.empty((n, m), dtype=np.int64)
    for lo in range(0, n, step):
        # One expression, so each block's words and counts are freed
        # before the next block allocates: a block still alive makes
        # the next one fresh, page-faulting memory (2x slower at n = 200).
        out[lo : lo + step] = popcount(
            np.bitwise_xor(q[lo : lo + step, None, :], r)
        ).sum(axis=-1, dtype=sum_dtype)
    return out


def cosine_matrix_packed_bipolar(
    queries: np.ndarray, references: np.ndarray, dimension: int
) -> np.ndarray:
    """Pairwise cosine similarities between packed *bipolar* HVs → ``(n, m)``.

    For {-1, +1} vectors every norm is ``√D`` and the dot product is
    ``D − 2·popcount(a XOR b)`` under the sign-bit packing of
    :func:`pack_signs`, so the whole matrix reduces to Hamming
    popcounts.  The float operations mirror
    :func:`repro.hdc.similarity.cosine_matrix` exactly — the integer
    dot is exact in float64 (every partial sum of ±1 terms is an
    integer below 2⁵³), both norms are ``sqrt`` of the exact float64
    ``D``, and the divisor is their product — so the result is
    **bit-identical** to unpacking with :func:`unpack_signs` and
    calling ``cosine_matrix``.  That equality is what lets a packed
    or sign-word query (and the fitness, which reads its similarities)
    rank children exactly as the dense float cosine does.  ``D ≥ 1``
    means the divisor is always positive, so the dense kernel's
    zero-norm branch never triggers here.  Both bipolar associative
    memories, and a shared-codebook ensemble's stacked query, answer
    their popcount queries here.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be positive, got {dimension}")
    dots = (int(dimension) - 2 * hamming_counts(queries, references)).astype(np.float64)
    norm = np.sqrt(np.float64(dimension))
    return dots / (norm * norm)


def _as_words(words: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(words)
    if arr.dtype != np.uint64:
        raise ConfigurationError(
            f"{name} must be a packed uint64 array, got dtype {arr.dtype}"
        )
    return arr

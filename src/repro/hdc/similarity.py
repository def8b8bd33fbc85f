"""Similarity measures between hypervectors.

The paper's model predicts with cosine similarity (Sec. III-C) and the
fuzzer's fitness is ``1 - cosine`` (Sec. IV), so :func:`cosine` and its
batched form :func:`cosine_matrix` are the hot paths.  When both
operands of :func:`cosine_matrix` are int8 {-1, +1} blocks — the
bipolar model's query and class hypervectors — it packs their sign
bits and answers through the popcount kernel
(:func:`~repro.hdc.backends.packed.cosine_matrix_packed_bipolar`,
``D − 2·popcount(xor)``), which is bit-identical to the float64
computation every other input takes.  Binary models answer queries by
Hamming similarity inside their associative memories
(:class:`~repro.hdc.binary_model.BinaryAssociativeMemory` and its packed
twin), not through this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = ["cosine", "cosine_matrix"]


def _as_2d(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionMismatchError(f"expected 1-D or 2-D array, got ndim={arr.ndim}")


def _row_norms(original: np.ndarray, cast: np.ndarray) -> np.ndarray:
    """Row 2-norms of *cast*, skipping the squared float copy when exact.

    For int8/int16 rows every partial sum of squares is an exact
    integer below 2**53 (int16 needs D ≤ 8e6), so an int64 einsum and
    ``np.linalg.norm`` on the float64 cast see the *same* integer and
    take the same square root — bit-identical, without materialising
    the ``(n, D)`` float64 squares.  ±1 blocks never get here (they take
    the popcount path); int8 rows that do are queries against the
    raw-accumulator ablation or blocks holding other values.
    """
    arr = np.asarray(original)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim == 2 and (
        arr.dtype == np.int8
        or (arr.dtype == np.int16 and arr.shape[1] <= 8_000_000)
    ):
        squares = np.einsum("ij,ij->i", arr, arr, dtype=np.int64)
        return np.sqrt(squares.astype(np.float64))
    return np.linalg.norm(cast, axis=1)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two hypervectors.

    ``Cosim(a, b) = a·b / (||a|| ||b||)`` — Sec. III-C.  A zero vector
    has similarity 0 to everything (rather than NaN), which keeps the
    fuzzer's fitness finite for degenerate seeds (e.g. an all-black
    image whose accumulator could be tiny).
    """
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape:
        raise DimensionMismatchError(f"shapes {av.shape} and {bv.shape} differ")
    na = np.linalg.norm(av)
    nb = np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(av @ bv / (na * nb))


def cosine_matrix(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities.

    Parameters
    ----------
    queries:
        ``(n, D)`` (or ``(D,)``) query hypervectors.
    references:
        ``(m, D)`` (or ``(D,)``) reference hypervectors (e.g. the
        associative memory's class HVs).

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` float64 matrix; rows for queries, columns for
        references.  Zero-norm rows/columns produce zero similarity.

    Two int8 {-1, +1} operands are answered by the sign-bit popcount
    kernel instead of a float64 product; the result is the same to the
    last bit (every dot is an exact integer and both norms are
    ``sqrt(D)``), so callers cannot tell the paths apart.
    """
    from repro.hdc.backends.packed import (
        cosine_matrix_packed_bipolar,
        is_sign_block,
        pack_signs,
    )

    qa, ra = np.asarray(queries), np.asarray(references)
    if (
        qa.ndim in (1, 2)
        and ra.ndim in (1, 2)
        and qa.shape[-1] == ra.shape[-1]
        and is_sign_block(qa)
        and is_sign_block(ra)
    ):
        return cosine_matrix_packed_bipolar(
            pack_signs(qa, validate=False), pack_signs(ra, validate=False), qa.shape[-1]
        )
    q, _ = _as_2d(qa)
    r, _ = _as_2d(ra)
    if q.shape[1] != r.shape[1]:
        raise DimensionMismatchError(
            f"queries have dimension {q.shape[1]}, references {r.shape[1]}"
        )
    qn = _row_norms(qa, q)
    rn = _row_norms(ra, r)
    denom = np.outer(qn, rn)
    sims = q @ r.T
    np.divide(sims, denom, out=sims, where=denom > 0)
    sims[denom == 0] = 0.0
    return sims


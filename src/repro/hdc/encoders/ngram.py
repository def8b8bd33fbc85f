"""Character n-gram text encoder.

This is the language-classification encoding of Rahimi et al.
(ISLPED'16), which the paper cites as a primary HDC application
(Sec. I, II) and names when claiming HDTest "can be naturally extended
to other HDC model structures" (Sec. V-E).  Each character gets a random
item HV; an n-gram is encoded by binding permuted character HVs
(``ρ²(c₀) ⊛ ρ¹(c₁) ⊛ c₂`` for trigrams); a string is the re-bipolarised
sum of its n-gram HVs.

Together with :mod:`repro.fuzz.mutations.text` and
:class:`~repro.fuzz.domains.text.TextDomain` this runs HDTest on a
second, non-image modality end-to-end — through the batched engine too,
because the encoder exposes the full delta surface
(``quantize`` / ``accumulate_batch`` / ``accumulate_delta`` /
``hvs_from_accumulators``): the accumulator is a plain sum of n-gram
HVs, and a k-character substitution touches at most ``k·n`` n-grams,
so a mutated child is encoded from its parent's accumulator by
swapping only the affected n-gram terms.  The integer algebra is
exact, so delta-encoded hypervectors are bit-identical to scratch
encoding.  Inputs may be strings or arrays of alphabet codes (the
fuzzing domain's internal representation); the two forms encode
identically.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, EncodingError
from repro.hdc.encoders._blocked import (
    BLOCK_ELEMS,
    _child_chunks,
    _segment_breaks,
    bipolar_sign,
    segment_reduce,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import (
    ItemMemory,
    check_codebook,
    check_codebook_kind,
    make_item_memory,
)
from repro.hdc.ops import permute
from repro.hdc.spaces import DEFAULT_DIMENSION
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["NgramEncoder", "DEFAULT_ALPHABET"]

#: Lower-case letters plus space — the alphabet used by the language
#: identification literature the paper builds on.
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


class NgramEncoder(Encoder):
    """Encode strings as bundled, permutation-bound character n-grams.

    Parameters
    ----------
    n:
        n-gram order (3 = trigrams, the literature's default).
    alphabet:
        Permitted characters; anything outside raises
        :class:`~repro.errors.EncodingError` unless *unknown_policy* is
        ``"skip"`` (drop the character) or ``"map"`` (map to the last
        alphabet symbol).
    dimension:
        Hypervector dimensionality.
    rng:
        Seed/generator for the character codebook.
    item_memory:
        Optional pre-built character codebook (shared-codebook
        ensembles, materialised twins); must have one row per alphabet
        symbol.
    codebook:
        ``"materialized"`` (default) stores the codebook — and ``n``
        pre-permuted copies of it — as arrays; ``"rematerialized"``
        regenerates rows (and their permutations) on demand from one
        64-bit seed, shrinking retained encoder state to near zero.
    """

    ARCHITECTURE = ("n", "alphabet", "unknown_policy", "dimension")

    def __init__(
        self,
        n: int = 3,
        *,
        alphabet: str = DEFAULT_ALPHABET,
        dimension: int = DEFAULT_DIMENSION,
        rng: RngLike = None,
        unknown_policy: str = "raise",
        item_memory: Optional[ItemMemory] = None,
        codebook: str = "materialized",
    ) -> None:
        self._n = check_positive_int(n, "n")
        if not alphabet:
            raise ConfigurationError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ConfigurationError("alphabet contains duplicate characters")
        if unknown_policy not in ("raise", "skip", "map"):
            raise ConfigurationError(
                f"unknown_policy must be 'raise', 'skip' or 'map', got {unknown_policy!r}"
            )
        self._alphabet = alphabet
        self._char_to_idx = {ch: i for i, ch in enumerate(alphabet)}
        self._unknown_policy = unknown_policy
        self._space = self.SPACE(dimension)
        check_codebook_kind(codebook)
        if item_memory is None:
            item_memory = make_item_memory(
                codebook, len(alphabet), self._space, rng=ensure_rng(rng)
            )
        self._item_memory = check_codebook(
            item_memory, len(alphabet), self.dimension, "item_memory"
        )
        self._build_shifted()

    @classmethod
    def codebook_layout(cls, *, alphabet, **_) -> dict[str, tuple[int, type]]:
        return {"item": (len(alphabet), ItemMemory)}

    def _build_shifted(self) -> None:
        # Pre-permuted codebooks: row r of _shifted[k] is ρ^k(item_r).
        # A rematerialized codebook stores nothing, so its permuted
        # copies aren't cached either — _shifted_take rolls regenerated
        # rows on demand instead.
        if self.codebook == "rematerialized":
            self._shifted = None
        else:
            self._shifted = [
                np.roll(self._item_memory.vectors, self._n - 1 - k, axis=1)
                for k in range(self._n)
            ]

    def _shifted_take(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Gather ρ^{n-1-k}-permuted codebook rows (generated if remat)."""
        if self._shifted is not None:
            return self._shifted[k][rows]
        return np.roll(self._item_memory.take(rows), self._n - 1 - k, axis=-1)

    def _shifted_gather(self, k: int, rows: np.ndarray) -> np.ndarray:
        """:meth:`_shifted_take` generating each distinct row at most once.

        The fused delta path gathers one row per affected n-gram slot
        across a whole child block; with a rematerialized codebook the
        alphabet is tiny compared to the block, so regenerating (and
        rolling) only the unique rows makes each character's permuted
        HV exist once per block instead of once per occurrence.
        """
        if self._shifted is not None:
            return self._shifted[k][rows]
        uniq, inv = np.unique(rows, return_inverse=True)
        return np.roll(self._item_memory.take(uniq), self._n - 1 - k, axis=-1)[inv]

    # -- introspection ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._space.dimension

    @property
    def n(self) -> int:
        """n-gram order."""
        return self._n

    @property
    def alphabet(self) -> str:
        """Permitted characters."""
        return self._alphabet

    @property
    def unknown_policy(self) -> str:
        """Out-of-alphabet character handling (``raise``/``skip``/``map``)."""
        return self._unknown_policy

    @property
    def levels(self) -> int:
        """Alphabet size — the number of distinct codes (quantisation levels)."""
        return len(self._alphabet)

    @property
    def item_memory(self) -> ItemMemory:
        """Per-character codebook."""
        return self._item_memory

    # -- encoding ----------------------------------------------------------
    def indices(self, text: Union[str, np.ndarray]) -> np.ndarray:
        """Map *text* to codebook indices, applying the unknown policy.

        Arrays of codes (the fuzzing domain's internal representation)
        pass through after range validation.
        """
        if isinstance(text, np.ndarray):
            return self._validate_codes(text)
        if not isinstance(text, str):
            raise EncodingError(f"expected str or code array, got {type(text).__name__}")
        idx = []
        for ch in text:
            pos = self._char_to_idx.get(ch)
            if pos is None:
                if self._unknown_policy == "raise":
                    raise EncodingError(f"character {ch!r} not in alphabet")
                if self._unknown_policy == "skip":
                    continue
                pos = len(self._alphabet) - 1
            idx.append(pos)
        return np.asarray(idx, dtype=np.int64)

    def _validate_codes(self, codes: np.ndarray) -> np.ndarray:
        arr = np.asarray(codes)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise EncodingError(
                f"code arrays must be 1-D integer, got {arr.dtype} {arr.shape}"
            )
        if arr.size and (int(arr.max()) >= len(self._alphabet) or int(arr.min()) < 0):
            raise EncodingError(
                f"codes must lie in [0, {len(self._alphabet) - 1}], got range "
                f"[{int(arr.min())}, {int(arr.max())}]"
            )
        return arr.astype(np.int64, copy=False)

    def quantize(self, items: Union[np.ndarray, Sequence[str]]) -> np.ndarray:
        """Code rows of a batch of inputs — the text analogue of grey levels.

        Accepts an ``(n, L)`` code array (validated, returned as int64)
        or a sequence of equal-length strings (index-mapped).  Part of
        the delta-encoder surface the fuzzing engines consume.
        """
        if isinstance(items, np.ndarray):
            arr = np.asarray(items)
            if arr.ndim == 1:
                arr = arr[None]
            if arr.ndim != 2:
                raise EncodingError(f"code batches must be (n, L), got {arr.shape}")
            for row in arr:
                self._validate_codes(row)
            return arr.astype(np.int64, copy=False)
        rows = [self.indices(item) for item in items]
        lengths = {row.size for row in rows}
        if len(lengths) > 1:
            raise EncodingError(
                f"strings must share one in-alphabet length to batch, got {sorted(lengths)}"
            )
        return np.stack(rows) if rows else np.empty((0, 0), dtype=np.int64)

    def _gram_accumulate(self, idx: np.ndarray) -> np.ndarray:
        """Raw integer accumulator (sum of n-gram HVs) of one code row."""
        if idx.size < self._n:
            raise EncodingError(
                f"text needs at least n={self._n} in-alphabet characters, got {idx.size}"
            )
        # n-gram g at position t binds ρ^{n-1}(c_t) ⊛ ... ⊛ ρ^0(c_{t+n-1}).
        # Using the pre-shifted codebooks this is a product of n gathers.
        n_grams = idx.size - self._n + 1
        acc = np.ones((n_grams, self.dimension), dtype=np.int64)
        for k in range(self._n):
            acc *= self._shifted_take(k, idx[k : k + n_grams])
        return acc.sum(axis=0, dtype=np.int64)

    def accumulate_batch(self, items: Union[np.ndarray, Sequence[str]]) -> np.ndarray:
        """Raw ``(n, D)`` integer accumulators (pre-binarization sums)."""
        if isinstance(items, np.ndarray):
            arr = np.asarray(items)
            rows = [self._validate_codes(row) for row in (arr[None] if arr.ndim == 1 else arr)]
        elif isinstance(items, str):
            raise EncodingError("accumulate_batch expects a sequence, not one string")
        else:
            rows = [self.indices(item) for item in items]
        out = np.empty((len(rows), self.dimension), dtype=np.int64)
        for i, idx in enumerate(rows):
            out[i] = self._gram_accumulate(idx)
        return out

    def accumulate_delta(
        self,
        level_batch: np.ndarray,
        parent_levels: np.ndarray,
        parent_accumulators: np.ndarray,
        *,
        result_dtype: Optional[type] = None,
    ) -> np.ndarray:
        """Accumulators of children given their parents' accumulators.

        A child sharing most codes with its parent shares most n-grams:
        only n-grams overlapping a changed position differ, and a
        position *q* is covered by the n-grams starting in
        ``[q−n+1, q]``.  So::

            acc(child) = acc(parent) + Σ_{t affected} (gram_t(child) − gram_t(parent))

        with at most ``k·n`` affected n-grams for *k* changed
        characters.  The algebra is exact in integers, so the result is
        bit-identical to :meth:`accumulate_batch` on the children.

        Parameters
        ----------
        level_batch:
            ``(n, L)`` child code rows (see :meth:`quantize`).
        parent_levels:
            ``(n, L)`` code rows of each child's parent.
        parent_accumulators:
            ``(n, D)`` integer accumulators of the parents.
        result_dtype:
            Output dtype; default int64.  Callers whose accumulator
            storage is already exact (it can hold ``±(L−n+1)``) may
            pass it to keep the whole delta in that compact dtype.
        """
        levels = np.asarray(level_batch)
        parents = np.asarray(parent_levels)
        if levels.shape != parents.shape or levels.ndim != 2:
            raise EncodingError(
                f"level_batch {levels.shape} and parent_levels {parents.shape} "
                "must both be (n, L)"
            )
        if levels.shape[1] < self._n:
            raise EncodingError(
                f"rows have {levels.shape[1]} characters, need at least n={self._n}"
            )
        accs = np.asarray(parent_accumulators)
        if accs.shape != (levels.shape[0], self.dimension):
            raise EncodingError(
                f"parent_accumulators {accs.shape} must be "
                f"(n={levels.shape[0]}, D={self.dimension})"
            )
        n_grams = levels.shape[1] - self._n + 1
        out = accs.astype(result_dtype or np.int64, copy=True)
        changed = levels != parents
        if not changed.any():
            return out
        # Affected n-gram starts for every child at once: gram t covers
        # positions [t, t+n−1], so its "affected" bit is the windowed OR
        # of the changed mask over those n positions (exactly the
        # clipped [q−n+1, q] start sets of the per-row formulation).
        affected = np.array(changed[:, :n_grams])
        for k in range(1, self._n):
            np.logical_or(affected, changed[:, k : k + n_grams], out=affected)
        rows, starts = np.nonzero(affected)
        counts = np.count_nonzero(affected, axis=1)
        child_idx = levels.astype(np.int64, copy=False)
        parent_idx = parents.astype(np.int64, copy=False)
        # Gram products stay in {-1, +1} (products of ±1 rows), so the
        # replaced-gram corrections are ±2-bounded int8 rows; int16
        # segment sums are exact up to 16383 affected grams per child.
        sum_dtype = (
            np.int16
            if int(counts.max()) <= np.iinfo(np.int16).max // 2
            else np.int64
        )
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for lo, hi in _child_chunks(
            bounds, counts.shape[0], max(1, BLOCK_ELEMS // (2 * self.dimension))
        ):
            s, e = int(bounds[lo]), int(bounds[hi])
            if s == e:
                continue
            r = rows[s:e]
            t = starts[s:e]
            old = np.ones((e - s, self.dimension), dtype=np.int8)
            new = np.ones((e - s, self.dimension), dtype=np.int8)
            for k in range(self._n):
                old *= self._shifted_gather(k, parent_idx[r, t + k])
                new *= self._shifted_gather(k, child_idx[r, t + k])
            new -= old
            seg_starts = np.flatnonzero(_segment_breaks(r))
            out[r[seg_starts]] += segment_reduce(new, seg_starts, sum_dtype)
        return out

    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """Binarization of raw accumulators (:meth:`encode`'s exact rule)."""
        return bipolar_sign(accumulators)

    def encode(self, item: Union[str, np.ndarray]) -> np.ndarray:
        return self.hvs_from_accumulators(self._gram_accumulate(self.indices(item)))

    def encode_batch(self, items: Union[np.ndarray, Sequence[str]]) -> np.ndarray:
        """Encode strings or ``(n, L)`` code rows into ``(n, D)`` HVs."""
        return self.hvs_from_accumulators(self.accumulate_batch(items))

    def __repr__(self) -> str:
        return (
            f"NgramEncoder(n={self._n}, alphabet_size={len(self._alphabet)}, "
            f"dimension={self.dimension})"
        )

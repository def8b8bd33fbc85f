"""The paper's pixel-position/value image encoder (Sec. III-A).

Encoding an ``H×W`` grey-scale image:

1. flatten to a pixel array (position = flat index, value = grey level);
2. for each pixel, bind its *position HV* with its *value HV*
   (``pos ⊛ val``, element-wise multiplication of two random bipolar
   codebook rows);
3. bundle (sum) all pixel HVs and re-bipolarise with Eq. 1.

Both codebooks are i.i.d. random, exactly as the paper specifies
("we randomly generate two memories of HVs").  A
:class:`~repro.hdc.item_memory.LevelMemory` can be substituted for the
value memory to study the ordinal-encoding ablation.

Performance
-----------
The hot loop of the whole system is encoding mutated seed images, so two
vectorised paths are provided:

* a *dense* path — gather both codebooks for all ``H*W`` pixels and
  reduce (one fused multiply-sum per image);
* a *sparse-background* path — rewrite the sum as
  ``(Σ_p pos_p) ⊛ val_bg  +  Σ_{p∉bg} pos_p ⊛ (val_{x_p} − val_bg)``
  so only non-background pixels are gathered.  MNIST-style images are
  ≈80 % background, which makes this ≈4–5× faster.  The two paths are
  bit-identical (the algebra is exact in integers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, EncodingError
from repro.hdc.encoders._blocked import (
    bipolar_sign,
    fused_delta_into,
    grouped_products,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import (
    ItemMemory,
    check_codebook_kind,
    codebook_kind,
    make_item_memory,
)
from repro.hdc.ops import bipolarize
from repro.hdc.spaces import DEFAULT_DIMENSION, BipolarSpace
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import as_image_batch, check_positive_int

__all__ = ["PixelEncoder"]


class PixelEncoder(Encoder):
    """Position ⊛ value image encoder over bipolar hypervectors.

    Parameters
    ----------
    shape:
        Image shape ``(H, W)``; the paper uses ``(28, 28)``.
    levels:
        Number of grey-level entries in the value memory.  The paper
        stores one HV per grey value (its prose says 255; we default to
        256 so every ``uint8`` value has its own row — value 255
        included).
    dimension:
        Hypervector dimensionality ``D`` (default 10 000, as in the
        paper's experiments).
    value_memory:
        Optional pre-built value codebook (e.g. a
        :class:`~repro.hdc.item_memory.LevelMemory` for the ordinal
        ablation, or a shared codebook reused across ensemble members).
        Must have ``levels`` rows.
    position_memory:
        Optional pre-built position codebook (``H·W`` rows) — the
        injection point for shared-codebook ensembles and for
        materialising a rematerialized twin.
    rng:
        Seed/generator for the random codebooks.
    sparse_background:
        Use the sparse-background fast path (identical results).
    codebook:
        ``"materialized"`` (default) stores the codebooks as ``(n, D)``
        arrays; ``"rematerialized"`` draws
        :class:`~repro.hdc.item_memory.RematerializedItemMemory`
        codebooks whose rows are regenerated on demand from one 64-bit
        seed each — near-zero retained encoder state, bit-identical to
        their :meth:`~repro.hdc.item_memory.RematerializedItemMemory.materialize`-d
        twins.  Explicitly injected memories take precedence.
    """

    def __init__(
        self,
        shape: tuple[int, int] = (28, 28),
        *,
        levels: int = 256,
        dimension: int = DEFAULT_DIMENSION,
        value_memory: Optional[ItemMemory] = None,
        position_memory: Optional[ItemMemory] = None,
        rng: RngLike = None,
        sparse_background: bool = True,
        codebook: str = "materialized",
    ) -> None:
        if len(shape) != 2:
            raise ConfigurationError(f"shape must be (H, W), got {shape}")
        self._shape = (check_positive_int(shape[0], "H"), check_positive_int(shape[1], "W"))
        self._levels = check_positive_int(levels, "levels")
        self._space = BipolarSpace(dimension)
        self._sparse_background = bool(sparse_background)
        check_codebook_kind(codebook)

        pos_rng, val_rng = spawn(ensure_rng(rng), 2)
        n_pixels = self._shape[0] * self._shape[1]
        if position_memory is not None:
            if position_memory.size != n_pixels:
                raise ConfigurationError(
                    f"position_memory has {position_memory.size} rows, "
                    f"expected H*W={n_pixels}"
                )
            if position_memory.dimension != dimension:
                raise ConfigurationError(
                    f"position_memory dimension {position_memory.dimension} != "
                    f"encoder dimension {dimension}"
                )
            self._position_memory = position_memory
        else:
            self._position_memory = make_item_memory(
                codebook, n_pixels, self._space, rng=pos_rng
            )
        if value_memory is None:
            value_memory = make_item_memory(
                codebook, self._levels, self._space, rng=val_rng
            )
        if value_memory.size != self._levels:
            raise ConfigurationError(
                f"value_memory has {value_memory.size} rows, expected levels={self._levels}"
            )
        if value_memory.dimension != dimension:
            raise ConfigurationError(
                f"value_memory dimension {value_memory.dimension} != encoder dimension {dimension}"
            )
        self._value_memory = value_memory
        # Cached for the sparse path: Σ_p pos_p, an integer accumulator
        # (computed from a transient materialisation when rematerialized).
        self._position_sum = self._position_memory.vectors.sum(axis=0, dtype=np.int64)

    # -- introspection ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._space.dimension

    @property
    def shape(self) -> tuple[int, int]:
        """Expected image shape ``(H, W)``."""
        return self._shape

    @property
    def levels(self) -> int:
        """Number of grey levels in the value memory."""
        return self._levels

    @property
    def position_memory(self) -> ItemMemory:
        """Codebook of per-pixel position hypervectors (``H*W`` rows)."""
        return self._position_memory

    @property
    def value_memory(self) -> ItemMemory:
        """Codebook of per-grey-level value hypervectors."""
        return self._value_memory

    @property
    def codebook(self) -> str:
        """Codebook storage kind: ``"materialized"`` or ``"rematerialized"``."""
        return codebook_kind(self._position_memory)

    # -- quantisation ------------------------------------------------------
    def quantize(self, images: np.ndarray) -> np.ndarray:
        """Map grey values in [0, 255] to level indices ``0..levels-1``.

        With the default 256 levels this is plain rounding, so integer
        images pass through unchanged.
        """
        arr = as_image_batch(images, shape=self._shape)
        idx = np.rint(arr * ((self._levels - 1) / 255.0)).astype(np.int64)
        return idx

    # -- encoding ----------------------------------------------------------
    def encode(self, item: np.ndarray) -> np.ndarray:
        """Encode one image into a bipolar ``(D,)`` hypervector."""
        return self.encode_batch(np.asarray(item)[None] if np.asarray(item).ndim == 2 else item)[0]

    def encode_batch(self, items: np.ndarray) -> np.ndarray:
        """Encode ``(n, H, W)`` images into an ``(n, D)`` bipolar stack.

        Tie-breaking for zero accumulator components (Eq. 1) is
        deterministic here: a component that sums to exactly zero maps
        to +1.  Determinism matters because the fuzzer re-encodes the
        same image many times; random tie-breaking would make
        predictions flicker without any input change, breaking the
        differential oracle.  With D = 10 000 and 784 summands, exact
        zeros are rare enough (<1 % of components) that this choice is
        immaterial to accuracy.
        """
        return self.hvs_from_accumulators(self.accumulate_batch(items))

    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """Eq. 1 binarization of raw accumulators (``encode_batch``'s rule).

        Exposed so incremental encoders of hypervectors (the batched
        fuzzing engine) apply exactly this tie-breaking, rather than
        re-implementing it.
        """
        return bipolar_sign(accumulators)

    def accumulate_batch(self, items: np.ndarray) -> np.ndarray:
        """Return raw integer accumulators ``(n, D)`` (pre-Eq.-1 sums)."""
        images = as_image_batch(items, shape=self._shape)
        level_idx = self.quantize(images)
        n = images.shape[0]
        flat = level_idx.reshape(n, -1)
        if self._sparse_background:
            return self._accumulate_sparse(flat)
        return self._accumulate_dense(flat)

    def accumulate_delta(
        self,
        level_batch: np.ndarray,
        parent_levels: np.ndarray,
        parent_accumulators: np.ndarray,
        *,
        result_dtype: Optional[type] = None,
    ) -> np.ndarray:
        """Accumulators of children given their parents' accumulators.

        The fuzzing loop encodes *mutants of known seeds*, and a mutant
        shares most quantised pixel levels with its parent.  Since the
        accumulator is a plain sum over pixels, the child's accumulator
        is the parent's plus a correction over only the *changed*
        pixels::

            acc(child) = acc(parent) + Σ_{p: c_p ≠ s_p} pos_p ⊛ (val[c_p] − val[s_p])

        The algebra is exact in integers, so the result is bit-identical
        to :meth:`accumulate_batch` on the children — at a fraction of
        the work when few levels change (``rand`` flips ~8 pixels of
        784; even ``gauss`` leaves ~half the levels untouched).

        Parameters
        ----------
        level_batch:
            ``(n, H*W)`` quantised child levels (see :meth:`quantize`).
        parent_levels:
            ``(n, H*W)`` quantised levels of each child's parent.
        parent_accumulators:
            ``(n, D)`` integer accumulators of the parents.
        result_dtype:
            Output dtype; default int64 (the public contract).  Callers
            whose accumulator storage is already exact — any dtype that
            can hold ``±H·W``, like the engine seed pool's compact
            int16 — may pass it to keep the whole delta in that dtype,
            which cuts the block's memory traffic ~4× with bit-equal
            results (the algebra is exact in any sufficient dtype).

        Returns
        -------
        ``(n, D)`` accumulators in *result_dtype*, elementwise equal to
        ``accumulate_batch`` applied to the children directly.
        """
        levels = np.asarray(level_batch)
        parents = np.asarray(parent_levels)
        if levels.shape != parents.shape or levels.ndim != 2:
            raise EncodingError(
                f"level_batch {levels.shape} and parent_levels {parents.shape} "
                "must both be (n, H*W)"
            )
        n_pixels = self._shape[0] * self._shape[1]
        if levels.shape[1] != n_pixels:
            raise EncodingError(
                f"level rows have {levels.shape[1]} pixels, expected {n_pixels}"
            )
        accs = np.asarray(parent_accumulators)
        if accs.shape != (levels.shape[0], self.dimension):
            raise EncodingError(
                f"parent_accumulators {accs.shape} must be "
                f"(n={levels.shape[0]}, D={self.dimension})"
            )
        # One fused ragged scatter over the whole block: the changed
        # (child, pixel) pairs become flat COO indices and the
        # ±2-bounded corrections are summed per child through
        # cache-resident tiles (exact in any dtype that holds ±H·W).
        return fused_delta_into(
            accs.astype(result_dtype or np.int64, copy=True),
            self._position_memory,
            self._value_memory,
            levels,
            parents,
        )

    # -- internals -----------------------------------------------------
    def _accumulate_dense(self, flat_levels: np.ndarray) -> np.ndarray:
        # Level-grouped blocked kernel: one call for the whole batch
        # instead of one P×D einsum per image.
        return grouped_products(
            self._position_memory.vectors, self._value_memory.vectors, flat_levels
        )

    def _accumulate_sparse(self, flat_levels: np.ndarray) -> np.ndarray:
        # The sparse rewrite *is* a delta from the all-background image:
        # acc = base + Σ_{p∉bg} pos_p ⊛ (val_{x_p} − val_0), so the same
        # fused correction kernel covers it — only the non-background
        # (child, pixel) pairs are ever gathered.
        val0 = self._value_memory.take(0).astype(np.int64)
        base = self._position_sum * val0  # Σ_p pos_p ⊛ val_0
        out = np.empty((flat_levels.shape[0], self.dimension), dtype=np.int64)
        out[:] = base
        return fused_delta_into(
            out,
            self._position_memory,
            self._value_memory,
            flat_levels,
            np.zeros_like(flat_levels),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self._shape}, levels={self._levels}, "
            f"dimension={self.dimension})"
        )

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
  ``Σ_p pos_p ⊛ val_bg  +  Σ_{p∉bg} pos_p ⊛ (val_{x_p} − val_bg)``
  so only non-background pixels are gathered.  MNIST-style images are
  ≈80 % background, which makes this ≈4–5× faster.  The two paths are
  bit-identical (the algebra is exact in integers).

The sparse path is a delta from the all-background image, so it runs
the fused delta kernel with the cached background accumulator as every
parent; the binary-pixel encoders share it
(:class:`ImageKeyValueEncoder`).  Codebook set-up, ``encode`` and the
incremental ``accumulate_delta`` are the key ⊛ value algebra shared
with the record encoder too
(:class:`~repro.hdc.encoders.keyvalue.KeyValueEncoder`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.encoders._blocked import exact_dtype, fused_delta_into, grouped_products
from repro.hdc.encoders.keyvalue import KeyValueEncoder
from repro.hdc.item_memory import ItemMemory
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace
from repro.utils.rng import RngLike
from repro.utils.validation import as_image_batch, check_positive_int

__all__ = ["ImageKeyValueEncoder", "PixelEncoder"]


class ImageKeyValueEncoder(KeyValueEncoder):
    """Key ⊛ value encoding of ``H×W`` grey-scale images: pixels are the keys.

    The shared half of the bipolar :class:`PixelEncoder` and the binary
    :class:`~repro.hdc.binary_model.BinaryPixelEncoder`: shape, the
    position codebook, grey-level quantisation, and the scratch
    ``accumulate_batch`` — the sparse-background delta from the
    all-background image (see the module docstring).
    """

    ARCHITECTURE = ("shape", "levels", "dimension")
    ITEM_NDIM = 2

    def __init__(
        self,
        shape: tuple[int, int],
        levels: int,
        dimension: int,
        *,
        position_memory: Optional[ItemMemory],
        value_memory: Optional[ItemMemory],
        rng: RngLike,
        codebook: str,
    ) -> None:
        if len(shape) != 2:
            raise ConfigurationError(f"shape must be (H, W), got {shape}")
        self._shape = (check_positive_int(shape[0], "H"), check_positive_int(shape[1], "W"))
        n_pixels = self._shape[0] * self._shape[1]
        super().__init__(
            n_pixels, levels, dimension,
            key_memory=position_memory, value_memory=value_memory,
            rng=rng, codebook=codebook,
        )
        # The all-background image's accumulator Σ_p pos_p ⊛ val_0, from
        # the column sum of the position codebook (a transient
        # materialisation when rematerialized); binary binding is XOR,
        # p ⊕ v = p + v − 2·p·v.
        pos_sum = self._key_memory.vectors.sum(axis=0, dtype=np.int64)
        val0 = self._value_memory.take(0).astype(np.int64)
        if self.SPACE is BinarySpace:
            background = pos_sum + (n_pixels - 2 * pos_sum) * val0
        else:
            background = pos_sum * val0
        self._background = background.astype(exact_dtype(n_pixels))

    @classmethod
    def codebook_layout(cls, *, shape, levels, **_) -> dict[str, tuple[int, type]]:
        return {"position": (shape[0] * shape[1], ItemMemory), "value": (levels, ItemMemory)}

    @property
    def shape(self) -> tuple[int, int]:
        """Expected image shape ``(H, W)``."""
        return self._shape

    @property
    def position_memory(self) -> ItemMemory:
        """Codebook of per-pixel position hypervectors (``H*W`` rows)."""
        return self._key_memory

    def quantize(self, images: np.ndarray) -> np.ndarray:
        """Map grey values in [0, 255] to level indices ``0..levels-1``.

        With the default 256 levels this is plain rounding, so integer
        images pass through unchanged.
        """
        arr = as_image_batch(images, shape=self._shape)
        return np.rint(arr * ((self._levels - 1) / 255.0)).astype(np.int64)

    # -- encoding ----------------------------------------------------------
    def accumulate_batch(self, items: np.ndarray) -> np.ndarray:
        """Raw accumulators ``(n, D)`` (pre-Eq.-1 sums) in the exact compact dtype."""
        levels = self.quantize(items)
        return self._accumulate_levels(levels.reshape(levels.shape[0], -1))

    def _accumulate_levels(self, flat_levels: np.ndarray) -> np.ndarray:
        # acc = background + Σ_{p∉bg} (pos_p ⊛ val_{x_p} − pos_p ⊛ val_0):
        # the fused correction kernel with the all-background image as
        # every parent, so only non-background (child, pixel) pairs are
        # ever gathered.
        out = np.empty((flat_levels.shape[0], self.dimension), self._background.dtype)
        out[:] = self._background
        return fused_delta_into(
            out,
            self._key_memory,
            self._value_memory,
            flat_levels,
            np.zeros_like(flat_levels),
            binary=self.SPACE is BinarySpace,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self._shape}, levels={self._levels}, "
            f"dimension={self.dimension})"
        )


class PixelEncoder(ImageKeyValueEncoder):
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
        self._sparse_background = bool(sparse_background)
        super().__init__(
            shape, levels, dimension,
            position_memory=position_memory, value_memory=value_memory,
            rng=rng, codebook=codebook,
        )

    def _accumulate_levels(self, flat_levels: np.ndarray) -> np.ndarray:
        if self._sparse_background:
            return super()._accumulate_levels(flat_levels)
        # Level-grouped blocked kernel: one call for the whole batch
        # instead of one P×D einsum per image.
        return grouped_products(
            self._key_memory.vectors, self._value_memory.vectors, flat_levels
        )

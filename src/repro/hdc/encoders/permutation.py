"""Permutation-based image encoder — an alternative HDC model structure.

The paper stresses that HDC encoding "is largely unique for different
applications" (Sec. I) and that HDTest generalises across model
structures because it only needs HV distances (Sec. V-E).  This encoder
is that second structure for images: instead of binding a *random
position HV* per pixel (the paper's scheme), spatial identity comes
from the permutation operation ρ —

    ImgHV = bipolarize( Σ_p  ρ^p( val[x_p] ) )

i.e. the value HV of pixel ``p`` is cyclically shifted by ``p`` before
bundling.  ρ preserves pairwise distances and maps random HVs to
(pseudo-)orthogonal ones, so shifted copies act exactly like per-pixel
codebooks while storing a single value memory — the rematerialisation
trick of Schmuck et al. (the paper's ref. [18]).

Functionally interchangeable with
:class:`~repro.hdc.encoders.image.PixelEncoder` everywhere in the
library (model, fuzzer, defense); the ablation bench puts both under
HDTest to show the fuzzer is agnostic to the encoding structure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import ItemMemory, check_codebook
from repro.hdc.spaces import DEFAULT_DIMENSION
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import as_image_batch, check_positive_int

__all__ = ["PermutationImageEncoder"]


class PermutationImageEncoder(Encoder):
    """Encode images as ``Σ_p ρ^p(val[x_p])`` over a single value codebook.

    Parameters
    ----------
    shape:
        Image shape ``(H, W)``.
    levels:
        Grey-level count of the value memory.
    dimension:
        Hypervector dimensionality.
    value_memory:
        Optional pre-built value codebook (``levels`` rows).
    rng:
        Seed/generator for the codebook.
    """

    ARCHITECTURE = ("shape", "levels", "dimension")

    def __init__(
        self,
        shape: tuple[int, int] = (28, 28),
        *,
        levels: int = 256,
        dimension: int = DEFAULT_DIMENSION,
        value_memory: Optional[ItemMemory] = None,
        rng: RngLike = None,
    ) -> None:
        if len(shape) != 2:
            raise ConfigurationError(f"shape must be (H, W), got {shape}")
        self._shape = (check_positive_int(shape[0], "H"), check_positive_int(shape[1], "W"))
        self._levels = check_positive_int(levels, "levels")
        self._space = self.SPACE(dimension)
        if value_memory is None:
            value_memory = ItemMemory(self._levels, self._space, rng=ensure_rng(rng))
        self._value_memory = check_codebook(
            value_memory, self._levels, self.dimension, "value_memory"
        )
        n_pixels = self._shape[0] * self._shape[1]
        if n_pixels > dimension:
            raise ConfigurationError(
                f"dimension ({dimension}) must be >= number of pixels "
                f"({n_pixels}) for distinct cyclic shifts"
            )
        # Precomputed gather indices: row p holds (arange(D) - p) % D, so
        # rolled[p] = vec[gather[p]] == np.roll(vec, p).
        d = dimension
        self._gather = (np.arange(d)[None, :] - np.arange(n_pixels)[:, None]) % d

    @classmethod
    def codebook_layout(cls, *, levels, **_) -> dict[str, tuple[int, type]]:
        return {"value": (levels, ItemMemory)}

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
        """Grey-level count."""
        return self._levels

    @property
    def value_memory(self) -> ItemMemory:
        """The single value codebook (no position memory exists)."""
        return self._value_memory

    # -- encoding ----------------------------------------------------------
    def quantize(self, images: np.ndarray) -> np.ndarray:
        """Map grey values in [0, 255] to level indices."""
        arr = as_image_batch(images, shape=self._shape)
        return np.rint(arr * ((self._levels - 1) / 255.0)).astype(np.int64)

    def encode(self, item: np.ndarray) -> np.ndarray:
        arr = np.asarray(item)
        return self.encode_batch(arr[None] if arr.ndim == 2 else arr)[0]

    def encode_batch(self, items: np.ndarray) -> np.ndarray:
        """Encode ``(n, H, W)`` images into ``(n, D)`` bipolar HVs.

        Zero accumulator components quantise to +1 (deterministic, for
        the same oracle-stability reason as
        :meth:`repro.hdc.encoders.image.PixelEncoder.encode_batch`).
        """
        levels = self.quantize(items)
        n = levels.shape[0]
        flat = levels.reshape(n, -1)
        vals = self._value_memory.vectors
        out = np.empty((n, self.dimension), dtype=np.int8)
        for i in range(n):
            pixel_hvs = vals[flat[i]]  # (P, D)
            shifted = np.take_along_axis(pixel_hvs, self._gather, axis=1)
            acc = shifted.sum(axis=0, dtype=np.int64)
            out[i] = np.where(acc >= 0, 1, -1)
        return out

    def __repr__(self) -> str:
        return (
            f"PermutationImageEncoder(shape={self._shape}, levels={self._levels}, "
            f"dimension={self.dimension})"
        )

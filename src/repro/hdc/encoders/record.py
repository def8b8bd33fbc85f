"""Record-based encoder for generic feature vectors.

This is the standard HDC "record" encoding used by VoiceHD and the
biosignal models the paper cites ([14], [15]): each feature *slot* gets
a random ID hypervector, each quantised feature *value* gets a value
hypervector, and the record HV is the re-bipolarised sum of
``id_f ⊛ val_{x_f}`` over features.  It generalises the image encoder
(positions = feature slots) to arbitrary fixed-length numeric records,
letting HDTest fuzz non-image HDC models through the same interface.

Like the pixel and n-gram encoders, it exposes the full incremental
surface the fuzzing engines probe for
(:data:`~repro.fuzz.domains.DELTA_ENCODER_API`): the accumulator is a
plain sum over feature slots, so a mutant's accumulator is its
parent's plus a correction over only the *changed* slots
(:meth:`RecordEncoder.accumulate_delta`, exact in integers and
therefore bit-identical to scratch encoding) — the batched fast path
for voice/record campaigns.
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
    LevelMemory,
    check_codebook_kind,
    codebook_kind,
    make_item_memory,
)
from repro.hdc.spaces import DEFAULT_DIMENSION, BipolarSpace
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_positive_int

__all__ = ["RecordEncoder"]


class RecordEncoder(Encoder):
    """Encode fixed-length numeric records as ``Σ_f id_f ⊛ val_{q(x_f)}``.

    Parameters
    ----------
    n_features:
        Record length (number of feature slots).
    levels:
        Number of quantisation levels for feature values.
    value_range:
        ``(low, high)`` range that feature values are clipped to before
        quantisation.
    level_encoding:
        ``"random"`` for i.i.d. value HVs (the paper's choice for
        images) or ``"linear"`` for ordinal
        :class:`~repro.hdc.item_memory.LevelMemory` rows.
    dimension:
        Hypervector dimensionality.
    rng:
        Seed/generator for the codebooks.
    id_memory / value_memory:
        Optional pre-built codebooks (shared-codebook ensembles,
        materialised twins); sizes must match ``n_features`` / ``levels``.
    codebook:
        ``"materialized"`` (default) stores both codebooks as arrays;
        ``"rematerialized"`` regenerates rows on demand from 64-bit
        seeds.  Rematerialization draws i.i.d. rows, so it requires
        ``level_encoding="random"`` — a :class:`LevelMemory`'s rows are
        sequentially constructed and cannot be regenerated row-wise.
    """

    def __init__(
        self,
        n_features: int,
        *,
        levels: int = 64,
        value_range: tuple[float, float] = (0.0, 1.0),
        level_encoding: str = "linear",
        dimension: int = DEFAULT_DIMENSION,
        rng: RngLike = None,
        id_memory: Optional[ItemMemory] = None,
        value_memory: Optional[ItemMemory] = None,
        codebook: str = "materialized",
    ) -> None:
        self._n_features = check_positive_int(n_features, "n_features")
        self._levels = check_positive_int(levels, "levels")
        low, high = float(value_range[0]), float(value_range[1])
        if not low < high:
            raise ConfigurationError(f"value_range must satisfy low < high, got {value_range}")
        self._value_range = (low, high)
        self._space = BipolarSpace(dimension)
        check_codebook_kind(codebook)
        if codebook == "rematerialized" and level_encoding != "random":
            raise ConfigurationError(
                "codebook='rematerialized' requires level_encoding='random' "
                "(LevelMemory rows are sequentially constructed and cannot "
                "be regenerated row-wise)"
            )

        id_rng, val_rng = spawn(ensure_rng(rng), 2)
        if id_memory is not None:
            self._check_memory(id_memory, self._n_features, "id_memory")
            self._id_memory = id_memory
        else:
            self._id_memory = make_item_memory(
                codebook, self._n_features, self._space, rng=id_rng
            )
        if value_memory is not None:
            self._check_memory(value_memory, self._levels, "value_memory")
            self._value_memory: ItemMemory = value_memory
        elif level_encoding == "random":
            self._value_memory = make_item_memory(
                codebook, self._levels, self._space, rng=val_rng
            )
        elif level_encoding == "linear":
            self._value_memory = LevelMemory(self._levels, self._space, rng=val_rng)
        else:
            raise ConfigurationError(
                f"level_encoding must be 'random' or 'linear', got {level_encoding!r}"
            )
        self._level_encoding = level_encoding

    def _check_memory(self, memory: ItemMemory, size: int, name: str) -> None:
        if memory.size != size:
            raise ConfigurationError(
                f"{name} has {memory.size} rows, expected {size}"
            )
        if memory.dimension != self.dimension:
            raise ConfigurationError(
                f"{name} dimension {memory.dimension} != encoder dimension "
                f"{self.dimension}"
            )

    # -- introspection ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._space.dimension

    @property
    def n_features(self) -> int:
        """Number of feature slots per record."""
        return self._n_features

    @property
    def levels(self) -> int:
        """Number of quantisation levels."""
        return self._levels

    @property
    def value_range(self) -> tuple[float, float]:
        """Clipping range applied before quantisation."""
        return self._value_range

    @property
    def id_memory(self) -> ItemMemory:
        """Per-feature ID codebook."""
        return self._id_memory

    @property
    def value_memory(self) -> ItemMemory:
        """Per-level value codebook."""
        return self._value_memory

    @property
    def codebook(self) -> str:
        """Codebook storage kind (by the ID memory's actual storage)."""
        return codebook_kind(self._id_memory)

    # -- quantisation ------------------------------------------------------
    def quantize(self, records: np.ndarray) -> np.ndarray:
        """Clip to ``value_range`` and map to integer levels."""
        arr = np.asarray(records, dtype=np.float64)
        low, high = self._value_range
        arr = np.clip(arr, low, high)
        scaled = (arr - low) / (high - low)
        return np.rint(scaled * (self._levels - 1)).astype(np.int64)

    # -- encoding ----------------------------------------------------------
    def encode(self, item: np.ndarray) -> np.ndarray:
        arr = np.asarray(item, dtype=np.float64)
        if arr.ndim != 1:
            raise EncodingError(f"record must be 1-D, got shape {arr.shape}")
        return self.encode_batch(arr[None])[0]

    def encode_batch(self, items: np.ndarray) -> np.ndarray:
        return self.hvs_from_accumulators(self.accumulate_batch(items))

    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """Eq. 1 bipolarisation of raw accumulators (``encode_batch``'s rule).

        A component summing to exactly zero maps to +1, deterministically
        — the same tie policy as the pixel encoder, for the same reason
        (the differential oracle re-encodes unchanged inputs).
        """
        return bipolar_sign(accumulators)

    def accumulate_batch(self, items: np.ndarray) -> np.ndarray:
        """Raw integer accumulators ``(n, D)`` (pre-Eq.-1 feature sums)."""
        arr = np.asarray(items, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None]
        if arr.ndim != 2 or arr.shape[1] != self._n_features:
            raise EncodingError(
                f"records must be (n, {self._n_features}), got shape {arr.shape}"
            )
        if np.isnan(arr).any():
            raise EncodingError("records contain NaN values")
        levels = self.quantize(arr)
        # Level-grouped blocked kernel: one call for the whole batch
        # instead of one F×D einsum per record.
        return grouped_products(
            self._id_memory.vectors, self._value_memory.vectors, levels
        )

    def accumulate_delta(
        self,
        level_batch: np.ndarray,
        parent_levels: np.ndarray,
        parent_accumulators: np.ndarray,
        *,
        result_dtype: Optional[type] = None,
    ) -> np.ndarray:
        """Accumulators of children given their parents' accumulators.

        A record mutant shares most quantised feature levels with its
        parent, and the accumulator is a plain sum over feature slots::

            acc(child) = acc(parent) + Σ_{f: c_f ≠ s_f} id_f ⊛ (val[c_f] − val[s_f])

        The algebra is exact in integers, so the result is bit-identical
        to :meth:`accumulate_batch` on the children — at a fraction of
        the work when few levels change (``record_rand`` perturbs ~4 of
        the features; ``record_gauss`` leaves the quantised level of
        many slots untouched).  Same parameter conventions as
        :meth:`repro.hdc.encoders.image.PixelEncoder.accumulate_delta`
        with feature slots in place of pixels (including the compact
        *result_dtype* fast path for callers whose accumulator storage
        is already exact).
        """
        levels = np.asarray(level_batch)
        parents = np.asarray(parent_levels)
        if levels.shape != parents.shape or levels.ndim != 2:
            raise EncodingError(
                f"level_batch {levels.shape} and parent_levels {parents.shape} "
                "must both be (n, n_features)"
            )
        if levels.shape[1] != self._n_features:
            raise EncodingError(
                f"level rows have {levels.shape[1]} features, expected "
                f"{self._n_features}"
            )
        accs = np.asarray(parent_accumulators)
        if accs.shape != (levels.shape[0], self.dimension):
            raise EncodingError(
                f"parent_accumulators {accs.shape} must be "
                f"(n={levels.shape[0]}, D={self.dimension})"
            )
        # One fused ragged scatter over the whole block (see
        # PixelEncoder.accumulate_delta): changed (child, slot) pairs as
        # flat COO indices, ±2-bounded corrections summed per child
        # through cache-resident tiles.
        return fused_delta_into(
            accs.astype(result_dtype or np.int64, copy=True),
            self._id_memory,
            self._value_memory,
            levels,
            parents,
        )

    def __repr__(self) -> str:
        return (
            f"RecordEncoder(n_features={self._n_features}, levels={self._levels}, "
            f"level_encoding={self._level_encoding!r}, dimension={self.dimension})"
        )

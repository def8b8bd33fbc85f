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
(:data:`~repro.fuzz.domains.DELTA_ENCODER_API`): it is the key ⊛ value
algebra of :class:`~repro.hdc.encoders.keyvalue.KeyValueEncoder` with
feature slots as keys, so a mutant's accumulator is its parent's plus a
correction over only the *changed* slots (``accumulate_delta``, exact
in integers and therefore bit-identical to scratch encoding) — the
batched fast path for voice/record campaigns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, EncodingError
from repro.hdc.encoders._blocked import grouped_products
from repro.hdc.encoders.keyvalue import KeyValueEncoder
from repro.hdc.item_memory import ItemMemory, LevelMemory
from repro.hdc.spaces import DEFAULT_DIMENSION
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int

__all__ = ["RecordEncoder"]

#: ``level_encoding`` → memory class of the value codebook.
LEVEL_ENCODINGS = {"random": ItemMemory, "linear": LevelMemory}


class RecordEncoder(KeyValueEncoder):
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

    ARCHITECTURE = ("n_features", "levels", "value_range", "level_encoding", "dimension")
    KEY = "id"
    ITEM_NDIM = 1

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
        low, high = float(value_range[0]), float(value_range[1])
        if not low < high:
            raise ConfigurationError(f"value_range must satisfy low < high, got {value_range}")
        self._value_range = (low, high)
        if level_encoding not in LEVEL_ENCODINGS:
            raise ConfigurationError(
                f"level_encoding must be 'random' or 'linear', got {level_encoding!r}"
            )
        if codebook == "rematerialized" and level_encoding != "random":
            raise ConfigurationError(
                "codebook='rematerialized' requires level_encoding='random' "
                "(LevelMemory rows are sequentially constructed and cannot "
                "be regenerated row-wise)"
            )
        super().__init__(
            self._n_features, levels, dimension,
            key_memory=id_memory, value_memory=value_memory, rng=rng,
            codebook=codebook, value_type=LEVEL_ENCODINGS[level_encoding],
        )

    @classmethod
    def codebook_layout(
        cls, *, n_features, levels, level_encoding, **_
    ) -> dict[str, tuple[int, type]]:
        return {
            "id": (n_features, ItemMemory),
            "value": (levels, LEVEL_ENCODINGS[level_encoding]),
        }

    # -- introspection ---------------------------------------------------
    @property
    def n_features(self) -> int:
        """Number of feature slots per record."""
        return self._n_features

    @property
    def value_range(self) -> tuple[float, float]:
        """Clipping range applied before quantisation."""
        return self._value_range

    @property
    def level_encoding(self) -> str:
        """``"linear"`` when the value codebook is a LevelMemory, else ``"random"``."""
        return "linear" if isinstance(self._value_memory, LevelMemory) else "random"

    @property
    def id_memory(self) -> ItemMemory:
        """Per-feature ID codebook."""
        return self._key_memory

    # -- quantisation ------------------------------------------------------
    def quantize(self, records: np.ndarray) -> np.ndarray:
        """Clip to ``value_range`` and map to integer levels."""
        arr = np.asarray(records, dtype=np.float64)
        low, high = self._value_range
        arr = np.clip(arr, low, high)
        scaled = (arr - low) / (high - low)
        return np.rint(scaled * (self._levels - 1)).astype(np.int64)

    # -- encoding ----------------------------------------------------------
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
            self._key_memory.vectors, self._value_memory.vectors, levels
        )

    def __repr__(self) -> str:
        return (
            f"RecordEncoder(n_features={self._n_features}, levels={self._levels}, "
            f"level_encoding={self.level_encoding!r}, dimension={self.dimension})"
        )

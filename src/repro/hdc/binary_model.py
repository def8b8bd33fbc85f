"""Dense-binary HDC classifier — the Rahimi-style {0,1} model family.

Much of the HDC literature the paper builds on (its refs. [2], [14],
[18]) uses *dense binary* hypervectors: components in {0, 1}, XOR for
binding, majority vote for bundling, and Hamming distance for the
associative-memory query.  This module provides that family so HDTest
can fuzz it too — another concrete instance of the Sec. V-E claim that
only HV distance information is needed.

The pieces mirror the bipolar stack:

* :class:`BinaryPixelEncoder` — position XOR value encoding with
  majority-vote bundling;
* :class:`BinaryAssociativeMemory` — per-class bit-count accumulators,
  majority-quantised class HVs, (1 − Hamming) similarity query (cosine
  on centred binary HVs is monotone in Hamming distance, but the binary
  AM keeps the literature's exact formulation);
* :class:`BinaryHDCClassifier` — a :class:`~repro.hdc.model.HDCClassifier`
  subclass holding that memory; training, retraining, inference and
  persistence (as the ``pixel-binary-hdc`` archive kind, see
  :mod:`repro.hdc.archive`) are inherited.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.associative_memory import CounterMemory
from repro.hdc.encoders.base import Encoder
from repro.hdc.encoders.image import ImageKeyValueEncoder
from repro.hdc.item_memory import ItemMemory
from repro.hdc.model import HDCClassifier
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace
from repro.utils.rng import RngLike

__all__ = ["BinaryPixelEncoder", "BinaryAssociativeMemory", "BinaryHDCClassifier"]


class BinaryPixelEncoder(ImageKeyValueEncoder):
    """Position-XOR-value image encoder over dense-binary hypervectors.

    Encoding: pixel HV = ``pos_p XOR val_{q(x_p)}``; image HV =
    bit-wise majority over all pixel HVs (ties resolved to 1 for
    determinism, mirroring the bipolar encoder's zero policy).  The
    codebooks, ``encode``, the scratch ``accumulate_batch`` (ones counts
    ``Σ_p (pos_p ⊕ val[x_p])``, the sparse-background delta from the
    all-background image) and the incremental ``accumulate_delta`` are
    the key ⊛ value algebra shared with the bipolar
    :class:`~repro.hdc.encoders.image.PixelEncoder`, over
    :class:`~repro.hdc.spaces.BinarySpace`.
    """

    SPACE = BinarySpace

    def __init__(
        self,
        shape: tuple[int, int] = (28, 28),
        *,
        levels: int = 256,
        dimension: int = DEFAULT_DIMENSION,
        rng: RngLike = None,
        position_memory: Optional[ItemMemory] = None,
        value_memory: Optional[ItemMemory] = None,
        codebook: str = "materialized",
    ) -> None:
        super().__init__(
            shape, levels, dimension,
            position_memory=position_memory, value_memory=value_memory,
            rng=rng, codebook=codebook,
        )
        self._majority_threshold = self._key_memory.size / 2.0

    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """Majority-quantise ones-count accumulators into {0, 1} HVs.

        A component is 1 when at least half the pixel HVs set it
        (ties → 1, deterministic — the binary analogue of the bipolar
        encoder's zero policy).  Exposed so the incremental fuzzing
        engines apply exactly this rule.
        """
        return (np.asarray(accumulators) >= self._majority_threshold).astype(np.int8)


def majority_bits(ones: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Majority-quantised class bits from per-class ones counters.

    Component ``d`` of class ``c`` is set when at least half of the
    class's ``counts[c]`` rows set it (ties → 1, deterministic — the
    binary analogue of the bipolar zero policy).  Shared by the dense
    and packed binary memories, so their class HVs agree bit for bit.
    """
    return ones >= np.maximum(counts, 1)[:, None] / 2.0


class BinaryAssociativeMemory(CounterMemory):
    """Per-class bit-count accumulators with Hamming-similarity queries.

    The binary counterpart of
    :class:`~repro.hdc.associative_memory.AssociativeMemory` on the same
    counter core: ``ones[c, d]`` counts the 1-bits added to class ``c``
    at component ``d``, subtraction clamps at zero, and the class HVs
    are majority-quantised.  It exposes the surface the classifier and
    fuzzer rely on, so it drops into
    :class:`~repro.hdc.model.HDCClassifier` as-is.
    """

    FIELD = "ones"
    CLAMPED = True
    _bipolar = False

    def _check_hvs(self, hvs: np.ndarray, name: str = "hvs") -> np.ndarray:
        arr = super()._check_hvs(hvs, name)
        binary = arr == 0
        binary |= arr == 1  # the answer of np.isin(arr, (0, 1)), two bool blocks wide
        if not binary.all():
            raise ConfigurationError("binary AM requires {0,1} hypervectors")
        return arr

    @property
    def class_hvs(self) -> np.ndarray:
        """Majority-quantised class hypervectors (ties → 1)."""
        if self._cache is None:
            self._cache = majority_bits(self._counters, self._counts).astype(np.int8)
        return self._cache

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """``1 − normalized Hamming distance`` to each class → (n, C).

        Mismatches are counted one class at a time, so the working set
        is one ``(n, D)`` comparison block; the counts and the division
        are the packed memory's, bit for bit.
        """
        self._require_trained()
        arr = self._as_block(queries, "queries", self._dimension)
        diff = np.empty((arr.shape[0], self._n_classes), dtype=np.int64)
        for c, class_hv in enumerate(self.class_hvs):
            diff[:, c] = np.count_nonzero(arr != class_hv, axis=1)
        return 1.0 - diff / float(self._dimension)


class BinaryHDCClassifier(HDCClassifier):
    """:class:`~repro.hdc.model.HDCClassifier` over the binary pair.

    Training, retraining, inference, scoring, copies, saving and
    loading are inherited; only the associative memory differs (bit
    counters, not signed sums — the ``pixel-binary-hdc`` archive kind
    stores them as ``am_ones``).
    """

    def __init__(self, encoder: Encoder, n_classes: int) -> None:
        super().__init__(encoder, n_classes)
        self._am = BinaryAssociativeMemory(self._n_classes, encoder.dimension)

    def _options(self) -> dict:
        return {}

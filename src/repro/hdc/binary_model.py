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

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.associative_memory import check_am_state
from repro.hdc.encoders._blocked import grouped_products, level_histogram
from repro.hdc.encoders.base import Encoder
from repro.hdc.encoders.image import ImageKeyValueEncoder
from repro.hdc.item_memory import ItemMemory
from repro.hdc.model import HDCClassifier
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace
from repro.utils.rng import RngLike
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["BinaryPixelEncoder", "BinaryAssociativeMemory", "BinaryHDCClassifier"]


class BinaryPixelEncoder(ImageKeyValueEncoder):
    """Position-XOR-value image encoder over dense-binary hypervectors.

    Encoding: pixel HV = ``pos_p XOR val_{q(x_p)}``; image HV =
    bit-wise majority over all pixel HVs (ties resolved to 1 for
    determinism, mirroring the bipolar encoder's zero policy).  The
    codebooks, ``encode`` and the incremental ``accumulate_delta`` are
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

    def accumulate_batch(self, items: np.ndarray) -> np.ndarray:
        """Per-component ones counts over each image's pixel HVs → (n, D).

        The binary accumulator: ``acc[i, d] = Σ_p (pos_p ⊕ val[x_p])_d``,
        the pre-majority sums :meth:`encode_batch` thresholds.  Bounded
        by the pixel count, so compact integer storage is exact.
        """
        levels = self.quantize(items)
        flat = levels.reshape(levels.shape[0], -1)
        pos = self._key_memory.vectors
        val = self._value_memory.vectors
        # Blocked via the exact {0,1} identity p ⊕ v = p + v − 2·p·v:
        #   Σ_p (pos_p ⊕ val[x_p]) = Σ_p pos_p + hist·val − 2·Σ_p pos_p·val[x_p]
        # — a cached-free column sum, one histogram matmul, and the same
        # level-grouped product kernel the bipolar encoders use, instead
        # of one P×D XOR + reduction per image.
        pos_sum = pos.sum(axis=0, dtype=np.int64)
        hist = level_histogram(flat, self._levels)
        return (
            pos_sum[None, :]
            + hist @ val.astype(np.int64)
            - 2 * grouped_products(pos, val, flat)
        )


class BinaryAssociativeMemory:
    """Per-class bit-count accumulators with Hamming-similarity queries.

    The binary counterpart of
    :class:`~repro.hdc.associative_memory.AssociativeMemory`, exposing
    the same surface the classifier and fuzzer rely on (``add``,
    ``class_hvs``, ``similarities``, ``predict``, ``reference_hv``,
    ``margins``, ``state_dict`` …), so it drops into
    :class:`~repro.hdc.model.HDCClassifier` as-is.
    """

    def __init__(self, n_classes: int, dimension: int) -> None:
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        # ones[c, d] counts 1-bits added to class c at component d.
        self._ones = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._cache: Optional[np.ndarray] = None

    @property
    def n_classes(self) -> int:
        return self._n_classes

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def bipolar(self) -> bool:
        """Interface parity with the bipolar AM (binary = not bipolar)."""
        return False

    @property
    def counts(self) -> np.ndarray:
        return self._counts.copy()

    @property
    def is_trained(self) -> bool:
        return bool((self._counts > 0).all())

    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate binary HVs into their class bit counters."""
        arr, labels_arr = self._check_update(hvs, labels)
        np.add.at(self._ones, labels_arr, arr.astype(np.int64))
        np.add.at(self._counts, labels_arr, 1)
        self._cache = None

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (clamped at zero bit counts)."""
        arr, labels_arr = self._check_update(hvs, labels)
        np.subtract.at(self._ones, labels_arr, arr.astype(np.int64))
        np.maximum(self._ones, 0, out=self._ones)
        self._cache = None

    def _check_update(self, hvs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(hvs)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self._dimension:
            raise DimensionMismatchError(
                f"hvs must be (n, {self._dimension}), got shape {arr.shape}"
            )
        if not np.isin(arr, (0, 1)).all():
            raise ConfigurationError("binary AM requires {0,1} hypervectors")
        labels_arr = check_labels(labels, arr.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        return arr, labels_arr

    @property
    def class_hvs(self) -> np.ndarray:
        """Majority-quantised class hypervectors (ties → 1)."""
        if self._cache is None:
            threshold = np.maximum(self._counts, 1)[:, None] / 2.0
            self._cache = (self._ones >= threshold).astype(np.int8)
        return self._cache

    def reference_hv(self, label: int) -> np.ndarray:
        if not 0 <= label < self._n_classes:
            raise ConfigurationError(f"label {label} out of range")
        return self.class_hvs[label]

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """``1 − normalized Hamming distance`` to each class → (n, C)."""
        self._require_trained()
        arr = np.asarray(queries)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self._dimension:
            raise DimensionMismatchError(
                f"queries must be (n, {self._dimension}), got shape {arr.shape}"
            )
        refs = self.class_hvs
        # Hamming distance via XOR popcount, vectorised: both in {0,1}.
        diff = arr[:, None, :] != refs[None, :, :]
        return 1.0 - diff.mean(axis=2)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        return self.similarities(queries).argmax(axis=1).astype(np.int64)

    def margins(self, queries: np.ndarray) -> np.ndarray:
        sims = self.similarities(queries)
        if sims.shape[1] < 2:
            return np.zeros(sims.shape[0])
        part = np.partition(sims, -2, axis=1)
        return part[:, -1] - part[:, -2]

    def _require_trained(self) -> None:
        if not (self._counts > 0).any():
            raise NotTrainedError("binary associative memory has no trained classes")

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"ones": self._ones.copy(), "counts": self._counts.copy()}

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "BinaryAssociativeMemory":
        ones, counts = check_am_state(state, "ones")
        am = cls(ones.shape[0], ones.shape[1])
        am._ones = ones
        am._counts = counts
        return am

    def copy(self) -> "BinaryAssociativeMemory":
        return BinaryAssociativeMemory.from_state_dict(self.state_dict())

    def __repr__(self) -> str:
        return (
            f"BinaryAssociativeMemory(n_classes={self._n_classes}, "
            f"dimension={self._dimension}, trained={self.is_trained})"
        )


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

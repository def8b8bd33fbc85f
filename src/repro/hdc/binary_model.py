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
  subclass holding that memory, with its own ``pixel-binary-hdc`` file
  format; training, retraining and inference are inherited.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    EncodingError,
    NotTrainedError,
)
from repro.hdc.associative_memory import check_am_shape, check_am_state
from repro.hdc.encoders._blocked import (
    fused_delta_into,
    grouped_products,
    level_histogram,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import (
    ItemMemory,
    check_codebook_kind,
    codebook_kind,
    make_item_memory,
    memory_payload,
)
from repro.hdc.model import HDCClassifier, pixel_encoder_args
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import (
    as_image_batch,
    check_labels,
    check_positive_int,
    open_npz,
)

__all__ = ["BinaryPixelEncoder", "BinaryAssociativeMemory", "BinaryHDCClassifier"]


class BinaryPixelEncoder(Encoder):
    """Position-XOR-value image encoder over dense-binary hypervectors.

    Encoding: pixel HV = ``pos_p XOR val_{q(x_p)}``; image HV =
    bit-wise majority over all pixel HVs (ties resolved to 1 for
    determinism, mirroring the bipolar encoder's zero policy).
    """

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
        if len(shape) != 2:
            raise ConfigurationError(f"shape must be (H, W), got {shape}")
        self._shape = (check_positive_int(shape[0], "H"), check_positive_int(shape[1], "W"))
        self._levels = check_positive_int(levels, "levels")
        self._space = BinarySpace(dimension)
        check_codebook_kind(codebook)
        pos_rng, val_rng = spawn(ensure_rng(rng), 2)
        n_pixels = self._shape[0] * self._shape[1]
        if position_memory is not None:
            self._check_memory(position_memory, n_pixels, "position_memory")
            self._position_memory = position_memory
        else:
            self._position_memory = make_item_memory(
                codebook, n_pixels, self._space, rng=pos_rng
            )
        if value_memory is not None:
            self._check_memory(value_memory, self._levels, "value_memory")
            self._value_memory = value_memory
        else:
            self._value_memory = make_item_memory(
                codebook, self._levels, self._space, rng=val_rng
            )
        self._majority_threshold = n_pixels / 2.0

    def _check_memory(self, memory: ItemMemory, size: int, name: str) -> None:
        if memory.size != size:
            raise ConfigurationError(f"{name} has {memory.size} rows, expected {size}")
        if memory.dimension != self.dimension:
            raise ConfigurationError(
                f"{name} dimension {memory.dimension} != encoder dimension "
                f"{self.dimension}"
            )

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
        """Per-pixel binary position codebook."""
        return self._position_memory

    @property
    def value_memory(self) -> ItemMemory:
        """Per-grey-level binary value codebook."""
        return self._value_memory

    @property
    def codebook(self) -> str:
        """Codebook storage kind (by the position memory's storage)."""
        return codebook_kind(self._position_memory)

    def quantize(self, images: np.ndarray) -> np.ndarray:
        """Map grey values to level indices."""
        arr = as_image_batch(images, shape=self._shape)
        return np.rint(arr * ((self._levels - 1) / 255.0)).astype(np.int64)

    def encode(self, item: np.ndarray) -> np.ndarray:
        arr = np.asarray(item)
        return self.encode_batch(arr[None] if arr.ndim == 2 else arr)[0]

    def encode_batch(self, items: np.ndarray) -> np.ndarray:
        return self.hvs_from_accumulators(self.accumulate_batch(items))

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
        pos = self._position_memory.vectors
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

    def accumulate_delta(
        self,
        level_batch: np.ndarray,
        parent_levels: np.ndarray,
        parent_accumulators: np.ndarray,
        *,
        result_dtype: Optional[type] = None,
    ) -> np.ndarray:
        """Children's ones counts from their parents' — changed pixels only.

        Bit-identical to :meth:`accumulate_batch` on the children (the
        count is a plain sum over pixels, so only changed pixels
        contribute a ``{-1, 0, 1}`` correction); same parameter
        conventions as
        :meth:`repro.hdc.encoders.image.PixelEncoder.accumulate_delta`
        (including the compact *result_dtype* fast path).  This is what
        lets the fuzzing engines run their incremental encode path on
        the dense-binary family too.
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
        # One fused ragged scatter over the whole block (see
        # PixelEncoder.accumulate_delta); correction components are in
        # {-1, 0, 1}.
        return fused_delta_into(
            accs.astype(result_dtype or np.int64, copy=True),
            self._position_memory,
            self._value_memory,
            levels,
            parents,
            binary=True,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self._shape}, levels={self._levels}, "
            f"dimension={self.dimension})"
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
        np.add.at(self._ones, labels_arr, arr.astype(np.int64))
        np.add.at(self._counts, labels_arr, 1)
        self._cache = None

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (clamped at zero bit counts)."""
        arr = np.asarray(hvs)
        if arr.ndim == 1:
            arr = arr[None, :]
        labels_arr = check_labels(labels, arr.shape[0])
        np.subtract.at(self._ones, labels_arr, arr.astype(np.int64))
        np.maximum(self._ones, 0, out=self._ones)
        self._cache = None

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

    Training, retraining, inference, scoring and copies are inherited;
    only the associative memory (bit counters, not signed sums) and the
    ``pixel-binary-hdc`` file format differ.
    """

    def __init__(self, encoder: Encoder, n_classes: int) -> None:
        super().__init__(encoder, n_classes)
        self._am = BinaryAssociativeMemory(self._n_classes, encoder.dimension)

    # -- persistence ---------------------------------------------------
    def save_payload(self) -> dict:
        """The ``.npz`` key/value payload :meth:`save` writes.

        Only :class:`BinaryPixelEncoder` models are serialisable.  The
        file is tagged ``kind="pixel-binary-hdc"`` so loaders can
        dispatch between model families; rematerialized codebooks
        persist as their 64-bit PRF seeds only.
        """
        if not isinstance(self._encoder, BinaryPixelEncoder):
            raise ConfigurationError(
                "save() currently supports BinaryPixelEncoder models only"
            )
        enc = self._encoder
        state = self._am.state_dict()
        return dict(
            kind=np.asarray("pixel-binary-hdc"),
            codebook=np.asarray(enc.codebook),
            shape=np.asarray(enc.shape),
            levels=np.asarray(enc.levels),
            dimension=np.asarray(enc.dimension),
            **memory_payload("position", enc.position_memory),
            **memory_payload("value", enc.value_memory),
            am_ones=state["ones"],
            am_counts=state["counts"],
            n_classes=np.asarray(self._n_classes),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BinaryHDCClassifier":
        """Inverse of :meth:`save`."""
        with open_npz(path) as data:
            if str(data["kind"]) != "pixel-binary-hdc":
                raise ConfigurationError(f"unsupported model kind {data['kind']!r}")
            encoder = BinaryPixelEncoder(
                **pixel_encoder_args(data, BinarySpace(int(data["dimension"])))
            )
            model = cls(encoder, int(data["n_classes"]))
            model._am = BinaryAssociativeMemory.from_state_dict(
                {"ones": data["am_ones"], "counts": data["am_counts"]}
            )
            check_am_shape(model._am, model.n_classes, model.dimension, field="am_ones")
        return model

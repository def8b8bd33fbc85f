"""The packed *bipolar* model family: the paper's model on the fast path.

Bit-packed counterparts of the Sec. III stack
(:class:`~repro.hdc.spaces.BipolarSpace` /
:class:`~repro.hdc.encoders.image.PixelEncoder` /
:class:`~repro.hdc.associative_memory.AssociativeMemory` /
:class:`~repro.hdc.model.HDCClassifier`).  A bipolar component is a
single sign bit (bit 1 ⇔ −1, :func:`~repro.hdc.backends.packed.pack_signs`),
so the paper's model stores 64 components per uint64 word, binds with
XOR, and answers every cosine query as ``D − 2·popcount(xor)`` — the
Schmuck-style hardware formulation, applied to the bipolar family
HDTest actually fuzzes.

As with the packed binary family, packing is pure representation and
the bit-identity is structural:

* :class:`PackedBipolarEncoder` **subclasses**
  :class:`~repro.hdc.encoders.image.PixelEncoder` — codebooks,
  quantisation, and the signed-accumulator algebra (including
  ``accumulate_batch`` and ``accumulate_delta``, both through the tiled
  fused kernel) are the parent's; only ``hvs_from_accumulators``
  differs, packing the Eq. 1 sign threshold;
* :class:`PackedBipolarAssociativeMemory` keeps the dense AM's signed
  integer accumulators (training, retraining, and persistence match
  exactly) and quantises/queries packed — similarities, predictions,
  and margins equal the dense cosine to the last float;
* :class:`PackedBipolarHDCClassifier` **subclasses**
  :class:`~repro.hdc.model.HDCClassifier` — training, inference,
  retraining, copies and :meth:`~repro.hdc.model.HDCClassifier.save`
  are inherited, so the packed family cannot drift from the paper's.

Fuzzing outcomes therefore equal the dense bipolar family's, input for
input (property-tested in ``tests/fuzz/test_packed_fuzzing.py``); the
cross-family conformance suite
(``tests/hdc/backends/test_conformance.py``) pins the full
train/predict/save/load/retrain/copy surface against the dense family.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.associative_memory import AssociativeMemory, check_am_state
from repro.hdc.backends.packed import (
    bipolar_cosine_from_counts,
    bit_sliced_counts,
    check_packed,
    hamming_counts,
    pack_bits,
    pack_signs,
    packed_words,
    unpack_signs,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.model import HDCClassifier, pixel_codebooks
from repro.hdc.spaces import Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_labels, check_positive_int

__all__ = [
    "PackedBipolarSpace",
    "PackedBipolarEncoder",
    "PackedBipolarAssociativeMemory",
    "PackedBipolarHDCClassifier",
]


class PackedBipolarSpace(Space):
    """{-1, +1} hypervectors stored as packed uint64 sign words.

    ``dimension`` stays the *logical* component count ``D``; arrays have
    ``n_words = ceil(D / 64)`` uint64 entries with component ``d``'s
    sign bit (1 ⇔ −1) at bit ``d % 64`` of word ``d // 64``.
    :meth:`random` draws the same bit stream as
    :class:`~repro.hdc.spaces.BipolarSpace` for the same generator,
    then packs — packed and dense codebooks built from one seed agree
    sign for sign.
    """

    alphabet = (-1, 1)

    @property
    def n_words(self) -> int:
        """uint64 words per hypervector (``ceil(dimension / 64)``)."""
        return packed_words(self.dimension)

    def random(self, n: Optional[int] = None, *, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        size = (
            (self.dimension,)
            if n is None
            else (check_positive_int(n, "n"), self.dimension)
        )
        # Same mapping as BipolarSpace: draw b becomes value 2b − 1.
        draws = generator.integers(0, 2, size=size, dtype=np.int8)
        return pack_signs(2 * draws - 1, validate=False)

    def check_member(self, hv: np.ndarray, *, name: str = "hv") -> np.ndarray:
        """Validate packed dtype, word count, and zeroed tail bits."""
        arr = np.asarray(hv)
        if arr.ndim not in (1, 2):
            raise DimensionMismatchError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
        return check_packed(arr, self.dimension, name=name)

    def pack(self, values: np.ndarray) -> np.ndarray:
        """Pack dense {-1, +1} members of the equivalent BipolarSpace."""
        arr = np.asarray(values)
        if arr.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"values has dimension {arr.shape[-1]}, expected {self.dimension}"
            )
        return pack_signs(arr)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack` (int8 {-1, +1} array)."""
        return unpack_signs(words, self.dimension)


class PackedBipolarEncoder(PixelEncoder):
    """Position ⊛ value image encoder emitting packed bipolar sign words.

    Everything semantic — codebooks (same spawn discipline, so equal
    seeds give equal signs), quantisation, the signed pixel-sum
    accumulators of ``accumulate_batch`` (the sparse-background path
    through the tiled fused kernel), and the incremental
    ``accumulate_delta`` — is inherited from
    :class:`~repro.hdc.encoders.image.PixelEncoder` unchanged.  Only
    :meth:`hvs_from_accumulators` differs, and only in representation:
    it applies the parent's Eq. 1 sign threshold (0 → +1) and packs the
    sign bits.
    """

    @classmethod
    def from_dense(cls, encoder) -> "PackedBipolarEncoder":
        """Wrap a trained ``PixelEncoder``'s codebooks (exact, shared)."""
        return cls(**pixel_codebooks(encoder))

    @property
    def n_words(self) -> int:
        """uint64 words per emitted hypervector."""
        return packed_words(self.dimension)

    # -- the packed quantisation step --------------------------------------
    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """The parent's Eq. 1 sign threshold (0 → +1), packed.

        ``acc < 0`` *is* the sign bit under the packing convention, so
        no dense ±1 intermediate is materialised.
        """
        return pack_bits(np.asarray(accumulators) < 0, validate=False)

    def unpack(self, hvs: np.ndarray) -> np.ndarray:
        """Unpack emitted HVs back to int8 {-1, +1} components."""
        return unpack_signs(hvs, self.dimension)


class PackedBipolarAssociativeMemory:
    """Signed class accumulators with packed class HVs and popcount queries.

    Holds the same ``(n_classes, D)`` int64 accumulators as the dense
    :class:`~repro.hdc.associative_memory.AssociativeMemory` (training,
    retraining, and the ``state_dict`` schema match exactly) but
    quantises its class HVs into packed sign words and answers cosine
    queries as ``(D − 2·popcount(xor)) / D``.  The dense memory runs the
    same kernel on int8 ±1 queries after checking and packing them, so
    the query-time edge here is the skipped check and pack
    (``benchmarks/bench_packed_bipolar.py`` measures it); the lasting
    win is 8× smaller query HVs.  All query results are bit-identical to
    the dense memory's.

    Always bipolar: the raw-accumulator ablation (``bipolar=False``)
    queries integer accumulators with full cosine and has no packed
    form.
    """

    def __init__(self, n_classes: int, dimension: int) -> None:
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        self._accumulators = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._cache: Optional[np.ndarray] = None

    @classmethod
    def from_dense(cls, am) -> "PackedBipolarAssociativeMemory":
        """Adopt a dense bipolar AM's accumulators (exact conversion)."""
        return cls.from_state_dict(am.state_dict())

    def to_dense(self) -> AssociativeMemory:
        """The equivalent dense :class:`AssociativeMemory`."""
        return AssociativeMemory.from_state_dict(self.state_dict())

    # -- introspection ---------------------------------------------------
    @property
    def n_classes(self) -> int:
        return self._n_classes

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def n_words(self) -> int:
        """uint64 words per class hypervector."""
        return packed_words(self._dimension)

    @property
    def bipolar(self) -> bool:
        """Always True — only the bipolarised AM packs (see class docs)."""
        return True

    @property
    def counts(self) -> np.ndarray:
        return self._counts.copy()

    @property
    def accumulators(self) -> np.ndarray:
        """Read-only view of the raw ``(n_classes, D)`` accumulators."""
        view = self._accumulators.view()
        view.flags.writeable = False
        return view

    @property
    def is_trained(self) -> bool:
        return bool((self._counts > 0).all())

    # -- updates ---------------------------------------------------------
    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate packed sign HVs into their signed class sums.

        Word-level throughout: with ``c`` the per-component −1 counts of
        a class's update rows (one bit-sliced column sum over the packed
        stack), the signed contribution is exactly ``m − 2·c`` for ``m``
        rows — no dense ±1 intermediate is materialised (the retraining
        counterpart of the dense AM's integer update).
        """
        arr, labels_arr = self._check_update(hvs, labels)
        for label, delta in self._signed_deltas(arr, labels_arr):
            self._accumulators[label] += delta
        np.add.at(self._counts, labels_arr, 1)
        self._cache = None

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (signed, unclamped — as in the dense AM)."""
        arr, labels_arr = self._check_update(hvs, labels)
        for label, delta in self._signed_deltas(arr, labels_arr):
            self._accumulators[label] -= delta
        self._cache = None

    def _signed_deltas(self, arr: np.ndarray, labels_arr: np.ndarray):
        """Per-class signed update sums, computed bit-sliced (exact)."""
        for label in np.unique(labels_arr):
            rows = arr[labels_arr == label]
            counts = bit_sliced_counts(rows, self._dimension)
            yield int(label), rows.shape[0] - 2 * counts

    def _check_update(self, hvs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(hvs)
        if arr.ndim == 1:
            arr = arr[None, :]
        arr = check_packed(arr, self._dimension, name="hvs")
        labels_arr = check_labels(labels, arr.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        return arr, labels_arr

    # -- reference vectors -------------------------------------------------
    @property
    def class_hvs(self) -> np.ndarray:
        """Bipolarised class HVs, packed ``(C, n_words)`` (Eq. 1, 0 → +1)."""
        if self._cache is None:
            # acc < 0 is exactly the sign bit of np.where(acc >= 0, 1, -1).
            self._cache = pack_bits(self._accumulators < 0, validate=False)
        return self._cache

    @property
    def class_hvs_values(self) -> np.ndarray:
        """Dense int8 {-1, +1} view of :attr:`class_hvs` (diagnostics)."""
        return unpack_signs(self.class_hvs, self._dimension)

    def reference_hv(self, label: int) -> np.ndarray:
        if not 0 <= label < self._n_classes:
            raise ConfigurationError(f"label {label} out of range [0, {self._n_classes})")
        return self.class_hvs[label]

    # -- queries -----------------------------------------------------------
    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """Cosine similarity to each class HV → ``(n, C)``, popcount inside.

        One XOR + popcount pass per class over the packed query block;
        the float tail mirrors the dense
        :func:`~repro.hdc.similarity.cosine_matrix` operation for
        operation, so results are bit-identical.
        """
        self._require_trained()
        arr = np.asarray(queries)
        if arr.ndim == 1:
            arr = arr[None, :]
        arr = check_packed(arr, self._dimension, name="queries")
        diff = hamming_counts(arr, self.class_hvs)
        return bipolar_cosine_from_counts(diff, self._dimension)

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
            raise NotTrainedError("packed bipolar associative memory has no trained classes")

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Same schema as the dense AM (signed accumulators, not words)."""
        return {
            "accumulators": self._accumulators.copy(),
            "counts": self._counts.copy(),
            "bipolar": np.asarray(True),
        }

    @classmethod
    def from_state_dict(
        cls, state: dict[str, np.ndarray]
    ) -> "PackedBipolarAssociativeMemory":
        """Inverse of :meth:`state_dict` (rejects ``bipolar=False`` states)."""
        if not bool(np.asarray(state.get("bipolar", True))):
            raise ConfigurationError(
                "the raw-accumulator (bipolar=False) ablation has no packed "
                "form; load it into the dense AssociativeMemory instead"
            )
        acc, counts = check_am_state(state, "accumulators")
        am = cls(acc.shape[0], acc.shape[1])
        am._accumulators = acc
        am._counts = counts
        return am

    def copy(self) -> "PackedBipolarAssociativeMemory":
        return PackedBipolarAssociativeMemory.from_state_dict(self.state_dict())

    def __repr__(self) -> str:
        return (
            f"PackedBipolarAssociativeMemory(n_classes={self._n_classes}, "
            f"dimension={self._dimension}, trained={self.is_trained})"
        )


class PackedBipolarHDCClassifier(HDCClassifier):
    """Classifier facade over the packed encoder + popcount AM pair.

    Subclasses :class:`~repro.hdc.model.HDCClassifier`: training,
    adaptive retraining, inference, scoring, copies and :meth:`save` are
    all inherited — the packed AM exposes the same accumulator interface
    — so the packed family cannot drift from the paper's.  ``save``
    writes the shared ``pixel-hdc`` format (codebooks + signed
    accumulators); :meth:`load` reads it and repacks.
    """

    #: Grey-box marker read by the fuzzing engines: query and reference
    #: HVs are packed bipolar sign words, so the distance-guided fitness
    #: must score with the sign-bit cosine kernel
    #: (:func:`repro.fuzz.fitness.packed_bipolar_dimension`).
    packed_alphabet = "bipolar"

    def __init__(self, encoder: Encoder, n_classes: int) -> None:
        super().__init__(encoder, n_classes)
        self._am = PackedBipolarAssociativeMemory(self._n_classes, encoder.dimension)

    @classmethod
    def from_dense(cls, model) -> "PackedBipolarHDCClassifier":
        """Repackage a trained ``HDCClassifier`` (exact, shares codebooks).

        Requires the paper's configuration: a
        :class:`~repro.hdc.encoders.image.PixelEncoder` (or an encoder
        exposing its codebook surface) in front of a *bipolarised* AM.
        """
        am = model.associative_memory
        if not getattr(am, "bipolar", True):
            raise ConfigurationError(
                "the raw-accumulator (bipolar_am=False) ablation has no "
                "packed form; run it dense"
            )
        packed = cls(PackedBipolarEncoder.from_dense(model.encoder), model.n_classes)
        packed._am = PackedBipolarAssociativeMemory.from_dense(am)
        return packed

    def to_dense(self) -> HDCClassifier:
        """The equivalent dense :class:`~repro.hdc.model.HDCClassifier`."""
        dense = HDCClassifier(
            PixelEncoder(**pixel_codebooks(self._encoder)), self._n_classes
        )
        dense._am = self._am.to_dense()
        return dense

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PackedBipolarHDCClassifier":
        """Load a ``pixel-hdc`` file and repack it (exact)."""
        return cls.from_dense(HDCClassifier.load(path))

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
* :class:`PackedBipolarAssociativeMemory` shares the dense AM's
  counter core (:class:`~repro.hdc.associative_memory.CounterMemory`:
  the same signed integer accumulators, so training, retraining, and
  persistence match exactly) and quantises/queries packed —
  similarities, predictions, and margins equal the dense cosine to the
  last float;
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

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdc.archive import MODEL_KINDS, archive_kind, convert
from repro.hdc.associative_memory import CounterMemory
from repro.hdc.backends.packed import (
    bit_sliced_counts,
    check_packed,
    cosine_matrix_packed_bipolar,
    pack_signs,
    packed_words,
    sign_words,
    unpack_signs,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.spaces import Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

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
    accumulators of ``accumulate_batch`` (the all-background delta
    through the tiled fused kernel), and the incremental
    ``accumulate_delta`` — is inherited from
    :class:`~repro.hdc.encoders.image.PixelEncoder` unchanged.  Only
    :meth:`hvs_from_accumulators` differs, and only in representation:
    it applies the parent's Eq. 1 sign threshold (0 → +1) and packs the
    sign bits.
    """

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
        return sign_words(accumulators)

    def unpack(self, hvs: np.ndarray) -> np.ndarray:
        """Unpack emitted HVs back to int8 {-1, +1} components."""
        return unpack_signs(hvs, self.dimension)


class PackedBipolarAssociativeMemory(CounterMemory):
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

    @classmethod
    def _state_options(cls, state: dict[str, np.ndarray]) -> dict:
        if not bool(np.asarray(state.get("bipolar", True))):
            raise ConfigurationError(
                "the raw-accumulator (bipolar=False) ablation has no packed "
                "form; load it into the dense AssociativeMemory instead"
            )
        return {}

    @property
    def n_words(self) -> int:
        """uint64 words per class hypervector."""
        return packed_words(self._dimension)

    # -- updates (in this class body, where perfbench's packed.update wraps them)
    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate packed sign HVs into their signed class sums.

        Word-level throughout: with ``c`` the per-component −1 counts of
        a class's update rows (one bit-sliced column sum over the packed
        stack), the signed contribution is exactly ``m − 2·c`` for ``m``
        rows — no dense ±1 intermediate is materialised (the retraining
        counterpart of the dense AM's integer update).
        """
        super().add(hvs, labels)

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (signed, unclamped — as in the dense AM)."""
        super().subtract(hvs, labels)

    def _check_hvs(self, hvs: np.ndarray, name: str = "hvs") -> np.ndarray:
        return check_packed(self._as_block(hvs, name), self._dimension, name=name)

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows.shape[0] - 2 * bit_sliced_counts(rows, self._dimension)

    # -- queries -----------------------------------------------------------
    @property
    def class_hvs(self) -> np.ndarray:
        """Bipolarised class HVs, packed ``(C, n_words)`` (Eq. 1, 0 → +1)."""
        if self._cache is None:
            self._cache = sign_words(self._counters)
        return self._cache

    @property
    def class_words(self) -> np.ndarray:
        """The packed :attr:`class_hvs`, named as the dense memory names them."""
        return self.class_hvs

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """Cosine similarity to each class HV → ``(n, C)``, popcount inside.

        One XOR + popcount pass per class over the packed query block;
        the float tail mirrors the dense
        :func:`~repro.hdc.similarity.cosine_matrix` operation for
        operation, so results are bit-identical.
        """
        self._require_trained()
        arr = self._check_hvs(queries, "queries")
        return cosine_matrix_packed_bipolar(arr, self.class_hvs, self._dimension)


class PackedBipolarHDCClassifier(HDCClassifier):
    """Classifier facade over the packed encoder + popcount AM pair.

    Subclasses :class:`~repro.hdc.model.HDCClassifier`: training,
    adaptive retraining, inference, scoring, copies and :meth:`save` are
    all inherited — the packed AM exposes the same accumulator interface
    — so the packed family cannot drift from the paper's.  ``save``
    writes the shared ``pixel-hdc`` format (codebooks + signed
    accumulators); :meth:`load` reads it and repacks.
    """

    def __init__(self, encoder: Encoder, n_classes: int) -> None:
        super().__init__(encoder, n_classes)
        self._am = PackedBipolarAssociativeMemory(self._n_classes, encoder.dimension)

    def _options(self) -> dict:
        return {}

    @classmethod
    def from_dense(cls, model) -> "PackedBipolarHDCClassifier":
        """Repackage a trained ``pixel-hdc`` model (exact, shares codebooks).

        Requires the paper's configuration: a pixel encoder in front of a
        *bipolarised* AM — the raw-accumulator ablation has no packed form.
        """
        return convert(model, cls, PackedBipolarEncoder)

    def to_dense(self) -> HDCClassifier:
        """The equivalent dense :class:`~repro.hdc.model.HDCClassifier`."""
        return convert(self, *MODEL_KINDS[archive_kind(self)])

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PackedBipolarHDCClassifier":
        """Load a ``pixel-hdc`` file and repack it (exact)."""
        return cls.from_dense(HDCClassifier.load(path))

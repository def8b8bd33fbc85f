"""The packed dense-binary model family: space, encoder, memory, model.

Bit-packed counterparts of :mod:`repro.hdc.binary_model`, storing
hypervectors as uint64 words (64 components per word, 8× less memory)
and querying with the XOR + popcount kernels of
:mod:`repro.hdc.backends.packed`.

Packing is pure representation, and the code is structured so the
bit-identity is *structural*, not coincidental:

* :class:`PackedPixelEncoder` **subclasses**
  :class:`~repro.hdc.binary_model.BinaryPixelEncoder` — codebooks,
  quantisation, and the ones-count accumulator algebra
  (``accumulate_batch`` / ``accumulate_delta``) are literally the
  parent's; only the final majority quantisation packs its bits;
* :class:`PackedAssociativeMemory` shares the unpacked memory's
  counter core (:class:`~repro.hdc.associative_memory.CounterMemory`)
  and its majority rule, so class HVs, similarities, predictions, and
  margins all match to the last float;
* :class:`PackedBinaryHDCClassifier` **subclasses**
  :class:`~repro.hdc.binary_model.BinaryHDCClassifier` — training,
  inference, retraining, and saving are inherited; the memory,
  conversion and loading are the only packed-specific parts.

Fuzzing outcomes therefore equal the unpacked family's, input for
input (property-tested in ``tests/fuzz/test_packed_fuzzing.py``).  The
encoder exposes the full incremental surface the fuzzing engines probe
for, so ``HDTest.fuzz_outcomes`` runs its fused encode + predict on packed
``(n_children, D//64)`` blocks with delta encoding from parent
accumulators, exactly as it does for the bipolar pixel encoder.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import DimensionMismatchError
from repro.hdc.archive import MODEL_KINDS, archive_kind, convert
from repro.hdc.associative_memory import CounterMemory
from repro.hdc.backends.packed import (
    bit_sliced_counts,
    check_packed,
    hamming_counts,
    pack_bits,
    packed_words,
    unpack_bits,
)
from repro.hdc.binary_model import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    majority_bits,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.spaces import Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "PackedBinarySpace",
    "PackedPixelEncoder",
    "PackedAssociativeMemory",
    "PackedBinaryHDCClassifier",
]


class PackedBinarySpace(Space):
    """{0, 1} hypervectors stored as packed uint64 words.

    ``dimension`` stays the *logical* component count ``D``; arrays have
    ``n_words = ceil(D / 64)`` uint64 entries, component ``d`` at bit
    ``d % 64`` of word ``d // 64``.  :meth:`random` draws the same bit
    stream as :class:`~repro.hdc.spaces.BinarySpace` for the same
    generator, then packs — so packed and unpacked codebooks built from
    one seed agree bit for bit.
    """

    alphabet = (0, 1)

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
        return pack_bits(generator.integers(0, 2, size=size, dtype=np.int8))

    def check_member(self, hv: np.ndarray, *, name: str = "hv") -> np.ndarray:
        """Validate packed dtype, word count, and zeroed tail bits."""
        arr = np.asarray(hv)
        if arr.ndim not in (1, 2):
            raise DimensionMismatchError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
        return check_packed(arr, self.dimension, name=name)

    def pack(self, bits: np.ndarray) -> np.ndarray:
        """Pack unpacked {0, 1} members of the equivalent BinarySpace."""
        arr = np.asarray(bits)
        if arr.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"bits has dimension {arr.shape[-1]}, expected {self.dimension}"
            )
        return pack_bits(arr)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack` (int8 {0, 1} array)."""
        return unpack_bits(words, self.dimension)


class PackedPixelEncoder(BinaryPixelEncoder):
    """Position-XOR-value image encoder emitting packed binary HVs.

    Everything semantic — codebooks (same spawn discipline, so equal
    seeds give equal bits), quantisation, the ones-count accumulators
    of ``accumulate_batch`` (the training path: the all-background
    delta through the fused kernel, as for every key ⊛ value encoder) and
    the incremental ``accumulate_delta`` — is inherited from
    :class:`~repro.hdc.binary_model.BinaryPixelEncoder` unchanged.
    Only :meth:`hvs_from_accumulators` differs, and only in
    representation: it applies the parent's ties-to-1 majority and
    then packs.
    """

    @property
    def n_words(self) -> int:
        """uint64 words per emitted hypervector."""
        return packed_words(self.dimension)

    # -- the packed quantisation step ------------------------------------
    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """The parent's majority quantisation (ties → 1), packed.

        Validation is skipped on the pack: a threshold comparison can
        only produce {0, 1}, and this runs once per fuzzing iteration
        on every child block.
        """
        bits = super().hvs_from_accumulators(accumulators)
        return pack_bits(bits, validate=False)

    def unpack(self, hvs: np.ndarray) -> np.ndarray:
        """Unpack emitted HVs back to int8 {0, 1} components."""
        return unpack_bits(hvs, self.dimension)


class PackedAssociativeMemory(CounterMemory):
    """Per-class bit counters with packed class HVs and popcount queries.

    Holds the same integer ones counters as
    :class:`~repro.hdc.binary_model.BinaryAssociativeMemory` (so
    training and retraining semantics match exactly) but quantises its
    class HVs into packed words and answers similarity queries with
    XOR + popcount — the ≥3× query-throughput path the packed benchmark
    measures.  All query results are bit-identical to the unpacked
    memory's.
    """

    FIELD = "ones"
    CLAMPED = True
    _bipolar = False

    @property
    def n_words(self) -> int:
        """uint64 words per class hypervector."""
        return packed_words(self._dimension)

    # -- updates (in this class body, where perfbench's packed.update wraps them)
    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate packed HVs into their class bit counters.

        Word-level throughout: each class's update rows are column-summed
        with the bit-sliced carry-save kernel instead of unpacking every
        hypervector to one byte per bit (counts are exact either way).
        """
        super().add(hvs, labels)

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (clamped at zero bit counts)."""
        super().subtract(hvs, labels)

    def _check_hvs(self, hvs: np.ndarray, name: str = "hvs") -> np.ndarray:
        return check_packed(self._as_block(hvs, name), self._dimension, name=name)

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        return bit_sliced_counts(rows, self._dimension)

    # -- queries -----------------------------------------------------------
    @property
    def class_hvs(self) -> np.ndarray:
        """Majority-quantised class HVs, packed ``(C, n_words)`` (ties → 1)."""
        if self._cache is None:
            self._cache = pack_bits(
                majority_bits(self._counters, self._counts), validate=False
            )
        return self._cache

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """``1 − normalized Hamming distance`` to each class → (n, C).

        One XOR + popcount pass per class over the packed query block —
        the packed family's hot path.
        """
        self._require_trained()
        arr = self._check_hvs(queries, "queries")
        diff = hamming_counts(arr, self.class_hvs)
        return 1.0 - diff / float(self._dimension)


class PackedBinaryHDCClassifier(BinaryHDCClassifier):
    """Classifier facade over the packed encoder + popcount AM pair.

    Subclasses :class:`~repro.hdc.binary_model.BinaryHDCClassifier`:
    training, inference, retraining, scoring, copies and :meth:`save`
    are all inherited — the packed AM exposes the same counter
    interface — so the packed family cannot drift from the unpacked
    one.  ``save`` writes the shared ``pixel-binary-hdc`` format
    (counters, not words); :meth:`load` reads it and repacks.
    """

    #: Grey-box marker: query/reference HVs are packed {0, 1} words, so
    #: the cosine-based fitnesses score with the binary popcount cosine
    #: (their uint64 default — see :mod:`repro.fuzz.fitness`).
    packed_alphabet = "binary"

    def __init__(self, encoder: Encoder, n_classes: int) -> None:
        super().__init__(encoder, n_classes)
        self._am = PackedAssociativeMemory(self._n_classes, encoder.dimension)

    @classmethod
    def from_binary(cls, model) -> "PackedBinaryHDCClassifier":
        """Repackage a trained ``BinaryHDCClassifier`` (exact, shares codebooks)."""
        return convert(model, cls, PackedPixelEncoder)

    def to_binary(self) -> BinaryHDCClassifier:
        """The equivalent unpacked :class:`BinaryHDCClassifier`."""
        return convert(self, *MODEL_KINDS[archive_kind(self)])

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PackedBinaryHDCClassifier":
        """Load a ``pixel-binary-hdc`` file and repack it (exact)."""
        return cls.from_binary(BinaryHDCClassifier.load(path))

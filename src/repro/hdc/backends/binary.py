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
* :class:`PackedAssociativeMemory` keeps the same integer bit counters
  as the unpacked memory, so class HVs, similarities, predictions, and
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

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.archive import MODEL_KINDS, archive_kind, convert
from repro.hdc.associative_memory import check_am_state
from repro.hdc.backends.packed import (
    bit_sliced_counts,
    check_packed,
    gathered_xor_counts,
    hamming_counts,
    pack_bits,
    packed_words,
    unpack_bits,
)
from repro.hdc.binary_model import (
    BinaryAssociativeMemory,
    BinaryHDCClassifier,
    BinaryPixelEncoder,
)
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import RematerializedItemMemory
from repro.hdc.spaces import Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_labels, check_positive_int

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
    seeds give equal bits), quantisation, the ones-count accumulator
    algebra, and the incremental ``accumulate_delta`` — is inherited
    from :class:`~repro.hdc.binary_model.BinaryPixelEncoder` unchanged.
    Two methods differ, both representation-only:
    :meth:`accumulate_batch` computes the very same ones counts on
    *packed codebooks* — XOR whole words, then column-sum with the
    word-level :func:`~repro.hdc.backends.packed.bit_sliced_counts`
    bundling kernel instead of gathering unpacked rows per pixel (the
    packed *training* path) — and :meth:`hvs_from_accumulators` applies
    the parent's ties-to-1 majority and then packs.
    """

    @property
    def n_words(self) -> int:
        """uint64 words per emitted hypervector."""
        return packed_words(self.dimension)

    # -- the packed training path ------------------------------------------
    def _packed_codebooks(self) -> tuple:
        """Word sources for both codebooks (packed once and cached, or
        the rematerialized memory itself).

        A :class:`~repro.hdc.item_memory.RematerializedItemMemory` in a
        binary space already *is* a packed word source — its PRF words
        are the packed bits of its dense rows by construction — so it is
        returned as-is and the gather kernels generate rows on demand
        (``take_words``) instead of reading a cached array.
        """
        cache = getattr(self, "_codebook_words", None)
        if cache is None:
            cache = tuple(
                memory
                if isinstance(memory, RematerializedItemMemory)
                else pack_bits(memory.vectors, validate=False)
                for memory in (self._key_memory, self._value_memory)
            )
            self._codebook_words = cache
        return cache

    def accumulate_batch(self, items: np.ndarray) -> np.ndarray:
        """Per-component ones counts ``(n, D)`` via word-level bundling.

        Elementwise equal to the parent's per-pixel unpacked gather
        (the counts are exact integers either way); only the arithmetic
        is packed — one whole-word XOR per pixel row and a carry-save
        bit-sliced column sum, which is what accelerates ``fit``.
        """
        levels = self.quantize(items)
        flat = levels.reshape(levels.shape[0], -1)
        pos_w, val_w = self._packed_codebooks()
        return gathered_xor_counts(pos_w, val_w, flat, self.dimension)

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


class PackedAssociativeMemory:
    """Per-class bit counters with packed class HVs and popcount queries.

    Holds the same integer ones counters as
    :class:`~repro.hdc.binary_model.BinaryAssociativeMemory` (so
    training and retraining semantics match exactly) but quantises its
    class HVs into packed words and answers similarity queries with
    XOR + popcount — the ≥3× query-throughput path the packed benchmark
    measures.  All query results are bit-identical to the unpacked
    memory's.
    """

    def __init__(self, n_classes: int, dimension: int) -> None:
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        # ones[c, d] counts 1-bits added to class c at component d.
        self._ones = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._cache: Optional[np.ndarray] = None

    @classmethod
    def from_binary(cls, am) -> "PackedAssociativeMemory":
        """Adopt an unpacked binary AM's counters (exact conversion)."""
        return cls.from_state_dict(am.state_dict())

    def to_binary(self) -> BinaryAssociativeMemory:
        """The equivalent unpacked :class:`BinaryAssociativeMemory`."""
        return BinaryAssociativeMemory.from_state_dict(self.state_dict())

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
        """Interface parity with the bipolar AM (binary = not bipolar)."""
        return False

    @property
    def counts(self) -> np.ndarray:
        return self._counts.copy()

    @property
    def is_trained(self) -> bool:
        return bool((self._counts > 0).all())

    # -- updates ---------------------------------------------------------
    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate packed HVs into their class bit counters.

        Word-level throughout: each class's update rows are column-summed
        with the bit-sliced carry-save kernel instead of unpacking every
        hypervector to one byte per bit (the retraining counterpart of
        the packed training path; counts are exact either way).
        """
        arr, labels_arr = self._check_update(hvs, labels)
        for label, rows in self._rows_by_label(arr, labels_arr):
            self._ones[label] += bit_sliced_counts(rows, self._dimension)
        np.add.at(self._counts, labels_arr, 1)
        self._cache = None

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Perceptron-style removal (clamped at zero bit counts)."""
        arr, labels_arr = self._check_update(hvs, labels)
        for label, rows in self._rows_by_label(arr, labels_arr):
            self._ones[label] -= bit_sliced_counts(rows, self._dimension)
        np.maximum(self._ones, 0, out=self._ones)
        self._cache = None

    @staticmethod
    def _rows_by_label(arr: np.ndarray, labels_arr: np.ndarray):
        """Group packed update rows per class (duplicates sum exactly)."""
        for label in np.unique(labels_arr):
            yield int(label), arr[labels_arr == label]

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
        """Majority-quantised class HVs, packed ``(C, n_words)`` (ties → 1)."""
        if self._cache is None:
            threshold = np.maximum(self._counts, 1)[:, None] / 2.0
            self._cache = pack_bits(
                (self._ones >= threshold).astype(np.int8), validate=False
            )
        return self._cache

    @property
    def class_hvs_bits(self) -> np.ndarray:
        """Unpacked int8 {0, 1} view of :attr:`class_hvs` (diagnostics)."""
        return unpack_bits(self.class_hvs, self._dimension)

    def reference_hv(self, label: int) -> np.ndarray:
        if not 0 <= label < self._n_classes:
            raise ConfigurationError(f"label {label} out of range")
        return self.class_hvs[label]

    # -- queries -----------------------------------------------------------
    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """``1 − normalized Hamming distance`` to each class → (n, C).

        One XOR + popcount pass per class over the packed query block —
        the packed family's hot path.
        """
        self._require_trained()
        arr = np.asarray(queries)
        if arr.ndim == 1:
            arr = arr[None, :]
        arr = check_packed(arr, self._dimension, name="queries")
        diff = hamming_counts(arr, self.class_hvs)
        return 1.0 - diff / float(self._dimension)

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
            raise NotTrainedError("packed associative memory has no trained classes")

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Same schema as the unpacked binary AM (counters, not words)."""
        return {"ones": self._ones.copy(), "counts": self._counts.copy()}

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "PackedAssociativeMemory":
        """Inverse of :meth:`state_dict`."""
        ones, counts = check_am_state(state, "ones")
        am = cls(ones.shape[0], ones.shape[1])
        am._ones = ones
        am._counts = counts
        return am

    def copy(self) -> "PackedAssociativeMemory":
        return PackedAssociativeMemory.from_state_dict(self.state_dict())

    def __repr__(self) -> str:
        return (
            f"PackedAssociativeMemory(n_classes={self._n_classes}, "
            f"dimension={self._dimension}, trained={self.is_trained})"
        )


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

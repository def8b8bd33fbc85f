"""The packed dense-binary model family: space, encoder, memory, model.

Bit-packed counterparts of :mod:`repro.hdc.binary_model`, storing
hypervectors as uint64 words (64 components per word, 8× less memory)
and querying with XOR + popcount kernels routed through a
:class:`~repro.hdc.backends.dispatch.KernelBackend`.

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
  inference, retraining, and persistence are inherited; construction
  and conversion are the only packed-specific parts.

Fuzzing outcomes therefore equal the unpacked family's, input for
input (property-tested in ``tests/fuzz/test_packed_fuzzing.py``).  The
encoder exposes the full incremental surface the fuzzing engines probe
for, so ``BatchedHDTest`` runs its fused encode + predict on packed
``(n_children, D//64)`` blocks with delta encoding from parent
accumulators, exactly as it does for the bipolar pixel encoder.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.associative_memory import check_am_state
from repro.hdc.backends.dispatch import KernelBackend, get_backend
from repro.hdc.backends.packed import (
    bit_sliced_counts,
    check_packed,
    gathered_xor_counts,
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
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace, Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_labels, check_positive_int

__all__ = [
    "PackedBinarySpace",
    "PackedPixelEncoder",
    "PackedAssociativeMemory",
    "PackedBinaryHDCClassifier",
]

BackendLike = Union[None, str, KernelBackend]


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

    def __init__(
        self,
        shape: tuple[int, int] = (28, 28),
        *,
        levels: int = 256,
        dimension: int = DEFAULT_DIMENSION,
        rng: RngLike = None,
        backend: BackendLike = None,
        position_memory=None,
        value_memory=None,
        codebook: str = "materialized",
    ) -> None:
        super().__init__(
            shape,
            levels=levels,
            dimension=dimension,
            rng=rng,
            position_memory=position_memory,
            value_memory=value_memory,
            codebook=codebook,
        )
        self._packed_space = PackedBinarySpace(dimension)
        self._backend = get_backend(backend)

    @classmethod
    def from_binary(
        cls, encoder, *, backend: BackendLike = None
    ) -> "PackedPixelEncoder":
        """Wrap a trained ``BinaryPixelEncoder``'s codebooks (exact)."""
        for attr in ("shape", "position_memory", "value_memory", "dimension"):
            if not hasattr(encoder, attr):
                raise ConfigurationError(
                    f"{type(encoder).__name__} lacks {attr!r}; expected a "
                    "BinaryPixelEncoder-compatible encoder"
                )
        packed = cls.__new__(cls)
        packed._shape = tuple(encoder.shape)
        packed._levels = encoder.value_memory.size
        packed._space = BinarySpace(encoder.dimension)
        packed._position_memory = encoder.position_memory
        packed._value_memory = encoder.value_memory
        packed._majority_threshold = (packed._shape[0] * packed._shape[1]) / 2.0
        packed._packed_space = PackedBinarySpace(encoder.dimension)
        packed._backend = get_backend(backend)
        return packed

    # -- introspection ---------------------------------------------------
    @property
    def n_words(self) -> int:
        """uint64 words per emitted hypervector."""
        return self._packed_space.n_words

    @property
    def backend(self) -> KernelBackend:
        """Kernel backend packed outputs are produced with."""
        return self._backend

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
                for memory in (self._position_memory, self._value_memory)
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
        return self._backend.pack(bits, validate=False)

    def unpack(self, hvs: np.ndarray) -> np.ndarray:
        """Unpack emitted HVs back to int8 {0, 1} components."""
        return self._packed_space.unpack(hvs)

    def __repr__(self) -> str:
        return (
            f"PackedPixelEncoder(shape={self.shape}, levels={self.levels}, "
            f"dimension={self.dimension}, backend={self._backend.name!r})"
        )


class PackedAssociativeMemory:
    """Per-class bit counters with packed class HVs and popcount queries.

    Holds the same integer ones counters as
    :class:`~repro.hdc.binary_model.BinaryAssociativeMemory` (so
    training and retraining semantics match exactly) but quantises its
    class HVs into packed words and answers similarity queries with the
    kernel backend's XOR + popcount — the ≥3× query-throughput path the
    packed benchmark measures.  All query results are bit-identical to
    the unpacked memory's.
    """

    def __init__(
        self, n_classes: int, dimension: int, *, backend: BackendLike = None
    ) -> None:
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        self._backend = get_backend(backend)
        # ones[c, d] counts 1-bits added to class c at component d.
        self._ones = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._cache: Optional[np.ndarray] = None

    @classmethod
    def from_binary(
        cls, am, *, backend: BackendLike = None
    ) -> "PackedAssociativeMemory":
        """Adopt an unpacked binary AM's counters (exact conversion)."""
        return cls.from_state_dict(am.state_dict(), backend=backend)

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
    def backend(self) -> KernelBackend:
        """Kernel backend answering similarity queries."""
        return self._backend

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
            self._cache = self._backend.pack(
                (self._ones >= threshold).astype(np.int8), validate=False
            )
        return self._cache

    @property
    def class_hvs_bits(self) -> np.ndarray:
        """Unpacked int8 {0, 1} view of :attr:`class_hvs` (diagnostics)."""
        return self._backend.unpack(self.class_hvs, self._dimension)

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
        diff = self._backend.hamming_counts(arr, self.class_hvs)
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
    def from_state_dict(
        cls, state: dict[str, np.ndarray], *, backend: BackendLike = None
    ) -> "PackedAssociativeMemory":
        """Inverse of :meth:`state_dict`."""
        ones, counts = check_am_state(state, "ones")
        am = cls(ones.shape[0], ones.shape[1], backend=backend)
        am._ones = ones
        am._counts = counts
        return am

    def copy(self) -> "PackedAssociativeMemory":
        return PackedAssociativeMemory.from_state_dict(
            self.state_dict(), backend=self._backend
        )

    def __repr__(self) -> str:
        return (
            f"PackedAssociativeMemory(n_classes={self._n_classes}, "
            f"dimension={self._dimension}, backend={self._backend.name!r}, "
            f"trained={self.is_trained})"
        )


class PackedBinaryHDCClassifier(BinaryHDCClassifier):
    """Classifier facade over the packed encoder + popcount AM pair.

    Subclasses :class:`~repro.hdc.binary_model.BinaryHDCClassifier`:
    training, inference, retraining, scoring, and :meth:`save` are all
    inherited — the packed AM exposes the same counter interface — so
    the packed family cannot drift from the unpacked one.  ``save``
    writes the shared ``pixel-binary-hdc`` format (counters, not
    words); ``load`` therefore returns an *unpacked* classifier —
    repackage with :meth:`from_binary`.
    """

    #: Grey-box marker: query/reference HVs are packed {0, 1} words, so
    #: the cosine-based fitnesses score with the binary popcount cosine
    #: (their uint64 default — see :mod:`repro.fuzz.fitness`).
    packed_alphabet = "binary"

    def __init__(
        self, encoder: Encoder, n_classes: int, *, backend: BackendLike = None
    ) -> None:
        super().__init__(encoder, n_classes)
        self._am = PackedAssociativeMemory(
            n_classes, encoder.dimension, backend=backend
        )

    @classmethod
    def from_binary(
        cls, model, *, backend: BackendLike = None
    ) -> "PackedBinaryHDCClassifier":
        """Repackage a trained ``BinaryHDCClassifier`` (exact, shares codebooks)."""
        packed = cls.__new__(cls)
        packed._encoder = PackedPixelEncoder.from_binary(model.encoder, backend=backend)
        packed._n_classes = model.n_classes
        packed._am = PackedAssociativeMemory.from_binary(
            model.associative_memory, backend=backend
        )
        return packed

    def to_binary(self) -> BinaryHDCClassifier:
        """The equivalent unpacked :class:`BinaryHDCClassifier`."""
        binary = BinaryHDCClassifier.__new__(BinaryHDCClassifier)
        encoder = BinaryPixelEncoder.__new__(BinaryPixelEncoder)
        encoder._shape = self._encoder.shape  # noqa: SLF001 - controlled reconstruction
        encoder._levels = self._encoder.levels
        encoder._space = BinarySpace(self._encoder.dimension)
        encoder._position_memory = self._encoder.position_memory
        encoder._value_memory = self._encoder.value_memory
        encoder._majority_threshold = (
            self._encoder.shape[0] * self._encoder.shape[1]
        ) / 2.0
        binary._encoder = encoder
        binary._n_classes = self._n_classes
        binary._am = self._am.to_binary()
        return binary

    def with_backend(self, backend: BackendLike) -> "PackedBinaryHDCClassifier":
        """Clone bound to different kernels (shared codebooks and counters)."""
        kernels = get_backend(backend)
        clone = PackedBinaryHDCClassifier.__new__(PackedBinaryHDCClassifier)
        if isinstance(self._encoder, BinaryPixelEncoder):
            clone._encoder = PackedPixelEncoder.from_binary(
                self._encoder, backend=kernels
            )
        else:
            clone._encoder = self._encoder
        clone._n_classes = self._n_classes
        clone._am = PackedAssociativeMemory.from_state_dict(
            self._am.state_dict(), backend=kernels
        )
        return clone

    def copy(self) -> "PackedBinaryHDCClassifier":
        """Clone sharing the encoder but with an independent AM."""
        clone = PackedBinaryHDCClassifier.__new__(PackedBinaryHDCClassifier)
        clone._encoder = self._encoder
        clone._n_classes = self._n_classes
        clone._am = self._am.copy()
        return clone

    @property
    def associative_memory(self) -> PackedAssociativeMemory:
        return self._am

    @property
    def backend(self) -> KernelBackend:
        """Kernel backend of the associative memory."""
        return self._am.backend

    def __repr__(self) -> str:
        return (
            f"PackedBinaryHDCClassifier(encoder={self._encoder!r}, "
            f"n_classes={self._n_classes}, backend={self.backend.name!r}, "
            f"trained={self.is_trained})"
        )

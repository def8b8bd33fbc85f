"""Item memories: codebooks mapping discrete symbols to hypervectors.

The paper's encoder uses two of these (Sec. III-A step 2):

* a *position memory* with one random HV per pixel index (784 for
  MNIST), and
* a *value memory* with one random HV per grey level.

Both are instances of :class:`ItemMemory` — i.i.d. random codebooks.
:class:`LevelMemory` additionally offers the *linear level* construction
common in the wider HDC literature (consecutive levels differ in a
small, monotone set of flipped components, so similarity decays
linearly with level distance).  The paper generates its value memory
randomly, so `ItemMemory` is the default everywhere; `LevelMemory`
exists for the ablation bench that shows how the choice changes the
fuzzer's behaviour.

:class:`RematerializedItemMemory` is the near-zero-memory variant
(Schmuck et al.'s *rematerialization*): rows are regenerated on demand
from a counter-based PRF (:func:`repro.hdc.backends.packed.prf_words`)
instead of stored, so the retained state is one 64-bit seed however
large ``size × D`` grows.  It is a drop-in replacement wherever an
:class:`ItemMemory` is gathered — :meth:`ItemMemory.take` is the shared
hot-path gather both implement — and :meth:`materialize` recovers an
ordinary stored codebook with bit-identical rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdc.spaces import BinarySpace, BipolarSpace, Space
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "ItemMemory",
    "LevelMemory",
    "RematerializedItemMemory",
    "CODEBOOK_KINDS",
    "check_codebook_kind",
    "codebook_kind",
    "codebook_seed",
    "make_item_memory",
    "memory_payload",
    "memory_from_payload",
]

#: Encoder ``codebook=`` vocabulary (also the CLI ``--codebook`` choices).
CODEBOOK_KINDS = ("materialized", "rematerialized")


def check_codebook_kind(codebook: str) -> str:
    """Validate a ``codebook=`` argument against :data:`CODEBOOK_KINDS`."""
    if codebook not in CODEBOOK_KINDS:
        raise ConfigurationError(
            f"codebook must be one of {CODEBOOK_KINDS}, got {codebook!r}"
        )
    return codebook


def codebook_kind(memory: "ItemMemory") -> str:
    """Which :data:`CODEBOOK_KINDS` entry *memory* is (by storage)."""
    return (
        "rematerialized"
        if isinstance(memory, RematerializedItemMemory)
        else "materialized"
    )


def codebook_seed(rng: RngLike) -> int:
    """Draw a 64-bit PRF seed for a rematerialized codebook from *rng*.

    One draw from the generator, so seed derivation composes with the
    encoders' existing ``spawn`` discipline (position and value memories
    get independent seeds from independent child generators).
    """
    return int(ensure_rng(rng).integers(0, 2**64, dtype=np.uint64))


def make_item_memory(
    codebook: str, size: int, space: Optional[Space], *, rng: RngLike
) -> "ItemMemory":
    """Draw a fresh i.i.d. codebook of the requested storage *codebook* kind."""
    check_codebook_kind(codebook)
    if codebook == "rematerialized":
        return RematerializedItemMemory(size, space, seed=codebook_seed(rng))
    return ItemMemory(size, space, rng=rng)


def memory_payload(name: str, memory: "ItemMemory") -> dict:
    """``.npz`` key/value pairs persisting *memory* under prefix *name*.

    Materialised codebooks store their ``(n, D)`` rows under
    ``<name>_vectors``; rematerialized codebooks store only the 64-bit
    PRF seed under ``<name>_seed`` — the whole point of the scheme is
    that the seed *is* the codebook.  :func:`memory_from_payload`
    branches on which key is present, so files saved before the seed
    schema existed keep loading unchanged.
    """
    if isinstance(memory, RematerializedItemMemory):
        return {f"{name}_seed": np.asarray(memory.seed, dtype=np.uint64)}
    return {f"{name}_vectors": memory.vectors}


def memory_from_payload(
    name: str, data, size: int, space: Space, memory_type: Optional[type] = None
) -> "ItemMemory":
    """Inverse of :func:`memory_payload` (*data* is an open ``.npz``).

    Stored rows are wrapped in *memory_type* (default
    :class:`ItemMemory`); rows whose width is not *space*'s dimension
    raise :class:`~repro.errors.ConfigurationError` naming the field.
    """
    if f"{name}_seed" in data:
        return RematerializedItemMemory(size, space, seed=int(data[f"{name}_seed"]))
    field = f"{name}_vectors"
    try:
        return (memory_type or ItemMemory).from_vectors(data[field], space)
    except DimensionMismatchError as exc:
        raise ConfigurationError(f"field {field!r}: {exc}") from exc


class ItemMemory:
    """A fixed codebook of i.i.d. random hypervectors.

    Parameters
    ----------
    size:
        Number of items (rows).
    space:
        Hypervector space to draw from; defaults to a
        :class:`~repro.hdc.spaces.BipolarSpace` of the paper's dimension.
    rng:
        Seed or generator for reproducible codebooks.

    Notes
    -----
    Lookups are plain row indexing, and :meth:`lookup` accepts arrays of
    indices, returning a gathered ``(..., D)`` array — this is what makes
    whole-image encoding a single vectorised gather.
    """

    def __init__(
        self,
        size: int,
        space: Optional[Space] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        self._space = space if space is not None else BipolarSpace()
        self._size = check_positive_int(size, "size")
        self._vectors = self._space.random(self._size, rng=ensure_rng(rng))

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, space: Optional[Space] = None) -> "ItemMemory":
        """Wrap an existing ``(n, D)`` codebook (e.g. loaded from disk)."""
        arr = np.asarray(vectors)
        if arr.ndim != 2:
            raise DimensionMismatchError(f"vectors must be (n, D), got shape {arr.shape}")
        if space is None:
            space = BipolarSpace(arr.shape[1])
        space.check_member(arr, name="vectors")
        mem = cls.__new__(cls)
        mem._space = space
        mem._size = arr.shape[0]
        mem._vectors = arr.astype(np.int8, copy=True)
        return mem

    # -- introspection ---------------------------------------------------
    @property
    def size(self) -> int:
        """Number of stored items."""
        return self._size

    @property
    def dimension(self) -> int:
        """Hypervector dimension."""
        return self._space.dimension

    @property
    def space(self) -> Space:
        """The space the codebook was drawn from."""
        return self._space

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the full ``(size, D)`` codebook."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    # -- lookup ------------------------------------------------------------
    def lookup(self, index) -> np.ndarray:
        """Return the HV(s) for *index* (an int or an integer array).

        Integer-array indices gather: ``lookup(image_pixels)`` with a
        ``(784,)`` index array returns a ``(784, D)`` stack.
        """
        idx = np.asarray(index)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ConfigurationError(f"index must be integer(s), got dtype {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise ConfigurationError(
                f"index out of range [0, {self._size}): [{idx.min()}, {idx.max()}]"
            )
        return self._vectors[idx]

    def take(self, index) -> np.ndarray:
        """Unvalidated row gather — the encoders' hot-path lookup.

        Same semantics as :meth:`lookup` minus the dtype/bounds checks
        (callers' indices are valid by construction: quantised levels,
        pixel positions).  Subclasses that do not store their rows
        (:class:`RematerializedItemMemory`) generate exactly the
        requested ones here.
        """
        return self._vectors[index]

    def __getitem__(self, index) -> np.ndarray:
        return self.lookup(index)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self._size}, dimension={self.dimension})"


class LevelMemory(ItemMemory):
    """Codebook whose rows interpolate from a random base hypervector.

    Level ``0`` is a random bipolar HV; level ``k`` flips the first
    ``k/(size-1) · D/2`` components of the base (in a fixed random
    order).  Cosine similarity therefore decays linearly,
    ``cos(level_0, level_k) = 1 − k/(size−1)``, reaching exactly
    (pseudo-)orthogonality between the two extreme levels — the ordinal
    "level hypervector" encoding of the HDC literature, offered as an
    ablation against the paper's fully-random value memory.
    """

    def __init__(
        self,
        size: int,
        space: Optional[Space] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        space = space if space is not None else BipolarSpace()
        if not isinstance(space, BipolarSpace):
            raise ConfigurationError("LevelMemory currently supports bipolar spaces only")
        size = check_positive_int(size, "size")
        generator = ensure_rng(rng)
        low = space.random(rng=generator)
        vectors = np.empty((size, space.dimension), dtype=np.int8)
        vectors[0] = low
        if size > 1:
            # Flip components in a fixed random order; the top level
            # flips exactly half the dimensions so the two extremes are
            # orthogonal and cos(level_0, level_k) = 1 - k/(size-1).
            flip_order = generator.permutation(space.dimension)
            for level in range(1, size):
                n_flips = round(level / (size - 1) * space.dimension / 2)
                row = low.copy()
                flips = flip_order[:n_flips]
                row[flips] = -row[flips]
                vectors[level] = row
        self._space = space
        self._size = size
        self._vectors = vectors


class RematerializedItemMemory(ItemMemory):
    """A codebook whose rows are regenerated from a seed, never stored.

    Row *i*, word *w* is a pure function of ``(seed, i, w)`` — the
    SplitMix64 counter PRF of
    :func:`repro.hdc.backends.packed.prf_words` — so gathers are
    deterministic and order-independent, and the retained state is one
    64-bit integer regardless of ``size × D``.  Dense rows come from
    :meth:`take` (bipolar spaces unpack the words as sign bits, binary
    spaces as plain bits); packed consumers take the uint64 words
    directly via :meth:`take_words`, which makes the dense and packed
    views of a row the same bits by construction (``pack ∘ unpack`` is
    the identity on tail-masked words).

    Only i.i.d. random codebooks rematerialize — a
    :class:`LevelMemory`'s rows are sequentially constructed, so the
    linear-level ablation keeps its stored form.

    Parameters
    ----------
    size:
        Number of items (rows).
    space:
        :class:`~repro.hdc.spaces.BipolarSpace` (default) or
        :class:`~repro.hdc.spaces.BinarySpace`.
    seed:
        64-bit PRF seed; see :func:`codebook_seed` to derive one from
        the encoders' rng discipline.
    """

    def __init__(
        self,
        size: int,
        space: Optional[Space] = None,
        *,
        seed: int,
    ) -> None:
        space = space if space is not None else BipolarSpace()
        if isinstance(space, BipolarSpace):
            self._signed = True
        elif isinstance(space, BinarySpace):
            self._signed = False
        else:
            raise ConfigurationError(
                f"rematerialized codebooks support bipolar and binary spaces, "
                f"got {type(space).__name__}"
            )
        self._space = space
        self._size = check_positive_int(size, "size")
        self._seed = int(seed) % (2**64)

    @property
    def seed(self) -> int:
        """The 64-bit PRF seed — the codebook's entire retained state."""
        return self._seed

    # -- generation --------------------------------------------------------
    def take_words(self, rows) -> np.ndarray:
        """Packed uint64 words of *rows* → ``rows.shape + (W,)``."""
        from repro.hdc.backends.packed import prf_words

        return prf_words(self._seed, rows, self.dimension)

    def take(self, index) -> np.ndarray:
        """Generate the dense int8 rows for *index* on demand."""
        from repro.hdc.backends.packed import unpack_bits, unpack_signs

        words = self.take_words(index)
        if self._signed:
            return unpack_signs(words, self.dimension)
        return unpack_bits(words, self.dimension)

    @property
    def vectors(self) -> np.ndarray:
        """The full codebook, generated transiently (not cached).

        Exists so batch-level consumers that hoist the whole codebook
        before a loop (the dense encode paths, ``Σ_p pos_p`` caches)
        stay drop-in; per-row consumers should gather with :meth:`take`
        or :meth:`take_words` instead.
        """
        return self.take(np.arange(self._size))

    def lookup(self, index) -> np.ndarray:
        idx = np.asarray(index)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ConfigurationError(f"index must be integer(s), got dtype {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise ConfigurationError(
                f"index out of range [0, {self._size}): [{idx.min()}, {idx.max()}]"
            )
        return self.take(idx)

    def materialize(self) -> ItemMemory:
        """An ordinary stored :class:`ItemMemory` with identical rows."""
        return ItemMemory.from_vectors(self.vectors, self._space)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self._size}, "
            f"dimension={self.dimension}, seed={self._seed})"
        )

"""Associative memory (AM): one class hypervector per label (Sec. III-B).

Training sums every training image's HV into its class accumulator and
re-bipolarises (Eq. 1).  Querying computes cosine similarity between a
query HV and every (bipolarised) class HV and predicts the arg-max
(Sec. III-C).  A bipolar memory keeps its class HVs' packed sign words
(:attr:`AssociativeMemory.class_words`) next to the int8 ones and
answers ±1 queries — and the packed sign words the fuzzing engines
build straight from encoder accumulators — by popcount
(``D − 2·popcount(xor)``, bit-identical to the float cosine): packing
as query-side storage, in the spirit of Schmuck et al.'s combinational
associative memory.

The AM keeps its integer *accumulators* alongside the bipolar class HVs
so it supports the paper's defense case study (Sec. V-D): retraining
"updates the reference HVs" by adding further HVs into the accumulators
(optionally subtracting from a wrongly-predicted class), then
re-bipolarising.

:class:`CounterMemory` is the core every associative memory shares —
:class:`AssociativeMemory` here, the binary
:class:`~repro.hdc.binary_model.BinaryAssociativeMemory` and the two
packed memories of :mod:`repro.hdc.backends`: the ``(n_classes, D)``
int64 counters and per-class counts, the update-block and label checks,
the per-class update loop, queries derived from ``similarities``, and
persistence.  Each memory adds only its own algebra: how an update row
is checked and summed, ``class_hvs`` and ``similarities``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.similarity import cosine_matrix
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["AssociativeMemory", "CounterMemory", "check_am_shape"]


def check_am_shape(am, n_classes: int, dimension: int, *, field: str) -> None:
    """Require a loaded memory to be ``(n_classes, dimension)``.

    Model loaders call this after ``from_state_dict``: a checkpoint whose
    *field* matrix disagrees with its stored ``n_classes`` or its
    encoder's dimension raises :class:`~repro.errors.ConfigurationError`
    naming *field*.
    """
    if (am.n_classes, am.dimension) != (n_classes, dimension):
        raise ConfigurationError(
            f"{field} has shape {(am.n_classes, am.dimension)}, the model needs "
            f"(n_classes, dimension) = {(n_classes, dimension)}"
        )


class CounterMemory:
    """Per-class int64 counters of ``D`` components, summed update by update.

    The shared core of the four associative memories.  A subclass names
    its counter matrix (:attr:`FIELD`), defines ``class_hvs`` and
    ``similarities``, and overrides :meth:`_check_hvs` / :meth:`_sum_rows`
    when its update rows are not dense ``(n, D)`` integer rows.  Adding
    rows sums each class's rows once into its counter row; subtracting
    does the reverse and leaves ``counts`` alone (they track additions
    for introspection, not a norm).
    """

    #: ``state_dict`` name of the counter matrix: ``"accumulators"``
    #: (signed sums, stored with the ``bipolar`` flag) or ``"ones"``
    #: (per-component bit counts).
    FIELD = "accumulators"
    #: Whether :meth:`subtract` clamps counters at zero (bit counts).
    CLAMPED = False
    #: What :attr:`bipolar` reports (the dense memory sets it per instance).
    _bipolar = True

    def __init__(self, n_classes: int, dimension: int) -> None:
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        self._counters = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._forget()

    # -- introspection ---------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of classes (rows)."""
        return self._n_classes

    @property
    def dimension(self) -> int:
        """Hypervector dimensionality."""
        return self._dimension

    @property
    def bipolar(self) -> bool:
        """Whether queries run against bipolarised class HVs."""
        return self._bipolar

    @property
    def counts(self) -> np.ndarray:
        """Number of HVs accumulated into each class (read-only copy)."""
        return self._counts.copy()

    @property
    def is_trained(self) -> bool:
        """True once at least one HV has been added to every class."""
        return bool((self._counts > 0).all())

    # -- updates ---------------------------------------------------------
    def add(self, hvs: np.ndarray, labels) -> None:
        """Accumulate hypervectors *hvs* into the classes in *labels*."""
        arr, labels_arr = self._check_update(hvs, labels)
        for label in np.unique(labels_arr):
            self._counters[label] += self._sum_rows(arr[labels_arr == label])
        np.add.at(self._counts, labels_arr, 1)
        self._forget()

    def subtract(self, hvs: np.ndarray, labels) -> None:
        """Subtract hypervectors from classes (perceptron-style update).

        Used by adaptive retraining: a misclassified sample's HV is
        added to its true class and subtracted from the wrong one, so
        the decision moves in one pass.
        """
        arr, labels_arr = self._check_update(hvs, labels)
        for label in np.unique(labels_arr):
            self._counters[label] -= self._sum_rows(arr[labels_arr == label])
        if self.CLAMPED:
            np.maximum(self._counters, 0, out=self._counters)
        self._forget()

    def _check_update(self, hvs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
        arr = self._check_hvs(hvs)
        labels_arr = check_labels(labels, arr.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        return arr, labels_arr

    def _as_block(self, block: np.ndarray, name: str, width: Optional[int] = None):
        """*block* as a 2-D stack of rows (a 1-D row is promoted).

        With *width*, the rows must have that many columns.
        """
        arr = np.asarray(block)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
            expected = "width" if width is None else width
            raise DimensionMismatchError(
                f"{name} must be (n, {expected}), got shape {arr.shape}"
            )
        return arr

    def _check_hvs(self, hvs: np.ndarray, name: str = "hvs") -> np.ndarray:
        """Hypervector rows as a checked ``(n, D)`` block."""
        return self._as_block(hvs, name, self._dimension)

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """One class's update rows summed into a ``(D,)`` int64 row."""
        return rows.sum(axis=0, dtype=np.int64)

    def _forget(self) -> None:
        """Drop what was derived from the counters (after every update)."""
        self._cache: Optional[np.ndarray] = None

    # -- queries -----------------------------------------------------------
    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Arg-max-similarity class for each query HV → ``(n,)`` int64."""
        return self.similarities(queries).argmax(axis=1).astype(np.int64)

    def margins(self, queries: np.ndarray) -> np.ndarray:
        """Top-1 minus top-2 similarity per query — a confidence proxy.

        Low margins flag the "vulnerable cases" of Sec. V-B: inputs the
        fuzzer flips with very few mutations.
        """
        sims = self.similarities(queries)
        if sims.shape[1] < 2:
            return np.zeros(sims.shape[0])
        part = np.partition(sims, -2, axis=1)
        return part[:, -1] - part[:, -2]

    def _require_trained(self) -> None:
        if not (self._counts > 0).any():
            raise NotTrainedError(f"{type(self).__name__} has no trained classes yet")

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Arrays needed to reconstruct this memory exactly."""
        state = {self.FIELD: self._counters.copy(), "counts": self._counts.copy()}
        if self.FIELD == "accumulators":
            state["bipolar"] = np.asarray(self._bipolar)
        return state

    @classmethod
    def _state_options(cls, state: dict[str, np.ndarray]) -> dict:
        """Constructor keywords :meth:`from_state_dict` reads from *state*."""
        return {}

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "CounterMemory":
        """Inverse of :meth:`state_dict`.

        The counter matrix must be 2-D and ``counts`` must hold one entry
        per class row, so a corrupt or hand-edited checkpoint fails here
        with a :class:`~repro.errors.ConfigurationError` naming the
        field, instead of loading as trained and failing at the next
        update.
        """
        matrix = np.asarray(state[cls.FIELD], dtype=np.int64)
        if matrix.ndim != 2:
            raise ConfigurationError(f"{cls.FIELD} must be 2-D, got shape {matrix.shape}")
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != (matrix.shape[0],):
            raise ConfigurationError(
                f"counts must hold one entry per {cls.FIELD} row, shape "
                f"({matrix.shape[0]},), got {counts.shape}"
            )
        am = cls(*matrix.shape, **cls._state_options(state))
        am._counters, am._counts = matrix, counts
        return am

    def copy(self) -> "CounterMemory":
        """Deep copy (used by the defense to retrain without clobbering)."""
        return type(self).from_state_dict(self.state_dict())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_classes={self._n_classes}, "
            f"dimension={self._dimension}, bipolar={self._bipolar}, "
            f"trained={self.is_trained})"
        )


class AssociativeMemory(CounterMemory):
    """Per-class hypervector store with accumulate / bipolarise / query.

    Parameters
    ----------
    n_classes:
        Number of classes (rows).
    dimension:
        Hypervector dimensionality.
    bipolar:
        If True (paper behaviour) queries run against bipolarised class
        HVs; if False, against the raw integer accumulators (a common
        HDC variant, kept for ablations).
    """

    def __init__(self, n_classes: int, dimension: int, *, bipolar: bool = True) -> None:
        self._bipolar = bool(bipolar)
        super().__init__(n_classes, dimension)

    @classmethod
    def _state_options(cls, state: dict[str, np.ndarray]) -> dict:
        return {"bipolar": bool(np.asarray(state["bipolar"]))}

    def _forget(self) -> None:
        super()._forget()
        self._class_words_cache: Optional[np.ndarray] = None

    @property
    def accumulators(self) -> np.ndarray:
        """Read-only view of the raw ``(n_classes, D)`` accumulators."""
        view = self._counters.view()
        view.flags.writeable = False
        return view

    # -- reference vectors -------------------------------------------------
    @property
    def class_hvs(self) -> np.ndarray:
        """The reference hypervectors used for querying.

        Bipolarised accumulators when ``bipolar=True`` (zero components
        map to +1, deterministically — see
        :meth:`repro.hdc.encoders.image.PixelEncoder.encode_batch` for
        why determinism is required), raw accumulators otherwise.
        """
        if self._cache is None:
            if self._bipolar:
                self._cache = np.where(self._counters >= 0, 1, -1).astype(np.int8)
            else:
                self._cache = self._counters.copy()
        return self._cache

    @property
    def class_words(self) -> np.ndarray:
        """Packed sign words of the bipolar :attr:`class_hvs` (cached like them).

        What sign-word queries are answered against, here and in a
        shared-codebook ensemble's stacked query.
        """
        if self._class_words_cache is None:
            from repro.hdc.backends.packed import sign_words

            self._class_words_cache = sign_words(self._counters)
        return self._class_words_cache

    # -- queries -----------------------------------------------------------
    def query_words(self, queries: np.ndarray) -> Optional[np.ndarray]:
        """Packed sign words the popcount path answers *queries* with.

        A bipolar memory takes int8 {-1, +1} blocks (checked, then packed
        here) and blocks that already are packed sign words (uint64, as
        :func:`~repro.hdc.backends.packed.pack_signs` makes them).
        Returns ``None`` for everything else — float queries, int8 blocks
        holding other values, the ``bipolar=False`` memory — which
        :meth:`similarities` answers with the float64
        :func:`~repro.hdc.similarity.cosine_matrix`.  The width is checked
        against ``D`` before packing: ``D − 1`` and ``D`` components can
        pack to the same number of words.
        """
        from repro.hdc.backends.packed import check_packed, is_sign_block, pack_signs

        arr = np.asarray(queries)
        if not self._bipolar or arr.ndim not in (1, 2):
            return None
        if arr.dtype == np.uint64:
            return check_packed(arr, self._dimension, name="queries")
        if arr.shape[-1] != self._dimension:
            raise DimensionMismatchError(
                f"queries have dimension {arr.shape[-1]}, the memory {self._dimension}"
            )
        return pack_signs(arr, validate=False) if is_sign_block(arr) else None

    def similarities(self, queries: np.ndarray) -> np.ndarray:
        """Cosine similarity of each query to every class HV → ``(n, C)``.

        Blocks :meth:`query_words` can pack are answered as
        ``(D − 2·popcount(xor)) / D`` against the cached packed class
        words — the same floats as the float64 cosine.
        """
        self._require_trained()
        arr = self._as_block(queries, "queries")
        words = self.query_words(arr)
        if words is None:
            return cosine_matrix(arr, self.class_hvs)
        from repro.hdc.backends.packed import cosine_matrix_packed_bipolar

        return cosine_matrix_packed_bipolar(words, self.class_words, self._dimension)

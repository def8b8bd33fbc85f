"""Associative memory (AM): one class hypervector per label (Sec. III-B).

Training sums every training image's HV into its class accumulator and
re-bipolarises (Eq. 1).  Querying computes cosine similarity between a
query HV and every (bipolarised) class HV and predicts the arg-max
(Sec. III-C).  A bipolar memory keeps its class HVs' packed sign words
next to the int8 ones and answers ±1 queries by popcount
(``D − 2·popcount(xor)``, bit-identical to the float cosine) — packing
as query-side storage, in the spirit of Schmuck et al.'s combinational
associative memory.

The AM keeps its integer *accumulators* alongside the bipolar class HVs
so it supports the paper's defense case study (Sec. V-D): retraining
"updates the reference HVs" by adding further HVs into the accumulators
(optionally subtracting from a wrongly-predicted class), then
re-bipolarising.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, NotTrainedError
from repro.hdc.similarity import cosine_matrix
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["AssociativeMemory", "check_am_shape", "check_am_state"]


def check_am_state(state: dict, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_classes, D)`` *field* matrix and ``counts`` of an AM state.

    Shared by every associative memory's ``from_state_dict`` (*field* is
    ``accumulators`` for the bipolar memories, ``ones`` for the binary
    ones): the matrix must be 2-D and ``counts`` must hold one entry per
    class row.  A corrupt or hand-edited checkpoint therefore fails at
    load with a :class:`~repro.errors.ConfigurationError` naming the
    field, instead of loading as trained and failing at the next update.
    """
    matrix = np.asarray(state[field], dtype=np.int64)
    if matrix.ndim != 2:
        raise ConfigurationError(f"{field} must be 2-D, got shape {matrix.shape}")
    counts = np.asarray(state["counts"], dtype=np.int64)
    if counts.shape != (matrix.shape[0],):
        raise ConfigurationError(
            f"counts must hold one entry per {field} row, shape "
            f"({matrix.shape[0]},), got {counts.shape}"
        )
    return matrix, counts


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


class AssociativeMemory:
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
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._dimension = check_positive_int(dimension, "dimension")
        self._bipolar = bool(bipolar)
        self._accumulators = np.zeros((self._n_classes, self._dimension), dtype=np.int64)
        self._counts = np.zeros(self._n_classes, dtype=np.int64)
        self._class_hvs_cache: Optional[np.ndarray] = None
        self._class_words_cache: Optional[np.ndarray] = None

    # -- introspection ---------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self._n_classes

    @property
    def dimension(self) -> int:
        """Hypervector dimensionality."""
        return self._dimension

    @property
    def bipolar(self) -> bool:
        """Whether queries use bipolarised class HVs."""
        return self._bipolar

    @property
    def counts(self) -> np.ndarray:
        """Number of HVs accumulated into each class (read-only copy)."""
        return self._counts.copy()

    @property
    def accumulators(self) -> np.ndarray:
        """Read-only view of the raw ``(n_classes, D)`` accumulators."""
        view = self._accumulators.view()
        view.flags.writeable = False
        return view

    @property
    def is_trained(self) -> bool:
        """True once at least one HV has been added to every class."""
        return bool((self._counts > 0).all())

    # -- updates ---------------------------------------------------------
    def add(self, hvs: np.ndarray, labels: np.ndarray) -> None:
        """Accumulate hypervectors *hvs* into the classes in *labels*."""
        hvs, labels = self._check_update(hvs, labels)
        np.add.at(self._accumulators, labels, hvs.astype(np.int64, copy=False))
        np.add.at(self._counts, labels, 1)
        self._class_hvs_cache = self._class_words_cache = None

    def subtract(self, hvs: np.ndarray, labels: np.ndarray) -> None:
        """Subtract hypervectors from classes (perceptron-style update).

        Used by adaptive retraining: a misclassified sample's HV is
        added to its true class and subtracted from the wrong one, so
        the decision moves in one pass.  Counts are not decremented —
        they track *additions* for introspection, not a norm.
        """
        hvs, labels = self._check_update(hvs, labels)
        np.subtract.at(self._accumulators, labels, hvs.astype(np.int64, copy=False))
        self._class_hvs_cache = self._class_words_cache = None

    def _check_update(self, hvs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(hvs)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self._dimension:
            raise DimensionMismatchError(
                f"hvs must be (n, {self._dimension}), got shape {arr.shape}"
            )
        labels_arr = check_labels(labels, arr.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        return arr, labels_arr

    # -- reference vectors -------------------------------------------------
    @property
    def class_hvs(self) -> np.ndarray:
        """The reference hypervectors used for querying.

        Bipolarised accumulators when ``bipolar=True`` (zero components
        map to +1, deterministically — see
        :meth:`repro.hdc.encoders.image.PixelEncoder.encode_batch` for
        why determinism is required), raw accumulators otherwise.
        """
        if self._class_hvs_cache is None:
            if self._bipolar:
                self._class_hvs_cache = np.where(self._accumulators >= 0, 1, -1).astype(np.int8)
            else:
                self._class_hvs_cache = self._accumulators.copy()
        return self._class_hvs_cache

    def _class_words(self) -> np.ndarray:
        """Packed sign words of the bipolar :attr:`class_hvs` (cached like them)."""
        if self._class_words_cache is None:
            from repro.hdc.backends.packed import pack_bits

            # acc < 0 is exactly the sign bit of class_hvs (Eq. 1, 0 → +1).
            self._class_words_cache = pack_bits(self._accumulators < 0, validate=False)
        return self._class_words_cache

    def reference_hv(self, label: int) -> np.ndarray:
        """The reference HV for one class (``AM[label]`` in the paper)."""
        if not 0 <= label < self._n_classes:
            raise ConfigurationError(f"label {label} out of range [0, {self._n_classes})")
        return self.class_hvs[label]

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
        words = self.query_words(queries)
        if words is None:
            return cosine_matrix(queries, self.class_hvs)
        from repro.hdc.backends.packed import bipolar_cosine_from_counts, hamming_counts

        return bipolar_cosine_from_counts(
            hamming_counts(words, self._class_words()), self._dimension
        )

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
            raise NotTrainedError("associative memory has no trained classes yet")

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Arrays needed to reconstruct this AM exactly."""
        return {
            "accumulators": self._accumulators.copy(),
            "counts": self._counts.copy(),
            "bipolar": np.asarray(self._bipolar),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "AssociativeMemory":
        """Inverse of :meth:`state_dict`."""
        acc, counts = check_am_state(state, "accumulators")
        am = cls(acc.shape[0], acc.shape[1], bipolar=bool(np.asarray(state["bipolar"])))
        am._accumulators = acc
        am._counts = counts
        return am

    def copy(self) -> "AssociativeMemory":
        """Deep copy (used by the defense to retrain without clobbering)."""
        return AssociativeMemory.from_state_dict(self.state_dict())

    def __repr__(self) -> str:
        return (
            f"AssociativeMemory(n_classes={self._n_classes}, dimension={self._dimension}, "
            f"bipolar={self._bipolar}, trained={self.is_trained})"
        )

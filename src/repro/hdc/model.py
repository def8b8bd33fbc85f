"""High-level HDC classifier: encoder + associative memory (Sec. III).

:class:`HDCClassifier` is the object placed under test by HDTest.  It
wires any :class:`~repro.hdc.encoders.base.Encoder` to an
:class:`~repro.hdc.associative_memory.AssociativeMemory` and exposes the
grey-box surface the fuzzer relies on (Sec. IV):

* :meth:`encode` / :meth:`encode_batch` — the query HVs (and
  :attr:`encoder`, whose accumulators the incremental path extends);
* :attr:`associative_memory` — its ``similarities`` block gives the
  differential oracle's labels (the arg-max) and the distance-guided
  fitness (column ``y``).

It also implements the two training modes the paper uses: single-pass
accumulation (Sec. III-B) and retraining on new labelled data
(Sec. V-D's defense, "updating the reference HVs").
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.associative_memory import AssociativeMemory
from repro.hdc.encoders.base import Encoder
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["HDCClassifier"]


class HDCClassifier:
    """An HDC classifier with the paper's train / test / retrain phases.

    Parameters
    ----------
    encoder:
        Any encoder mapping raw inputs to bipolar hypervectors.
    n_classes:
        Number of output classes.
    bipolar_am:
        Whether the associative memory bipolarises its class HVs before
        querying (the paper does; ``False`` is an ablation).

    Examples
    --------
    >>> from repro.hdc import PixelEncoder, HDCClassifier
    >>> from repro.datasets import load_digits
    >>> train, test = load_digits(n_train=200, n_test=50, seed=7)
    >>> enc = PixelEncoder(dimension=2048, rng=7)
    >>> model = HDCClassifier(enc, n_classes=10).fit(train.images, train.labels)
    >>> float(model.score(test.images, test.labels)) > 0.5
    True
    """

    def __init__(
        self,
        encoder: Encoder,
        n_classes: int,
        *,
        bipolar_am: bool = True,
    ) -> None:
        if not isinstance(encoder, Encoder):
            raise ConfigurationError(
                f"encoder must be an Encoder, got {type(encoder).__name__}"
            )
        self._encoder = encoder
        self._n_classes = check_positive_int(n_classes, "n_classes")
        self._am = AssociativeMemory(self._n_classes, encoder.dimension, bipolar=bipolar_am)

    # -- introspection ---------------------------------------------------
    @property
    def encoder(self) -> Encoder:
        """The input encoder (grey-box access point for the fuzzer)."""
        return self._encoder

    @property
    def associative_memory(self) -> AssociativeMemory:
        """The trained associative memory."""
        return self._am

    @property
    def n_classes(self) -> int:
        """Number of output classes."""
        return self._n_classes

    @property
    def dimension(self) -> int:
        """Hypervector dimensionality."""
        return self._encoder.dimension

    @property
    def is_trained(self) -> bool:
        """True once every class has at least one training example."""
        return self._am.is_trained

    # -- encoding passthrough ----------------------------------------------
    def encode(self, item: Any) -> np.ndarray:
        """Encode one raw input into its query hypervector."""
        return self._encoder.encode(item)

    def encode_batch(self, items: Sequence[Any]) -> np.ndarray:
        """Encode a batch of raw inputs into ``(n, D)`` query HVs."""
        return self._encoder.encode_batch(items)

    # -- training ----------------------------------------------------------
    def fit(self, inputs: Sequence[Any], labels) -> "HDCClassifier":
        """Single-epoch accumulation training (Sec. III-B).

        Each input's HV is added into its class accumulator; the AM
        bipolarises lazily on first query.  Returns ``self`` so
        construction and training chain.
        """
        hvs = self._encoder.encode_batch(inputs)
        labels_arr = check_labels(labels, hvs.shape[0])
        self._am.add(hvs, labels_arr)
        return self

    def retrain(
        self,
        inputs: Sequence[Any],
        labels,
        *,
        mode: str = "adaptive",
        epochs: int = 1,
    ) -> "HDCClassifier":
        """Update the reference HVs with new labelled data (Sec. V-D).

        Parameters
        ----------
        mode:
            ``"additive"`` simply accumulates the new HVs into their
            correct classes (one more epoch of Sec. III-B training).
            ``"adaptive"`` (default) is the perceptron-style HDC update
            the retraining literature the paper cites uses: only
            *misclassified* inputs update the memory — their HV is added
            to the true class and subtracted from the wrongly-predicted
            class.
        epochs:
            Number of passes over the new data (adaptive mode converges
            in a few).
        """
        return self.retrain_hvs(
            self._encoder.encode_batch(inputs), labels, mode=mode, epochs=epochs
        )

    def retrain_hvs(
        self, hvs: np.ndarray, labels, *, mode: str = "adaptive", epochs: int = 1
    ) -> "HDCClassifier":
        """:meth:`retrain` on already-encoded query HVs (cf. :meth:`predict_hv`).

        Models sharing one encoder update from a single encode of the
        retraining inputs (``debug_ensemble`` on shared-codebook members).
        """
        if mode not in ("additive", "adaptive"):
            raise ConfigurationError(f"mode must be 'additive' or 'adaptive', got {mode!r}")
        epochs = check_positive_int(epochs, "epochs")
        labels_arr = check_labels(labels, hvs.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        if mode == "additive":
            self._am.add(hvs, labels_arr)
            return self
        for _ in range(epochs):
            predictions = self._am.predict(hvs)
            wrong = predictions != labels_arr
            if not wrong.any():
                break
            self._am.add(hvs[wrong], labels_arr[wrong])
            self._am.subtract(hvs[wrong], predictions[wrong])
        return self

    # -- inference -----------------------------------------------------
    def predict(self, inputs: Sequence[Any]) -> np.ndarray:
        """Predicted class per raw input → ``(n,)`` int64."""
        return self._am.predict(self._encoder.encode_batch(inputs))

    def predict_one(self, item: Any) -> int:
        """Predicted class for a single raw input."""
        return int(self._am.predict(self._encoder.encode(item)[None])[0])

    def predict_hv(self, hvs: np.ndarray) -> np.ndarray:
        """Predicted classes for already-encoded query HVs."""
        return self._am.predict(hvs)

    def similarities(self, inputs: Sequence[Any]) -> np.ndarray:
        """Cosine similarities of each input to every class → ``(n, C)``."""
        return self._am.similarities(self._encoder.encode_batch(inputs))

    def margins(self, inputs: Sequence[Any]) -> np.ndarray:
        """Top-1 − top-2 similarity per input (vulnerability proxy)."""
        return self._am.margins(self._encoder.encode_batch(inputs))

    def score(self, inputs: Sequence[Any], labels) -> float:
        """Classification accuracy on labelled data (Sec. III-C)."""
        predictions = self.predict(inputs)
        labels_arr = check_labels(labels, predictions.shape[0])
        return float(np.mean(predictions == labels_arr))

    def copy(self) -> "HDCClassifier":
        """Clone sharing the encoder but with an independent AM.

        The defense retrains a copy so before/after attack rates can be
        measured against the same frozen baseline.  Serves every model
        family: the clone keeps the class and shares the encoder.
        """
        clone = copy.copy(self)
        clone._am = self._am.copy()
        return clone

    def untrained(self, encoder: Optional[Encoder] = None) -> "HDCClassifier":
        """An untrained model of this class and memory configuration.

        Built around *encoder*, or around this model's own encoder
        (shared) by default — the one constructor call behind ensemble
        clones and shared-codebook members.
        """
        encoder = self._encoder if encoder is None else encoder
        return type(self)(encoder, self._n_classes, **self._options())

    def _options(self) -> dict:
        """Constructor keywords beyond the encoder and the class count."""
        return {"bipolar_am": self._am.bipolar}

    # -- persistence ---------------------------------------------------
    def save_payload(self) -> dict:
        """The ``.npz`` key/value payload :meth:`save` writes.

        Exposed separately so wrappers that persist *extra* arrays next
        to one model — a shared-codebook ensemble storing K associative
        memories around a single codebook — can extend the payload
        rather than duplicate the serialisation logic.  Built from the
        encoder's construction surface by
        :func:`repro.hdc.archive.model_payload`.
        """
        from repro.hdc.archive import model_payload

        return model_payload(self)

    def save(self, path: Union[str, Path]) -> None:
        """Serialise model (codebooks + AM) to a ``.npz`` file.

        Every encoder with a kind in :data:`repro.hdc.archive.MODEL_KINDS`
        is serialisable — the pixel encoder (kind ``pixel-hdc``), the
        character n-gram encoder (``ngram-hdc``), the record encoder
        (``record-hdc``) and the binary pixel encoder
        (``pixel-binary-hdc``) — so every fuzzing domain's model
        round-trips through the CLI.  Other encoders raise
        :class:`~repro.errors.ConfigurationError`.  Rematerialized
        codebooks persist as their 64-bit PRF seeds only (``codebook``
        tag + ``<name>_seed`` keys); stored-codebook files from before
        the tag existed keep loading.
        """
        np.savez_compressed(Path(path), **self.save_payload())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "HDCClassifier":
        """Inverse of :meth:`save` for archives of this class's kind.

        Encoders are rebuilt through their constructors around the
        stored codebooks, so fields that disagree with each other (a
        codebook with the wrong row count or width) raise
        :class:`~repro.errors.ConfigurationError` naming the file; so
        does an archive of another family's kind.
        """
        from repro.hdc.archive import load_model

        return load_model(path, family=cls)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(encoder={self._encoder!r}, "
            f"n_classes={self._n_classes}, trained={self.is_trained})"
        )


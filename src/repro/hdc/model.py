"""High-level HDC classifier: encoder + associative memory (Sec. III).

:class:`HDCClassifier` is the object placed under test by HDTest.  It
wires any :class:`~repro.hdc.encoders.base.Encoder` to an
:class:`~repro.hdc.associative_memory.AssociativeMemory` and exposes the
grey-box surface the fuzzer relies on (Sec. IV):

* :meth:`predict` — the differential oracle's reference and query labels;
* :meth:`encode` / :meth:`encode_batch` — query HVs for fitness;
* :meth:`reference_hv` — ``AM[y]`` for the distance-guided fitness.

It also implements the two training modes the paper uses: single-pass
accumulation (Sec. III-B) and retraining on new labelled data
(Sec. V-D's defense, "updating the reference HVs").
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.associative_memory import AssociativeMemory, check_am_shape
from repro.hdc.encoders.base import Encoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.item_memory import (
    ItemMemory,
    LevelMemory,
    memory_from_payload,
    memory_payload,
)
from repro.hdc.spaces import BipolarSpace, Space
from repro.utils.validation import check_labels, check_positive_int, open_npz

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

    def fit_adaptive(
        self,
        inputs: Sequence[Any],
        labels,
        *,
        epochs: int = 10,
        patience: int = 3,
    ) -> list[float]:
        """One-shot fit followed by adaptive (perceptron-style) epochs.

        The paper's Discussion points at the HDC retraining literature
        (its ref. [32]) as the route to higher accuracy than one-shot
        accumulation.  This trains exactly that way: a Sec. III-B
        accumulation pass, then up to *epochs* passes where each
        misclassified example's HV is added to its true class and
        subtracted from the predicted one.  Stops early when training
        accuracy hasn't improved for *patience* epochs.

        Returns
        -------
        list[float]
            Training accuracy after the initial pass and after each
            adaptive epoch (the training history).
        """
        epochs = check_positive_int(epochs, "epochs")
        patience = check_positive_int(patience, "patience")
        hvs = self._encoder.encode_batch(inputs)
        labels_arr = check_labels(labels, hvs.shape[0])
        if labels_arr.size and labels_arr.max() >= self._n_classes:
            raise ConfigurationError(
                f"label {labels_arr.max()} out of range for {self._n_classes} classes"
            )
        self._am.add(hvs, labels_arr)
        history = [float(np.mean(self._am.predict(hvs) == labels_arr))]
        best = history[0]
        stale = 0
        for _ in range(epochs):
            predictions = self._am.predict(hvs)
            wrong = predictions != labels_arr
            if not wrong.any():
                break
            self._am.add(hvs[wrong], labels_arr[wrong])
            self._am.subtract(hvs[wrong], predictions[wrong])
            accuracy = float(np.mean(self._am.predict(hvs) == labels_arr))
            history.append(accuracy)
            if accuracy > best + 1e-12:
                best = accuracy
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
        return history

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
        if mode not in ("additive", "adaptive"):
            raise ConfigurationError(f"mode must be 'additive' or 'adaptive', got {mode!r}")
        epochs = check_positive_int(epochs, "epochs")
        hvs = self._encoder.encode_batch(inputs)
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

    def reference_hv(self, label: int) -> np.ndarray:
        """``AM[label]`` — the reference vector used by guided fitness."""
        return self._am.reference_hv(label)

    def copy(self) -> "HDCClassifier":
        """Clone sharing the encoder but with an independent AM.

        The defense retrains a copy so before/after attack rates can be
        measured against the same frozen baseline.  Serves every model
        family: the clone keeps the class and shares the encoder.
        """
        clone = copy.copy(self)
        clone._am = self._am.copy()
        return clone

    # -- persistence ---------------------------------------------------
    def save_payload(self) -> dict:
        """The ``.npz`` key/value payload :meth:`save` writes.

        Exposed separately so wrappers that persist *extra* arrays next
        to one model — a shared-codebook ensemble storing K associative
        memories around a single codebook — can extend the payload
        rather than duplicate the serialisation logic.
        """
        from repro.hdc.encoders.ngram import NgramEncoder
        from repro.hdc.encoders.record import RecordEncoder

        enc = self._encoder
        state = self._am.state_dict()
        am_fields = dict(
            am_accumulators=state["accumulators"],
            am_counts=state["counts"],
            am_bipolar=state["bipolar"],
            n_classes=np.asarray(self._n_classes),
        )
        if isinstance(enc, PixelEncoder):
            return dict(
                kind=np.asarray("pixel-hdc"),
                codebook=np.asarray(enc.codebook),
                shape=np.asarray(enc.shape),
                levels=np.asarray(enc.levels),
                dimension=np.asarray(enc.dimension),
                **memory_payload("position", enc.position_memory),
                **memory_payload("value", enc.value_memory),
                **am_fields,
            )
        if isinstance(enc, NgramEncoder):
            return dict(
                kind=np.asarray("ngram-hdc"),
                codebook=np.asarray(enc.codebook),
                n=np.asarray(enc.n),
                alphabet=np.asarray(enc.alphabet),
                unknown_policy=np.asarray(enc.unknown_policy),
                dimension=np.asarray(enc.dimension),
                **memory_payload("item", enc.item_memory),
                **am_fields,
            )
        if isinstance(enc, RecordEncoder):
            level_encoding = (
                "linear" if isinstance(enc.value_memory, LevelMemory) else "random"
            )
            return dict(
                kind=np.asarray("record-hdc"),
                codebook=np.asarray(enc.codebook),
                n_features=np.asarray(enc.n_features),
                levels=np.asarray(enc.levels),
                value_range=np.asarray(enc.value_range),
                level_encoding=np.asarray(level_encoding),
                dimension=np.asarray(enc.dimension),
                **memory_payload("id", enc.id_memory),
                **memory_payload("value", enc.value_memory),
                **am_fields,
            )
        raise ConfigurationError(
            f"save() supports PixelEncoder, NgramEncoder and RecordEncoder "
            f"models, not {type(enc).__name__}"
        )

    def save(self, path: Union[str, Path]) -> None:
        """Serialise model (codebooks + AM) to a ``.npz`` file.

        Three encoder families are serialisable — the pixel encoder
        (kind ``pixel-hdc``), the character n-gram encoder
        (``ngram-hdc``), and the record encoder (``record-hdc``) — so
        every fuzzing domain's model round-trips through the CLI.
        Other encoders raise :class:`~repro.errors.ConfigurationError`.
        Rematerialized codebooks persist as their 64-bit PRF seeds only
        (``codebook`` tag + ``<name>_seed`` keys); stored-codebook files
        from before the tag existed keep loading.
        """
        np.savez_compressed(Path(path), **self.save_payload())

    @staticmethod
    def _load_pixel_encoder(data) -> PixelEncoder:
        space = BipolarSpace(int(data["dimension"]))
        return PixelEncoder(**pixel_encoder_args(data, space))

    @staticmethod
    def _load_ngram_encoder(data):
        from repro.hdc.encoders.ngram import NgramEncoder

        alphabet = str(data["alphabet"])
        space = BipolarSpace(int(data["dimension"]))
        return NgramEncoder(
            int(data["n"]),
            alphabet=alphabet,
            dimension=space.dimension,
            unknown_policy=str(data["unknown_policy"]),
            item_memory=memory_from_payload("item", data, len(alphabet), space),
        )

    @staticmethod
    def _load_record_encoder(data):
        from repro.hdc.encoders.record import RecordEncoder

        n_features, levels = int(data["n_features"]), int(data["levels"])
        level_encoding = str(data["level_encoding"])
        space = BipolarSpace(int(data["dimension"]))
        return RecordEncoder(
            n_features,
            levels=levels,
            value_range=tuple(float(v) for v in data["value_range"]),
            level_encoding=level_encoding,
            dimension=space.dimension,
            id_memory=memory_from_payload("id", data, n_features, space),
            value_memory=memory_from_payload(
                "value", data, levels, space,
                LevelMemory if level_encoding == "linear" else ItemMemory,
            ),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "HDCClassifier":
        """Inverse of :meth:`save`, dispatching on the stored ``kind`` tag.

        Encoders are rebuilt through their constructors around the
        stored codebooks, so fields that disagree with each other (a
        codebook with the wrong row count or width) raise
        :class:`~repro.errors.ConfigurationError` naming the file.
        """
        loaders = {
            "pixel-hdc": cls._load_pixel_encoder,
            "ngram-hdc": cls._load_ngram_encoder,
            "record-hdc": cls._load_record_encoder,
        }
        with open_npz(path) as data:
            kind = str(data["kind"])
            if kind not in loaders:
                raise ConfigurationError(f"unsupported model kind {kind!r}")
            model = cls(
                loaders[kind](data),
                int(data["n_classes"]),
                bipolar_am=bool(data["am_bipolar"]),
            )
            model._am = AssociativeMemory.from_state_dict(
                {
                    "accumulators": data["am_accumulators"],
                    "counts": data["am_counts"],
                    "bipolar": data["am_bipolar"],
                }
            )
            check_am_shape(
                model._am, model.n_classes, model.dimension, field="am_accumulators"
            )
        return model

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(encoder={self._encoder!r}, "
            f"n_classes={self._n_classes}, trained={self.is_trained})"
        )


def pixel_codebooks(encoder) -> dict:
    """Constructor arguments rebuilding a pixel encoder around *encoder*'s codebooks.

    The dense and packed pixel families convert into each other through
    these: the codebook objects are shared, so conversions are exact.
    """
    for attr in ("shape", "position_memory", "value_memory", "dimension"):
        if not hasattr(encoder, attr):
            raise ConfigurationError(
                f"{type(encoder).__name__} lacks {attr!r}; expected a "
                "PixelEncoder-compatible encoder"
            )
    return dict(
        shape=encoder.shape,
        levels=encoder.value_memory.size,
        dimension=encoder.dimension,
        position_memory=encoder.position_memory,
        value_memory=encoder.value_memory,
    )


def pixel_encoder_args(data, space: Space) -> dict:
    """Constructor arguments of a pixel encoder saved in *data* (an open ``.npz``).

    Shared by the bipolar and binary pixel families; *space* fixes the
    codebook alphabet and dimension.
    """
    shape = tuple(int(v) for v in data["shape"])
    levels = int(data["levels"])
    return dict(
        shape=shape,
        levels=levels,
        dimension=space.dimension,
        position_memory=memory_from_payload("position", data, shape[0] * shape[1], space),
        value_memory=memory_from_payload("value", data, levels, space),
    )

"""Model archives: one ``kind`` table, one payload writer, one loader.

A model saves as one ``.npz``: its ``kind`` tag, the encoder's codebook
storage tag (``codebook``) and architecture
(:meth:`~repro.hdc.encoders.base.Encoder.architecture`, one key per
constructor keyword), each named codebook
(:func:`~repro.hdc.item_memory.memory_payload`: its rows, or only its
64-bit PRF seed when rematerialized), the associative memory's state
under ``am_<key>`` keys, and ``n_classes``.

:data:`MODEL_KINDS` maps each tag to the dense model and encoder classes
that read it back.  A packed model saves as the dense family it
subclasses — the first classes of its model's and encoder's MROs found
in the table — and the packed class's ``load`` repacks; the dense ↔
packed conversions (:func:`convert`) rebuild through the same table and
the encoders' construction surface.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.associative_memory import check_am_shape
from repro.hdc.binary_model import BinaryHDCClassifier, BinaryPixelEncoder
from repro.hdc.encoders.image import PixelEncoder
from repro.hdc.encoders.ngram import NgramEncoder
from repro.hdc.encoders.record import RecordEncoder
from repro.hdc.item_memory import memory_from_payload, memory_payload
from repro.hdc.model import HDCClassifier
from repro.utils.validation import open_npz

__all__ = ["MODEL_KINDS", "archive_kind", "convert", "load_model", "model_payload"]

#: Archive ``kind`` tag → the (model class, encoder class) it loads into.
MODEL_KINDS: dict[str, tuple[type, type]] = {
    "pixel-hdc": (HDCClassifier, PixelEncoder),
    "ngram-hdc": (HDCClassifier, NgramEncoder),
    "record-hdc": (HDCClassifier, RecordEncoder),
    "pixel-binary-hdc": (BinaryHDCClassifier, BinaryPixelEncoder),
}


def _kind_of(model_cls: type, encoder_cls: type) -> Optional[str]:
    """The kind a *model_cls* over an *encoder_cls* saves as, or ``None``.

    Each class stands for the first class of its MRO found in the table,
    so a packed subclass saves as its dense family.
    """
    models, encoders = zip(*MODEL_KINDS.values())
    pair = (_first_in(model_cls, models), _first_in(encoder_cls, encoders))
    return {entry: kind for kind, entry in MODEL_KINDS.items()}.get(pair)


def _first_in(cls: type, classes: tuple[type, ...]) -> Optional[type]:
    return next((c for c in cls.__mro__ if c in classes), None)


def archive_kind(model: Any) -> str:
    """The ``kind`` tag *model* saves as; ConfigurationError if it has none."""
    kind = _kind_of(type(model), type(model.encoder))
    if kind is None:
        raise ConfigurationError(
            f"no archive kind holds a {type(model).__name__} over a "
            f"{type(model.encoder).__name__}; saveable pairs: "
            + ", ".join(f"{m.__name__}/{e.__name__}" for m, e in MODEL_KINDS.values())
        )
    return kind


def model_payload(model: Any) -> dict[str, np.ndarray]:
    """The ``.npz`` key/value payload of *model* (see the module docstring)."""
    encoder = model.encoder
    payload = {
        "kind": np.asarray(archive_kind(model)),
        "codebook": np.asarray(encoder.codebook),
    }
    payload.update((key, np.asarray(value)) for key, value in encoder.architecture().items())
    for name, memory in encoder.codebooks().items():
        payload.update(memory_payload(name, memory))
    state = model.associative_memory.state_dict()
    payload.update((f"am_{key}", value) for key, value in state.items())
    payload["n_classes"] = np.asarray(model.n_classes)
    return payload


def _with_memory(model: Any, state: dict) -> Any:
    """*model* with its associative memory rebuilt from *state*."""
    model._am = type(model.associative_memory).from_state_dict(state)  # noqa: SLF001
    return model


def _python_value(array: np.ndarray) -> Any:
    """A stored architecture field as its constructor keyword takes it."""
    return array.item() if array.ndim == 0 else tuple(array.tolist())


def load_model(path: Union[str, Path], *, family: Optional[type] = None) -> Any:
    """Load the model archive at *path* into the classes its ``kind`` names.

    With *family*, the archive must be of that model class's kind
    (``HDCClassifier.load`` passes its class).  Unreadable files,
    missing fields and fields that disagree with each other raise
    :class:`~repro.errors.ConfigurationError` naming *path*.
    """
    with open_npz(path) as data:
        kind = str(data["kind"])
        if kind not in MODEL_KINDS:
            raise ConfigurationError(f"unsupported model kind {kind!r}")
        model_cls, encoder_cls = MODEL_KINDS[kind]
        if family is not None and family is not model_cls:
            raise ConfigurationError(
                f"kind {kind!r} holds a {model_cls.__name__}, not a {family.__name__}"
            )
        architecture = {key: _python_value(data[key]) for key in encoder_cls.ARCHITECTURE}
        space = encoder_cls.SPACE(architecture["dimension"])
        memories = {
            f"{name}_memory": memory_from_payload(name, data, rows, space, memory_type)
            for name, (rows, memory_type) in encoder_cls.codebook_layout(**architecture).items()
        }
        model = model_cls(encoder_cls(**architecture, **memories), int(data["n_classes"]))
        fields = list(model.associative_memory.state_dict())
        _with_memory(model, {key: data[f"am_{key}"] for key in fields})
        check_am_shape(
            model.associative_memory, model.n_classes, model.dimension,
            field=f"am_{fields[0]}",
        )
    return model


def convert(model: Any, model_cls: type, encoder_cls: type) -> Any:
    """*model* rebuilt as a *model_cls* over an *encoder_cls* (exact).

    The codebook objects are shared and the memory state is copied, so
    the result predicts bit-identically; both sides must be forms of
    one archive kind (the dense and packed classes of one family).
    """
    kind, target = archive_kind(model), _kind_of(model_cls, encoder_cls)
    if kind != target:
        dense_model, dense_encoder = MODEL_KINDS[target]
        raise ConfigurationError(
            f"{model_cls.__name__} converts {target!r} models (a "
            f"{dense_model.__name__} over a {dense_encoder.__name__}), not a "
            f"{kind!r} {type(model).__name__} over a {type(model.encoder).__name__}"
        )
    converted = model_cls(encoder_cls.sharing(model.encoder), model.n_classes)
    return _with_memory(converted, model.associative_memory.state_dict())

"""Ensemble members are built the same way they always were.

``clone_architecture`` (HDXplore's K independently-seeded members) and
``_fresh_member_like`` (shared-codebook members) are pinned here by
what they produced at commit 8acf069, before encoders reported their
own construction: for each D = 64 model family, the SHA-256 of the
clone's codebook rows drawn from ``rng=1``, the clone's model, encoder
and associative-memory classes, its memory's ``bipolar`` flag and its
codebook storage kind (clones are always drawn materialized), and the
class of a shared-codebook member, which must reuse the encoder object.
"""

import hashlib

import numpy as np
import pytest

from repro.fuzz.targets import _fresh_member_like, clone_architecture
from repro.hdc import (
    BinaryHDCClassifier,
    BinaryPixelEncoder,
    HDCClassifier,
    NgramEncoder,
    PackedBinaryHDCClassifier,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedPixelEncoder,
    PixelEncoder,
    RecordEncoder,
)

PIXEL = dict(shape=(6, 6), levels=16, dimension=64, rng=0)
RECORD = dict(levels=8, dimension=64, rng=0)
PIXEL_BOOKS = ("position_memory", "value_memory")
RECORD_BOOKS = ("id_memory", "value_memory")

#: name → (model factory, codebook attributes hashed in order)
MODELS = {
    "pixel": (lambda: HDCClassifier(PixelEncoder(**PIXEL), 3), PIXEL_BOOKS),
    "pixel-raw-am": (
        lambda: HDCClassifier(PixelEncoder(**PIXEL), 3, bipolar_am=False),
        PIXEL_BOOKS,
    ),
    "pixel-rematerialized": (
        lambda: HDCClassifier(PixelEncoder(**PIXEL, codebook="rematerialized"), 3),
        PIXEL_BOOKS,
    ),
    "binary": (lambda: BinaryHDCClassifier(BinaryPixelEncoder(**PIXEL), 3), PIXEL_BOOKS),
    "packed-bipolar": (
        lambda: PackedBipolarHDCClassifier(PackedBipolarEncoder(**PIXEL), 3),
        PIXEL_BOOKS,
    ),
    "packed-binary": (
        lambda: PackedBinaryHDCClassifier(PackedPixelEncoder(**PIXEL), 3),
        PIXEL_BOOKS,
    ),
    "ngram": (
        lambda: HDCClassifier(
            NgramEncoder(3, alphabet="abcdefgh ", dimension=64, rng=0), 3
        ),
        ("item_memory",),
    ),
    "record-linear": (lambda: HDCClassifier(RecordEncoder(5, **RECORD), 3), RECORD_BOOKS),
    "record-random": (
        lambda: HDCClassifier(RecordEncoder(5, level_encoding="random", **RECORD), 3),
        RECORD_BOOKS,
    ),
}

#: name → (codebook digest, model, encoder, AM class names, AM bipolar, codebook kind)
CLONES = {
    "pixel": (
        "8474f865c5a58ea12b2cda82123148c33ab6f2bcea4bcbdbf1c24b68a56fefc8",
        "HDCClassifier", "PixelEncoder", "AssociativeMemory", True, "materialized",
    ),
    "pixel-raw-am": (
        "8474f865c5a58ea12b2cda82123148c33ab6f2bcea4bcbdbf1c24b68a56fefc8",
        "HDCClassifier", "PixelEncoder", "AssociativeMemory", False, "materialized",
    ),
    "pixel-rematerialized": (
        "8474f865c5a58ea12b2cda82123148c33ab6f2bcea4bcbdbf1c24b68a56fefc8",
        "HDCClassifier", "PixelEncoder", "AssociativeMemory", True, "materialized",
    ),
    "binary": (
        "5c7dbc6677708c40d7289151c82a32e94d975e2d6bbcc5db88be5d65d9f5b5a6",
        "BinaryHDCClassifier", "BinaryPixelEncoder", "BinaryAssociativeMemory",
        False, "materialized",
    ),
    "packed-bipolar": (
        "8474f865c5a58ea12b2cda82123148c33ab6f2bcea4bcbdbf1c24b68a56fefc8",
        "PackedBipolarHDCClassifier", "PackedBipolarEncoder",
        "PackedBipolarAssociativeMemory", True, "materialized",
    ),
    "packed-binary": (
        "5c7dbc6677708c40d7289151c82a32e94d975e2d6bbcc5db88be5d65d9f5b5a6",
        "PackedBinaryHDCClassifier", "PackedPixelEncoder", "PackedAssociativeMemory",
        False, "materialized",
    ),
    "ngram": (
        "c5bae9585fb03631ea7348b20c464ad02dd4c9933a652307d6e9af55884458e3",
        "HDCClassifier", "NgramEncoder", "AssociativeMemory", True, "materialized",
    ),
    "record-linear": (
        "cc55fb31bf8e333c139984182588d6b6d0648acbf6316cb06ed3420069301bce",
        "HDCClassifier", "RecordEncoder", "AssociativeMemory", True, "materialized",
    ),
    "record-random": (
        "37938fcd1d9c9d937b88b6f15c5159a5af8a42e5e62f244fb00cc5850c716e9f",
        "HDCClassifier", "RecordEncoder", "AssociativeMemory", True, "materialized",
    ),
}


def _codebook_digest(encoder, attributes) -> str:
    digest = hashlib.sha256()
    for attribute in attributes:
        digest.update(np.ascontiguousarray(getattr(encoder, attribute).vectors).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_clone_draws_pinned_codebooks(name):
    factory, attributes = MODELS[name]
    clone = clone_architecture(factory(), rng=1)
    got = (
        _codebook_digest(clone.encoder, attributes),
        type(clone).__name__,
        type(clone.encoder).__name__,
        type(clone.associative_memory).__name__,
        clone.associative_memory.bipolar,
        clone.encoder.codebook,
    )
    assert got == CLONES[name]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fresh_member_shares_the_encoder(name):
    model = MODELS[name][0]()
    member = _fresh_member_like(model)
    assert type(member) is type(model)
    assert member.encoder is model.encoder
    assert member.associative_memory.bipolar == model.associative_memory.bipolar
    assert not member.is_trained


def test_pins_cover_every_model():
    assert sorted(CLONES) == sorted(MODELS)

"""Model archives saved by earlier versions keep loading and predicting.

``tests/fixtures/archives`` holds one tiny (D = 64, 3-class) ``.npz`` per
kind the loaders read, saved at commit f2e7d82, before the loaders were
rebuilt around the encoder constructors:

* ``pixel-hdc-materialized`` and ``pixel-hdc-rematerialized`` — the
  paper's bipolar pixel model (6×6 images, 16 levels), stored codebooks
  and PRF seeds;
* ``ngram-hdc`` — the trigram text model over ``"abcdefgh "``;
* ``record-hdc-linear`` — the record model with linear value levels;
* ``pixel-binary-hdc`` — the dense-binary pixel model.

``probes.npz`` holds, per archive, the probe inputs and the labels that
commit predicted for them.  Every archive must predict those labels
through its dense loader, through the CLI's kind dispatcher, and through
the packed loader of its family where one exists.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import _load_model
from repro.hdc import (
    BinaryHDCClassifier,
    HDCClassifier,
    PackedAssociativeMemory,
    PackedBinaryHDCClassifier,
    PackedBipolarAssociativeMemory,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedPixelEncoder,
)

ARCHIVES = Path(__file__).parent / "fixtures" / "archives"

#: archive name → (dense model class, packed model class or None)
FAMILIES = {
    "pixel-hdc-materialized": (HDCClassifier, PackedBipolarHDCClassifier),
    "pixel-hdc-rematerialized": (HDCClassifier, PackedBipolarHDCClassifier),
    "ngram-hdc": (HDCClassifier, None),
    "record-hdc-linear": (HDCClassifier, None),
    "pixel-binary-hdc": (BinaryHDCClassifier, PackedBinaryHDCClassifier),
}

#: packed model class → its (encoder, associative memory) classes
PACKED_PARTS = {
    PackedBipolarHDCClassifier: (PackedBipolarEncoder, PackedBipolarAssociativeMemory),
    PackedBinaryHDCClassifier: (PackedPixelEncoder, PackedAssociativeMemory),
}

CASES = [
    (name, kind)
    for name, (_, packed) in FAMILIES.items()
    for kind in ("dense", "cli", "packed")
    if kind != "packed" or packed is not None
]


@pytest.fixture(scope="module")
def probes():
    with np.load(ARCHIVES / "probes.npz") as data:
        return dict(data)


@pytest.mark.parametrize("name,kind", CASES)
def test_archive_predicts_recorded_labels(probes, name, kind):
    dense, packed = FAMILIES[name]
    path = ARCHIVES / f"{name}.npz"
    if kind == "dense":
        model = dense.load(path)
    elif kind == "cli":
        model = _load_model(path)
    else:
        model = packed.load(path)
        assert type(model) is packed
        parts = (type(model.encoder), type(model.associative_memory))
        assert parts == PACKED_PARTS[packed]
    inputs = probes[f"{name}_inputs"]
    if inputs.dtype.kind == "U":  # text probes: a list of strings
        inputs = inputs.tolist()
    np.testing.assert_array_equal(model.predict(inputs), probes[f"{name}_labels"])


def test_fixture_set_covers_every_archive():
    assert sorted(p.stem for p in ARCHIVES.glob("*.npz")) == sorted([*FAMILIES, "probes"])

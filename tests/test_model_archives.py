"""Unreadable model archives raise ConfigurationError naming the file.

Every ``.npz`` loader — both classifier families, the shared-codebook
ensemble and the kind dispatcher the CLI loads through — reads through
:func:`repro.utils.validation.open_npz`, so a byte-truncated file or
one missing a field fails with a typed error naming the path (and the
field), never a bare ``zipfile.BadZipFile`` or ``KeyError``.  Fields
that read fine but disagree with each other (a codebook with the wrong
row count or width) fail the same way, from the encoder constructors
the loaders rebuild through.
"""

import re

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fuzz.targets import SharedCodebookEnsembleTarget
from repro.hdc.archive import load_model
from repro.hdc.binary_model import BinaryHDCClassifier, BinaryPixelEncoder
from repro.hdc.encoders import NgramEncoder, RecordEncoder
from repro.hdc.model import HDCClassifier
from repro.utils.validation import open_npz


@pytest.fixture(scope="module")
def saved(tmp_path_factory, trained_model, digit_data):
    """``{loader name: (loader, path of a valid file, a key to drop)}``."""
    train, _ = digit_data
    root = tmp_path_factory.mktemp("archives")
    dense = root / "dense.npz"
    trained_model.save(dense)
    binary = root / "binary.npz"
    BinaryHDCClassifier(BinaryPixelEncoder(dimension=256, rng=3), 10).fit(
        train.images[:100], train.labels[:100]
    ).save(binary)
    ensemble = root / "ensemble.npz"
    SharedCodebookEnsembleTarget.trained_shared(
        trained_model, 2, train.images[:100], train.labels[:100], rng=5
    ).save(ensemble)
    ngram = root / "ngram.npz"
    HDCClassifier(NgramEncoder(2, alphabet="abc ", dimension=128, rng=1), 2).fit(
        ["ab ab", "ba ba", "cc c", "c cc"], [0, 0, 1, 1]
    ).save(ngram)
    record = root / "record.npz"
    HDCClassifier(RecordEncoder(4, levels=8, dimension=128, rng=2), 2).fit(
        np.linspace(0, 1, 24).reshape(6, 4), [0, 0, 0, 1, 1, 1]
    ).save(record)
    return {
        "HDCClassifier.load": (HDCClassifier.load, dense, "am_counts"),
        "BinaryHDCClassifier.load": (BinaryHDCClassifier.load, binary, "am_counts"),
        "SharedCodebookEnsembleTarget.load": (
            SharedCodebookEnsembleTarget.load, ensemble, "member1_am_counts"
        ),
        "load_model": (load_model, dense, "am_counts"),
        "HDCClassifier.load[ngram]": (HDCClassifier.load, ngram, "item_vectors"),
        "HDCClassifier.load[record]": (HDCClassifier.load, record, "id_vectors"),
    }


LOADERS = [
    "HDCClassifier.load",
    "BinaryHDCClassifier.load",
    "SharedCodebookEnsembleTarget.load",
    "load_model",
    "HDCClassifier.load[ngram]",
    "HDCClassifier.load[record]",
]


@pytest.mark.parametrize("name", LOADERS)
@pytest.mark.parametrize("cut", ["half", "10-bytes-short"])
def test_truncated_file_names_path(saved, tmp_path, name, cut):
    loader, source, _ = saved[name]
    raw = source.read_bytes()
    path = tmp_path / f"truncated-{source.name}"
    path.write_bytes(raw[: len(raw) // 2] if cut == "half" else raw[:-10])
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        loader(path)


@pytest.mark.parametrize("name", LOADERS)
def test_missing_field_names_path_and_field(saved, tmp_path, name):
    loader, source, key = saved[name]
    with np.load(source) as data:
        payload = {k: data[k] for k in data.files if k != key}
    path = tmp_path / f"missing-{source.name}"
    np.savez_compressed(path, **payload)
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}.*{key}"):
        loader(path)


#: (archive, corruption, what the error names besides the path); each
#: payload is a valid save of that archive with one field edited.
INCONSISTENT = [
    ("ngram", "short-item-codebook", "item_memory has 3 rows, expected 4"),
    ("ngram", "alphabet-longer-than-codebook", "item_memory has 4 rows, expected 5"),
    ("ngram", "codebook-width-differs-from-dimension", "item_vectors"),
    ("record", "short-id-codebook", "id_memory has 3 rows, expected 4"),
    ("record", "levels-disagree-with-value-rows", "value_memory has 8 rows, expected 9"),
    ("record", "codebook-width-differs-from-dimension", "value_vectors"),
]


def _inconsistent_payload(payload, corruption):
    if corruption == "short-item-codebook":
        payload["item_vectors"] = payload["item_vectors"][:-1]
    elif corruption == "alphabet-longer-than-codebook":
        payload["alphabet"] = np.asarray(str(payload["alphabet"]) + "d")
    elif corruption == "short-id-codebook":
        payload["id_vectors"] = payload["id_vectors"][:-1]
    elif corruption == "levels-disagree-with-value-rows":
        payload["levels"] = np.asarray(int(payload["levels"]) + 1)
    else:
        key = "item_vectors" if "item_vectors" in payload else "value_vectors"
        payload[key] = payload[key][:, :-1]
    return payload


@pytest.mark.parametrize("archive,corruption,named", INCONSISTENT)
def test_inconsistent_fields_name_path_and_field(saved, tmp_path, archive, corruption, named):
    _, source, _ = saved[f"HDCClassifier.load[{archive}]"]
    with np.load(source) as data:
        payload = _inconsistent_payload(dict(data), corruption)
    path = tmp_path / f"{corruption}-{source.name}"
    np.savez_compressed(path, **payload)
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}: .*{named}"):
        HDCClassifier.load(path)


def test_corrupt_field_bytes_name_the_field(saved, tmp_path):
    _, source, _ = saved["HDCClassifier.load"]
    raw = bytearray(source.read_bytes())
    raw[len(raw) // 3] ^= 0xFF  # inside a member's deflate stream
    path = tmp_path / "flipped.npz"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(path))}: field"):
        HDCClassifier.load(path)


def test_open_npz_rejects_missing_and_non_archive_files(tmp_path):
    with pytest.raises(ConfigurationError, match="absent.npz"):
        with open_npz(tmp_path / "absent.npz"):
            pass
    array = tmp_path / "array.npy"
    np.save(array, np.arange(3))
    with pytest.raises(ConfigurationError, match="not a .npz archive"):
        with open_npz(array):
            pass

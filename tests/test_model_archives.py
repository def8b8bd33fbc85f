"""Unreadable model archives raise ConfigurationError naming the file.

Every ``.npz`` loader — both classifier families, the shared-codebook
ensemble and the CLI's kind dispatcher — reads through
:func:`repro.utils.validation.open_npz`, so a byte-truncated file or
one missing a field fails with a typed error naming the path (and the
field), never a bare ``zipfile.BadZipFile`` or ``KeyError``.
"""

import re

import numpy as np
import pytest

from repro.cli import _load_model
from repro.errors import ConfigurationError
from repro.fuzz.targets import SharedCodebookEnsembleTarget
from repro.hdc.binary_model import BinaryHDCClassifier, BinaryPixelEncoder
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
    return {
        "HDCClassifier.load": (HDCClassifier.load, dense, "am_counts"),
        "BinaryHDCClassifier.load": (BinaryHDCClassifier.load, binary, "am_counts"),
        "SharedCodebookEnsembleTarget.load": (
            SharedCodebookEnsembleTarget.load, ensemble, "member1_am_counts"
        ),
        "cli._load_model": (_load_model, dense, "am_counts"),
    }


LOADERS = [
    "HDCClassifier.load",
    "BinaryHDCClassifier.load",
    "SharedCodebookEnsembleTarget.load",
    "cli._load_model",
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

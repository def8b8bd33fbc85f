"""Tests for the Dataset container and load_digits entry point."""

import numpy as np
import pytest

from repro.datasets.idx import MNIST_FILES, write_idx
from repro.datasets.loaders import MNIST_DIR_ENV, Dataset, find_mnist_dir, load_digits
from repro.errors import ConfigurationError, DatasetError


def _dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 8, 8)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n)
    return Dataset(images, labels, name="unit")


class TestDataset:
    def test_basic_properties(self):
        ds = _dataset(12)
        assert len(ds) == 12
        assert ds.image_shape == (8, 8)
        assert ds.n_classes >= 1

    def test_labels_coerced_int64(self):
        ds = Dataset(np.zeros((2, 4, 4), dtype=np.uint8), np.array([1.0, 2.0]))
        assert ds.labels.dtype == np.int64

    def test_float_images_in_range_coerced(self):
        ds = Dataset(np.full((1, 2, 2), 100.0), [0])
        assert ds.images.dtype == np.uint8

    def test_out_of_range_images_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.full((1, 2, 2), 300.0), [0])

    def test_wrong_rank_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((2, 2), dtype=np.uint8), [0, 1])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((2, 2, 2), dtype=np.uint8), [0])

    def test_iteration_yields_pairs(self):
        ds = _dataset(3)
        items = list(ds)
        assert len(items) == 3
        image, label = items[0]
        assert image.shape == (8, 8)
        assert isinstance(label, int)

    def test_subset_preserves_order_and_duplicates(self):
        ds = _dataset(10)
        sub = ds.subset([3, 3, 1])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.images[0], sub.images[1])

    def test_take(self):
        assert len(_dataset(10).take(4)) == 4
        assert len(_dataset(3).take(10)) == 3

    def test_split_sizes(self):
        a, b = _dataset(20).split(0.25, rng=0)
        assert len(a) == 5 and len(b) == 15

    def test_split_disjoint_and_complete(self):
        ds = _dataset(20)
        a, b = ds.split(0.5, rng=1)
        merged = np.concatenate([a.images, b.images])
        assert merged.shape[0] == 20

    def test_split_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            _dataset().split(1.0)


class TestLoadDigits:
    def test_synthetic_fallback(self, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        train, test = load_digits(n_train=30, n_test=10, seed=0)
        assert train.name == "synthetic-digits"
        assert len(train) == 30 and len(test) == 10
        assert train.image_shape == (28, 28)

    def test_deterministic(self, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        a, _ = load_digits(n_train=15, n_test=5, seed=3)
        b, _ = load_digits(n_train=15, n_test=5, seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    def test_train_test_differ(self, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        train, test = load_digits(n_train=10, n_test=10, seed=4)
        assert not np.array_equal(train.images, test.images)

    def _write_fake_mnist(self, directory, n_train=50, n_test=20):
        rng = np.random.default_rng(0)
        write_idx(directory / MNIST_FILES["train_images"],
                  rng.integers(0, 256, size=(n_train, 28, 28)).astype(np.uint8))
        write_idx(directory / MNIST_FILES["train_labels"],
                  rng.integers(0, 10, size=n_train).astype(np.uint8))
        write_idx(directory / MNIST_FILES["test_images"],
                  rng.integers(0, 256, size=(n_test, 28, 28)).astype(np.uint8))
        write_idx(directory / MNIST_FILES["test_labels"],
                  rng.integers(0, 10, size=n_test).astype(np.uint8))

    def test_real_mnist_dir_used(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        self._write_fake_mnist(tmp_path)
        train, test = load_digits(n_train=20, n_test=10, data_dir=tmp_path, seed=0)
        assert train.name == "mnist"
        assert len(train) == 20 and len(test) == 10

    def test_env_var_discovery(self, tmp_path, monkeypatch):
        self._write_fake_mnist(tmp_path)
        monkeypatch.setenv(MNIST_DIR_ENV, str(tmp_path))
        assert find_mnist_dir() == tmp_path
        train, _ = load_digits(n_train=5, n_test=5, seed=0)
        assert train.name == "mnist"

    def test_oversubscription_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        self._write_fake_mnist(tmp_path, n_train=10, n_test=5)
        with pytest.raises(DatasetError, match="provides"):
            load_digits(n_train=100, n_test=5, data_dir=tmp_path)

    def test_style_rejected_for_real_data(self, tmp_path, monkeypatch):
        from repro.datasets.synthetic_mnist import DigitStyle

        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        self._write_fake_mnist(tmp_path)
        with pytest.raises(ConfigurationError):
            load_digits(n_train=5, n_test=5, data_dir=tmp_path, style=DigitStyle())

    def test_find_mnist_dir_incomplete(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        write_idx(tmp_path / MNIST_FILES["train_images"],
                  np.zeros((1, 28, 28), dtype=np.uint8))
        assert find_mnist_dir(tmp_path) is None

    def test_find_mnist_dir_prefers_the_explicit_dir(self, tmp_path, monkeypatch):
        explicit, from_env = tmp_path / "explicit", tmp_path / "env"
        for directory in (explicit, from_env):
            directory.mkdir()
            self._write_fake_mnist(directory)
        monkeypatch.setenv(MNIST_DIR_ENV, str(from_env))
        assert find_mnist_dir(explicit) == explicit

    def test_find_mnist_dir_skips_a_missing_explicit_dir(self, tmp_path, monkeypatch):
        self._write_fake_mnist(tmp_path)
        monkeypatch.setenv(MNIST_DIR_ENV, str(tmp_path))
        assert find_mnist_dir(tmp_path / "absent") == tmp_path


class TestSaveMnistDir:
    def test_roundtrip_through_real_mnist_path(self, tmp_path, monkeypatch):
        from repro.datasets.loaders import save_mnist_dir

        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        train, test = load_digits(n_train=20, n_test=10, seed=3)
        out = save_mnist_dir(tmp_path / "export", train, test)
        assert find_mnist_dir(out) == out
        train2, test2 = load_digits(n_train=20, n_test=10, data_dir=out, seed=0)
        assert train2.name == "mnist"
        # Same underlying pool: every reloaded image exists in the export.
        assert sorted(train2.labels.tolist()) == sorted(train.labels.tolist())

    def test_gzip_variant(self, tmp_path, monkeypatch):
        from repro.datasets.loaders import save_mnist_dir

        monkeypatch.delenv(MNIST_DIR_ENV, raising=False)
        train, test = load_digits(n_train=6, n_test=4, seed=4)
        out = save_mnist_dir(tmp_path / "gz", train, test, gzip_files=True)
        assert find_mnist_dir(out) == out
        reloaded, _ = load_digits(n_train=6, n_test=4, data_dir=out, seed=0)
        assert reloaded.name == "mnist"

    def test_large_labels_rejected(self, tmp_path):
        from repro.datasets.loaders import save_mnist_dir
        from repro.errors import DatasetError

        images = np.zeros((2, 4, 4), dtype=np.uint8)
        big = Dataset(images, [0, 300])
        with pytest.raises(DatasetError, match="uint8"):
            save_mnist_dir(tmp_path / "bad", big, big)

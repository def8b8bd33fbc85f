"""Dataset container and the digit-loading entry point.

:func:`load_digits` is the one call every example, test, and bench uses:
it returns MNIST-shaped train/test splits, sourcing real MNIST IDX files
when a directory containing them is supplied (or found via the
``HDTEST_MNIST_DIR`` environment variable) and falling back to the
synthetic generator otherwise (DESIGN.md §2).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.datasets.idx import MNIST_FILES, read_idx
from repro.datasets.synthetic_mnist import DigitStyle, SyntheticDigitGenerator
from repro.errors import ConfigurationError, DatasetError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_labels, check_positive_int

__all__ = ["Dataset", "load_digits", "find_mnist_dir", "save_mnist_dir"]

#: Environment variable pointing at a directory of real MNIST IDX files.
MNIST_DIR_ENV = "HDTEST_MNIST_DIR"


@dataclass(frozen=True)
class Dataset:
    """An immutable labelled image dataset.

    Attributes
    ----------
    images:
        ``(n, H, W)`` uint8 array of grey-scale images.
    labels:
        ``(n,)`` int64 class labels.
    name:
        Human-readable provenance tag (``"synthetic-digits"`` or
        ``"mnist"``).
    """

    images: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        images = np.asarray(self.images)
        if images.ndim != 3:
            raise DatasetError(f"images must be (n, H, W), got shape {images.shape}")
        if images.dtype != np.uint8:
            if images.min() < 0 or images.max() > 255:
                raise DatasetError("image values must lie in [0, 255]")
            images = images.astype(np.uint8)
        labels = check_labels(self.labels, images.shape[0])
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    # -- basics ------------------------------------------------------------
    def __len__(self) -> int:
        return self.images.shape[0]

    def __iter__(self) -> Iterator[tuple[np.ndarray, int]]:
        for image, label in zip(self.images, self.labels):
            yield image, int(label)

    @property
    def image_shape(self) -> tuple[int, int]:
        """Spatial shape ``(H, W)``."""
        return self.images.shape[1], self.images.shape[2]

    @property
    def n_classes(self) -> int:
        """Number of distinct labels (max label + 1)."""
        return int(self.labels.max()) + 1 if len(self) else 0

    # -- slicing -----------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Select rows by index (order preserved, duplicates allowed)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx], name=self.name)

    def take(self, n: int) -> "Dataset":
        """First *n* examples."""
        return self.subset(np.arange(min(n, len(self))))

    def split(self, fraction: float, *, rng: RngLike = None) -> tuple["Dataset", "Dataset"]:
        """Random split into (``fraction``, ``1-fraction``) parts."""
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
        perm = ensure_rng(rng).permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(perm[:cut]), self.subset(perm[cut:])

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, n={len(self)}, shape={self.image_shape}, "
            f"classes={self.n_classes})"
        )


def find_mnist_dir(data_dir: Union[str, Path, None] = None) -> Optional[Path]:
    """Locate a directory with all four MNIST IDX files, or return None.

    Checks, in order: the explicit *data_dir* argument, then the
    ``HDTEST_MNIST_DIR`` environment variable.  A directory qualifies if
    it contains every file in :data:`~repro.datasets.idx.MNIST_FILES`,
    plain or ``.gz``.
    """
    candidates = []
    if data_dir is not None:
        candidates.append(Path(data_dir))
    env = os.environ.get(MNIST_DIR_ENV)
    if env:
        candidates.append(Path(env))
    for cand in candidates:
        if not cand.is_dir():
            continue
        if all(
            (cand / name).exists() or (cand / f"{name}.gz").exists()
            for name in MNIST_FILES.values()
        ):
            return cand
    return None


def _read_mnist_member(directory: Path, name: str) -> np.ndarray:
    plain = directory / name
    return read_idx(plain if plain.exists() else directory / f"{name}.gz")


def save_mnist_dir(
    directory: Union[str, Path],
    train: Dataset,
    test: Dataset,
    *,
    gzip_files: bool = False,
) -> Path:
    """Write two datasets as an MNIST-format IDX directory.

    The resulting directory satisfies :func:`find_mnist_dir`, so
    ``load_digits(data_dir=...)`` reads it back through the real-MNIST
    code path — useful for exporting the synthetic data to external
    tools, or for freezing one generated dataset across many runs.
    """
    from repro.datasets.idx import write_idx

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".gz" if gzip_files else ""
    members = {
        "train_images": train.images,
        "train_labels": train.labels.astype(np.uint8),
        "test_images": test.images,
        "test_labels": test.labels.astype(np.uint8),
    }
    if train.labels.max() > 255 or test.labels.max() > 255:
        raise DatasetError("IDX label files store uint8; labels exceed 255")
    for key, array in members.items():
        write_idx(directory / f"{MNIST_FILES[key]}{suffix}", array)
    return directory


def load_digits(
    n_train: int = 2000,
    n_test: int = 500,
    *,
    seed: int = 0,
    data_dir: Union[str, Path, None] = None,
    style: Optional[DigitStyle] = None,
) -> tuple[Dataset, Dataset]:
    """Load MNIST-shaped train/test digit datasets.

    Real MNIST IDX files are used when found (see :func:`find_mnist_dir`);
    otherwise images come from
    :class:`~repro.datasets.synthetic_mnist.SyntheticDigitGenerator`.
    Subsampling (for real MNIST) and generation (synthetic) are both
    deterministic in *seed*.

    Parameters
    ----------
    n_train, n_test:
        Number of training / test examples.
    seed:
        Root seed for generation or subsampling.
    data_dir:
        Optional directory containing real MNIST IDX files.
    style:
        Optional :class:`DigitStyle` override for the synthetic path.

    Returns
    -------
    (train, test):
        Two :class:`Dataset` objects.
    """
    n_train = check_positive_int(n_train, "n_train")
    n_test = check_positive_int(n_test, "n_test")
    mnist_dir = find_mnist_dir(data_dir)
    if mnist_dir is not None:
        if style is not None:
            raise ConfigurationError("style only applies to synthetic data")
        rng = ensure_rng(seed)
        train_images = _read_mnist_member(mnist_dir, MNIST_FILES["train_images"])
        train_labels = _read_mnist_member(mnist_dir, MNIST_FILES["train_labels"])
        test_images = _read_mnist_member(mnist_dir, MNIST_FILES["test_images"])
        test_labels = _read_mnist_member(mnist_dir, MNIST_FILES["test_labels"])
        if n_train > train_images.shape[0] or n_test > test_images.shape[0]:
            raise DatasetError(
                f"requested {n_train}/{n_test} examples but MNIST provides "
                f"{train_images.shape[0]}/{test_images.shape[0]}"
            )
        train_idx = rng.choice(train_images.shape[0], size=n_train, replace=False)
        test_idx = rng.choice(test_images.shape[0], size=n_test, replace=False)
        train = Dataset(train_images[train_idx], train_labels[train_idx], name="mnist")
        test = Dataset(test_images[test_idx], test_labels[test_idx], name="mnist")
        return train, test

    generator = SyntheticDigitGenerator(style)
    rng = ensure_rng(seed)
    train_images, train_labels = generator.dataset(n_train, rng=rng)
    test_images, test_labels = generator.dataset(n_test, rng=rng)
    return (
        Dataset(train_images, train_labels, name="synthetic-digits"),
        Dataset(test_images, test_labels, name="synthetic-digits"),
    )

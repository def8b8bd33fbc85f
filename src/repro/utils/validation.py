"""Shared argument-validation helpers.

These helpers raise the library's own exception types with messages that
name the offending parameter, so call sites stay one-liners and error
messages stay uniform across the code base.
"""

from __future__ import annotations

import zipfile
import zlib
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError, EncodingError

__all__ = [
    "check_positive_int",
    "check_positive_float",
    "check_in_choices",
    "as_image_batch",
    "check_level_rows",
    "check_labels",
    "NpzFields",
    "open_npz",
]


def check_positive_int(value: Any, name: str) -> int:
    """Return *value* as int, requiring ``value >= 1``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_positive_float(value: Any, name: str, *, allow_zero: bool = False) -> float:
    """Return *value* as float, requiring it to be positive (or >= 0)."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a float, got {type(value).__name__}") from None
    if np.isnan(out) or (out <= 0.0 and not allow_zero) or out < 0.0:
        bound = ">= 0" if allow_zero else "> 0"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return out


def check_in_choices(value: Any, name: str, choices: Sequence[Any]) -> Any:
    """Require *value* to be one of *choices* and return it."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {list(choices)}, got {value!r}")
    return value


def as_image_batch(
    images: Any,
    *,
    shape: Optional[tuple[int, int]] = None,
    name: str = "images",
) -> np.ndarray:
    """Coerce *images* into a ``(n, H, W)`` float64 batch in [0, 255].

    Accepts a single ``(H, W)`` image (promoted to a batch of one) or a
    batch.  Raises :class:`EncodingError` on wrong rank, wrong spatial
    shape (when *shape* is given), NaNs, or out-of-range values.
    """
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise EncodingError(f"{name} must have shape (H, W) or (n, H, W), got {arr.shape}")
    if shape is not None and arr.shape[1:] != tuple(shape):
        raise EncodingError(f"{name} must be {shape} images, got {arr.shape[1:]}")
    if arr.size == 0:
        raise EncodingError(f"{name} is empty")
    if np.isnan(arr).any():
        raise EncodingError(f"{name} contains NaN values")
    if arr.min() < 0.0 or arr.max() > 255.0:
        raise EncodingError(
            f"{name} values must lie in [0, 255], got range "
            f"[{arr.min():.3f}, {arr.max():.3f}]"
        )
    return arr


def check_level_rows(rows: np.ndarray, levels: int, name: str) -> None:
    """Raise :class:`EncodingError` unless every entry of *rows* lies in ``[0, levels)``.

    Codebook gathers do not check their indices, so a level outside the
    range would clip, wrap or regenerate some other row.
    """
    if rows.size:
        low, high = int(rows.min()), int(rows.max())
        if low < 0 or high >= levels:
            raise EncodingError(
                f"{name} must lie in [0, {levels}), got range [{low}, {high}]"
            )


def check_labels(labels: Any, n: int, *, name: str = "labels") -> np.ndarray:
    """Coerce *labels* to a length-*n* int64 vector of non-negative ints."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ConfigurationError(f"{name} must be a length-{n} 1-D array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ConfigurationError(f"{name} must be integers")
    arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise ConfigurationError(f"{name} must be non-negative")
    return arr


#: What numpy raises on a damaged ``.npz``: missing, truncated or
#: non-zip files, bad CRCs or deflate streams, malformed members.
_ARCHIVE_ERRORS = (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error)


class NpzFields(Mapping):
    """The fields of an open ``.npz``, read with failures that name the file.

    A missing field raises :class:`~repro.errors.ConfigurationError`
    naming the path and the field, and so does a field whose bytes do
    not decode.
    """

    def __init__(self, path: Path, archive: np.lib.npyio.NpzFile) -> None:
        self._path = path
        self._archive = archive

    def __contains__(self, key: object) -> bool:
        return key in self._archive.files

    def __iter__(self) -> Iterator[str]:
        return iter(self._archive.files)

    def __len__(self) -> int:
        return len(self._archive.files)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._archive.files:
            raise ConfigurationError(f"{self._path} has no {key!r} field")
        try:
            return self._archive[key]
        except _ARCHIVE_ERRORS as exc:
            raise ConfigurationError(
                f"{self._path}: field {key!r} is unreadable ({exc})"
            ) from exc


@contextmanager
def open_npz(path: Union[str, Path]) -> Iterator[NpzFields]:
    """Open the ``.npz`` at *path*; every read failure is typed.

    A file that is missing, truncated or not a ``.npz`` archive raises
    :class:`~repro.errors.ConfigurationError` naming *path*; so do the
    yielded fields (see :class:`NpzFields`), and so does any
    :class:`~repro.errors.ConfigurationError` or
    :class:`~repro.errors.DimensionMismatchError` raised while the
    archive is open — a loader rebuilding objects from fields that
    disagree with each other.  Pickled members are never loaded.
    """
    path = Path(path)
    unreadable = f"{path} is not a readable .npz archive"
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise ConfigurationError(f"{unreadable} ({exc})") from exc
    # The handle is ours to close: numpy leaks the file it opened itself
    # when the archive fails to parse.
    with handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except _ARCHIVE_ERRORS as exc:
            raise ConfigurationError(f"{unreadable} ({exc})") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ConfigurationError(f"{path} is a single .npy array, not a .npz archive")
        with archive:
            try:
                yield NpzFields(path, archive)
            except (ConfigurationError, DimensionMismatchError) as exc:
                if str(exc).startswith(str(path)):
                    raise
                raise ConfigurationError(f"{path}: {exc}") from exc

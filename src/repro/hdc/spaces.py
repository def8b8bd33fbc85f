"""Hypervector spaces.

A *space* fixes the dimensionality and element alphabet of hypervectors
and provides random generation.  The paper (Sec. III-A) uses bipolar
hypervectors — i.i.d. elements drawn uniformly from {-1, +1} — which
:class:`BipolarSpace` implements.  :class:`BinarySpace` ({0, 1} with XOR
binding) is provided because much of the HDC literature the paper builds
on (Rahimi et al.) uses dense binary HVs; it lets users port those
models onto HDTest unchanged.

Hypervectors are plain :class:`numpy.ndarray` rows (int8 for the
alphabets, wider ints for accumulators); there is intentionally no
wrapper class, so all of numpy composes directly.

Both alphabets also have bit-packed forms, 64 components (or sign
bits) per uint64 word:
:class:`~repro.hdc.backends.binary.PackedBinarySpace` and
:class:`~repro.hdc.backends.bipolar.PackedBipolarSpace`, which live
with their model families in :mod:`repro.hdc.backends`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["Space", "BipolarSpace", "BinarySpace", "DEFAULT_DIMENSION"]

#: Dimension used throughout the paper's experiments.
DEFAULT_DIMENSION = 10_000


class Space:
    """Base class for hypervector spaces.

    Parameters
    ----------
    dimension:
        Number of components per hypervector (``D`` in the paper).
    """

    #: Values a quantised hypervector component may take.
    alphabet: tuple[int, ...] = ()

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        self._dimension = check_positive_int(dimension, "dimension")

    @property
    def dimension(self) -> int:
        """Number of components per hypervector."""
        return self._dimension

    # -- generation ----------------------------------------------------
    def random(self, n: Optional[int] = None, *, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` i.i.d. random hypervectors (or one if ``n`` is None).

        Returns an int8 array of shape ``(dimension,)`` or
        ``(n, dimension)``.
        """
        raise NotImplementedError

    # -- structure checks ----------------------------------------------
    def check_member(self, hv: np.ndarray, *, name: str = "hv") -> np.ndarray:
        """Validate that *hv* (a vector or batch) belongs to this space."""
        arr = np.asarray(hv)
        if arr.ndim not in (1, 2):
            raise DimensionMismatchError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
        if arr.shape[-1] != self._dimension:
            raise DimensionMismatchError(
                f"{name} has dimension {arr.shape[-1]}, expected {self._dimension}"
            )
        if self.alphabet and not np.isin(arr, self.alphabet).all():
            raise ConfigurationError(
                f"{name} contains values outside the {type(self).__name__} "
                f"alphabet {self.alphabet}"
            )
        return arr

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._dimension == other._dimension  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._dimension))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dimension={self._dimension})"


class BipolarSpace(Space):
    """Hypervectors with i.i.d. components uniform over {-1, +1}.

    This is the space the paper uses: multiplication (Hadamard product)
    binds, element-wise addition bundles, and cyclic shift permutes.
    """

    alphabet = (-1, 1)

    def random(self, n: Optional[int] = None, *, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        size = (self._dimension,) if n is None else (check_positive_int(n, "n"), self._dimension)
        # 2 * Bernoulli(0.5) - 1 gives exactly i.i.d. uniform {-1, +1},
        # mapped in place: a codebook is drawn into one int8 block.
        draws = generator.integers(0, 2, size=size, dtype=np.int8)
        np.multiply(draws, 2, out=draws)
        np.subtract(draws, 1, out=draws)
        return draws


class BinarySpace(Space):
    """Hypervectors with i.i.d. components uniform over {0, 1}.

    Binding is XOR and bundling is majority vote; provided for
    compatibility with dense-binary HDC models (e.g. Rahimi et al.,
    ISLPED'16) so they can be put under HDTest too.
    """

    alphabet = (0, 1)

    def random(self, n: Optional[int] = None, *, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        size = (self._dimension,) if n is None else (check_positive_int(n, "n"), self._dimension)
        return generator.integers(0, 2, size=size, dtype=np.int8)

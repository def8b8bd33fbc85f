"""Deterministic random-number management.

Every stochastic component of the library accepts either an integer
seed, a :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises those three cases into a Generator.  :func:`spawn` derives
independent child generators so that, e.g., the dataset, the model
codebooks, and each mutation strategy draw from decorrelated streams
while the whole pipeline stays reproducible from a single root seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "RngLike",
    "ensure_rng",
    "spawn",
    "derive_seed",
    "derive_seeds",
]

#: Anything acceptable as a randomness source.
RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    Parameters
    ----------
    rng:
        ``None`` (fresh OS entropy), an ``int`` seed, a
        :class:`~numpy.random.SeedSequence`, or an existing Generator
        (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ConfigurationError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise ConfigurationError(
        f"expected None, int, SeedSequence or Generator, got {type(rng).__name__}"
    )


def derive_seeds(rng: RngLike, n: int) -> np.ndarray:
    """Draw *n* 63-bit child seeds from *rng* (the stream :func:`spawn` uses).

    Exposed separately so schedulers that must ship plain integers to
    subprocesses draw from the *same* stream as :func:`spawn` — a
    generator built from ``derive_seeds(rng, n)[i]`` equals
    ``spawn(rng, n)[i]``.
    """
    if n < 0:
        raise ConfigurationError(f"cannot derive a negative number of seeds ({n})")
    return ensure_rng(rng).integers(0, 2**63 - 1, size=n, dtype=np.int64)


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*."""
    return [np.random.default_rng(int(s)) for s in derive_seeds(rng, n)]


def derive_seed(rng: RngLike) -> int:
    """Draw one 63-bit seed from *rng* (for handing to subprocesses/logs)."""
    return int(ensure_rng(rng).integers(0, 2**63 - 1, dtype=np.int64))


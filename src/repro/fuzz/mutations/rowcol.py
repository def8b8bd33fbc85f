"""Row/column strategies: ``row_rand``, ``col_rand`` and their union.

Table I defines ``row rand`` ("randomly mutate all pixels in one single
row") and ``col rand``; Table II evaluates them jointly as
``row & col rand``.  All three are registered: the joint strategy picks
a row or a column per child with equal probability.

A ``mutate`` call draws its randomness as whole arrays — axis coins
(joint strategy only), line indices bounded by each child's axis, one
``(n, max(H, W))`` noise block — added by one row and one column scatter.
"""

from __future__ import annotations

import numpy as np

from repro.fuzz.mutations.base import (
    MutationStrategy,
    _mutate_image_common,
    register_strategy,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["RowRandom", "ColRandom", "RowColRandom"]


class _LineRandom(MutationStrategy):
    """Shared implementation: uniform noise over one full row/column."""

    axis = None  # 0: one row per child, 1: one column, None: a coin per child

    def __init__(self, amplitude: float = 30.0) -> None:
        #: noise is uniform in [-amplitude, +amplitude] grey levels.
        self.amplitude = check_positive_float(amplitude, "amplitude")

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n = check_positive_int(n, "n")
        image = _mutate_image_common(item)
        h, w = image.shape
        generator = ensure_rng(rng)
        axes = generator.integers(0, 2, n) if self.axis is None else np.full(n, self.axis)
        lines = generator.integers(0, np.where(axes == 0, h, w))
        noise = generator.uniform(-self.amplitude, self.amplitude, size=(n, max(h, w)))
        out = np.repeat(image[None], n, axis=0)
        rows, cols = np.flatnonzero(axes == 0), np.flatnonzero(axes)
        out[rows, lines[rows]] += noise[rows, :w]
        out[cols, :, lines[cols]] += noise[cols, :h]
        return np.clip(out, 0.0, 255.0)


@register_strategy
class RowRandom(_LineRandom):
    """``row_rand``: randomly mutate all pixels in one single row."""

    name = "row_rand"
    domain = "image"
    axis = 0


@register_strategy
class ColRandom(_LineRandom):
    """``col_rand``: randomly mutate all pixels in one single column."""

    name = "col_rand"
    domain = "image"
    axis = 1


@register_strategy
class RowColRandom(_LineRandom):
    """``row_col_rand``: Table II's joint "row & col rand" strategy."""

    name = "row_col_rand"
    domain = "image"

"""The ``shift`` strategy: translate the image by whole pixels.

Table I: "apply horizontal or vertical shifting to the image".  Shift
never changes pixel *values*, only their locations, which is why the
paper flags its L1/L2 numbers as not meaningful (Table II's ``*``) and
interprets its 4.25 average iterations as "4.25 pixels shifted".

Vacated pixels are filled with the background value 0 (matching how a
digit sliding out of frame behaves); a wrap-around mode is available
for study.  A ``mutate`` call draws every child's direction and step in
one draw and builds all children with one gather.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MutationError
from repro.fuzz.mutations.base import (
    MutationStrategy,
    _mutate_image_common,
    register_strategy,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_in_choices, check_positive_int

__all__ = ["Shift"]


@register_strategy
class Shift(MutationStrategy):
    """``shift``: move the whole image one or more pixels along an axis.

    Parameters
    ----------
    max_step:
        Each child shifts by a uniformly-drawn step in
        ``1..max_step`` pixels (1 by default — one pixel per fuzzing
        iteration, the paper's granularity).
    mode:
        ``"fill"`` (vacated pixels become 0, default) or ``"wrap"``
        (cyclic roll).
    """

    name = "shift"
    domain = "image"
    metric_free = True

    _DIRECTIONS = ((0, 1), (0, -1), (1, 1), (1, -1))  # (axis, sign)

    def __init__(self, max_step: int = 1, mode: str = "fill") -> None:
        self.max_step = check_positive_int(max_step, "max_step")
        self.mode = check_in_choices(mode, "mode", ("fill", "wrap"))

    def shift_once(self, image: np.ndarray, axis: int, delta: int) -> np.ndarray:
        """Shift *image* by *delta* pixels along *axis* (public helper)."""
        if axis not in (0, 1):
            raise MutationError(f"axis must be 0 or 1, got {axis}")
        return self._shifted(_mutate_image_common(image), np.array([axis]), np.array([delta]))[0]

    def _shifted(self, image: np.ndarray, axes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Child *i* is *image* shifted ``deltas[i]`` pixels along ``axes[i]``: one gather."""
        h, w = image.shape
        rows = np.arange(h)[:, None] - np.where(axes == 0, deltas, 0)[:, None, None]
        cols = np.arange(w) - np.where(axes == 1, deltas, 0)[:, None, None]
        if self.mode == "wrap":  # as np.roll
            return image[rows % h, cols % w]
        # Vacated pixels clip to the padded image's zero row or column, -1.
        padded = np.zeros((h + 1, w + 1))
        padded[:h, :w] = image
        return padded[rows.clip(-1, h), cols.clip(-1, w)]

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n = check_positive_int(n, "n")
        image = _mutate_image_common(item)
        # Bounds alternating (direction, step) give the per-child draws' stream.
        draws = ensure_rng(rng).integers((0, 1), (4, self.max_step + 1), size=(n, 2))
        axes, signs = np.array(self._DIRECTIONS)[draws[:, 0]].T
        return self._shifted(image, axes, signs * draws[:, 1])

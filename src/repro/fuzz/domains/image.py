"""Image domain: the paper's grey-scale pixel-grid modality."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.constraints import Constraint, ImageConstraint, NullConstraint
from repro.fuzz.domains.base import FuzzDomain, register_domain

__all__ = ["ImageDomain"]


@register_domain
class ImageDomain(FuzzDomain):
    """Grey-scale ``(H, W)`` images with values in [0, 255].

    The internal representation is the float64 pixel grid itself; the
    default budget is the paper's normalized ``L2 < 1``
    (:class:`~repro.fuzz.constraints.ImageConstraint`), except for
    metric-free strategies such as ``shift`` (Table II's footnote that
    distance metrics are "not meaningful" there), which default to
    :class:`~repro.fuzz.constraints.NullConstraint`.
    """

    name = "image"
    default_strategy = "gauss"

    def to_internal(self, item: Any) -> np.ndarray:
        if not isinstance(item, np.ndarray):
            raise ConfigurationError(
                f"image domain requires array inputs, got {type(item).__name__} "
                "— use the text domain for string inputs"
            )
        arr = np.asarray(item, dtype=np.float64)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"image inputs must be 2-D (H, W), got shape {arr.shape}"
            )
        return arr

    def default_constraint(self, strategy: Any) -> Constraint:
        if getattr(strategy, "metric_free", False):
            return NullConstraint()
        return ImageConstraint()

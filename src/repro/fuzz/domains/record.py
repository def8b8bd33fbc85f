"""Record domain: fixed-length feature vectors (VoiceHD-style models)."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.constraints import Constraint, NullConstraint, RecordConstraint
from repro.fuzz.domains.base import FuzzDomain, register_domain

__all__ = ["RecordDomain"]


@register_domain
class RecordDomain(FuzzDomain):
    """1-D numeric feature records (the voice/biosignal modality).

    The internal representation is the float64 record itself; the
    default budget is :class:`~repro.fuzz.constraints.RecordConstraint`
    over the record's *value_range* (``[0, 1]`` for the synthetic voice
    data), except for metric-free strategies (``record_shift``).
    """

    name = "record"
    aliases = ("voice",)
    default_strategy = "record_gauss"

    def __init__(self, value_range: tuple[float, float] = (0.0, 1.0)) -> None:
        low, high = float(value_range[0]), float(value_range[1])
        if not low < high:
            raise ConfigurationError(
                f"value_range must satisfy low < high, got {value_range}"
            )
        self.value_range = (low, high)

    @classmethod
    def for_model(cls, model: Any = None) -> "RecordDomain":
        """Adopt the model encoder's value range when it exposes one."""
        encoder = getattr(model, "encoder", None)
        value_range = getattr(encoder, "value_range", None)
        if value_range is not None:
            return cls(value_range=tuple(value_range))
        return cls()

    def to_internal(self, item: Any) -> np.ndarray:
        if not isinstance(item, np.ndarray):
            raise ConfigurationError(
                f"record domain requires array inputs, got {type(item).__name__}"
            )
        arr = np.asarray(item, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"record inputs must be 1-D feature vectors, got shape {arr.shape}"
            )
        return arr

    def default_constraint(self, strategy: Any) -> Constraint:
        if getattr(strategy, "metric_free", False):
            return NullConstraint()
        return RecordConstraint(value_range=self.value_range)

    def __repr__(self) -> str:
        return f"RecordDomain(value_range={self.value_range})"

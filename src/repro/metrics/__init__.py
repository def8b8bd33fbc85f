"""Distance, aggregation, and timing metrics for fuzzing evaluation."""

from repro.metrics.distances import (
    GREY_SCALE,
    l0_pixels,
    normalized_l1,
    normalized_l2,
    normalized_linf,
    perturbation_metrics,
)
from repro.metrics.stats import group_means
from repro.metrics.timing import Stopwatch, per_minute, per_thousand

__all__ = [
    "GREY_SCALE",
    "Stopwatch",
    "group_means",
    "l0_pixels",
    "normalized_l1",
    "normalized_l2",
    "normalized_linf",
    "per_minute",
    "per_thousand",
    "perturbation_metrics",
]

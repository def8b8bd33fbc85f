"""Shared utilities: RNG plumbing, validation, caching, core count."""

from repro.utils.cache import LRUCache
from repro.utils.cores import usable_cores
from repro.utils.rng import (
    RngLike,
    derive_seed,
    derive_seeds,
    ensure_rng,
    spawn,
)
from repro.utils.validation import (
    as_image_batch,
    check_in_choices,
    check_labels,
    check_positive_float,
    check_positive_int,
)

__all__ = [
    "LRUCache",
    "RngLike",
    "derive_seed",
    "derive_seeds",
    "ensure_rng",
    "spawn",
    "as_image_batch",
    "check_in_choices",
    "check_labels",
    "check_positive_float",
    "check_positive_int",
    "usable_cores",
]

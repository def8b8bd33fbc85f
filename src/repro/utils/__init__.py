"""Shared utilities: RNG plumbing, validation, caching, core count."""

from repro.utils.cache import LRUCache
from repro.utils.cores import usable_cores
from repro.utils.rng import (
    RngLike,
    SeedSequenceFactory,
    derive_seed,
    derive_seeds,
    ensure_rng,
    spawn,
)
from repro.utils.validation import (
    as_image_batch,
    as_single_image,
    check_in_choices,
    check_labels,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
    check_same_shape,
)

__all__ = [
    "LRUCache",
    "RngLike",
    "SeedSequenceFactory",
    "derive_seed",
    "derive_seeds",
    "ensure_rng",
    "spawn",
    "as_image_batch",
    "as_single_image",
    "check_in_choices",
    "check_labels",
    "check_non_negative_int",
    "check_positive_float",
    "check_positive_int",
    "check_probability",
    "check_same_shape",
    "usable_cores",
]

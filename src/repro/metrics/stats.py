"""Aggregation helpers used by campaign results and per-class analysis."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["group_means"]


def group_means(
    values: Sequence[float], groups: Sequence[int], *, n_groups: Optional[int] = None
) -> np.ndarray:
    """Mean of *values* within each integer group (NaN for empty groups).

    Used for the per-class analysis of Fig. 7: values are L1/L2/iteration
    counts, groups are digit classes.
    """
    vals = np.asarray(values, dtype=np.float64)
    grp = np.asarray(groups, dtype=np.int64)
    if vals.shape != grp.shape:
        raise ConfigurationError(
            f"values and groups must align, got shapes {vals.shape} vs {grp.shape}"
        )
    if n_groups is None:
        n_groups = int(grp.max()) + 1 if grp.size else 0
    out = np.full(n_groups, np.nan)
    for g in range(n_groups):
        mask = grp == g
        if mask.any():
            out[g] = vals[mask].mean()
    return out

"""Cyclic permutation ``ρ``, the one Sec. III-A operation kept on its own.

The encoders bind (``⊛``) and bundle (``⨁``) inside their own kernels —
the key ⊛ value families through
:func:`repro.hdc.encoders._blocked.fused_delta_into`, the n-gram encoder
over its pre-permuted codebooks — and the associative memories
re-bipolarise (Eq. 1) themselves.  :func:`permute` is the reference the
n-gram encoder's position shifts are tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["permute"]


def permute(hv: np.ndarray, shifts: int = 1) -> np.ndarray:
    """Cyclic shift ``ρ^shifts`` along the component axis.

    ``permute(permute(hv, k), -k) == hv`` for every ``k``; the shift
    amount may be negative or exceed the dimension (it wraps).
    """
    arr = np.asarray(hv)
    return np.roll(arr, shifts, axis=-1)

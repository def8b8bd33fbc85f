"""The key ⊛ value encoding shared by the pixel, binary-pixel and record encoders.

All three encode an input as the bundle ``Σ_k key_k ⊛ val[q(x_k)]``:
one random *key* hypervector per input slot (pixel positions, record
feature slots), one *value* hypervector per quantisation level, bound
by multiplication (bipolar) or XOR (binary).  :class:`KeyValueEncoder`
holds what they share:

* codebook set-up — key then value codebook drawn from
  ``spawn(rng, 2)``, injected ones checked by
  :func:`~repro.hdc.item_memory.check_codebook`;
* ``encode`` over the base class's blocked ``encode_batch``, the
  subclass's ``accumulate_batch`` and ``hvs_from_accumulators``;
* the incremental ``accumulate_delta``: the accumulator is a plain sum
  over slots, so a child's accumulator is its parent's plus a
  correction over only the changed slots::

      acc(child) = acc(parent) + Σ_{k: c_k ≠ s_k} key_k ⊛ (val[c_k] − val[s_k])

  computed by :func:`~repro.hdc.encoders._blocked.fused_delta_into` —
  exact in integers, so bit-identical to scratch encoding.

Subclasses supply the architecture (``ARCHITECTURE``,
``codebook_layout``), quantisation, the scratch ``accumulate_batch`` and,
for the binary algebra, the majority threshold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EncodingError
from repro.hdc.encoders._blocked import bipolar_sign, fused_delta_into
from repro.hdc.encoders.base import Encoder
from repro.hdc.item_memory import (
    ItemMemory,
    check_codebook,
    check_codebook_kind,
    make_item_memory,
)
from repro.hdc.spaces import BinarySpace
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_positive_int

__all__ = ["KeyValueEncoder"]


class KeyValueEncoder(Encoder):
    """``Σ_k key_k ⊛ val[q(x_k)]`` over a key and a value codebook.

    Parameters
    ----------
    n_keys:
        Rows of the key codebook (input slots).
    levels:
        Rows of the value codebook (quantisation levels).
    dimension:
        Hypervector dimensionality; codebooks live in ``SPACE(dimension)``.
    key_memory / value_memory:
        Optional pre-built codebooks (shared-codebook ensembles, loaded
        archives, dense ↔ packed conversions); drawn fresh when ``None``.
    rng:
        Seed/generator for fresh codebooks.
    codebook:
        Storage kind of fresh codebooks (``"materialized"`` or
        ``"rematerialized"``).
    value_type:
        Memory class of a fresh materialized value codebook (default
        :class:`~repro.hdc.item_memory.ItemMemory`).
    """

    #: Name of the key codebook (``<KEY>_memory``); the other is ``value``.
    KEY = "position"

    def __init__(
        self,
        n_keys: int,
        levels: int,
        dimension: int,
        *,
        key_memory: Optional[ItemMemory],
        value_memory: Optional[ItemMemory],
        rng: RngLike,
        codebook: str,
        value_type: Optional[type] = None,
    ) -> None:
        self._levels = check_positive_int(levels, "levels")
        self._space = self.SPACE(dimension)
        check_codebook_kind(codebook)
        key_rng, value_rng = spawn(ensure_rng(rng), 2)
        if key_memory is None:
            key_memory = make_item_memory(codebook, n_keys, self._space, rng=key_rng)
        if value_memory is None:
            value_memory = make_item_memory(
                codebook, self._levels, self._space, rng=value_rng, memory_type=value_type
            )
        self._key_memory = check_codebook(
            key_memory, n_keys, self.dimension, f"{self.KEY}_memory"
        )
        self._value_memory = check_codebook(
            value_memory, self._levels, self.dimension, "value_memory"
        )

    # -- introspection ---------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._space.dimension

    @property
    def levels(self) -> int:
        """Number of quantisation levels (value codebook rows)."""
        return self._levels

    @property
    def value_memory(self) -> ItemMemory:
        """Per-level value codebook."""
        return self._value_memory

    # -- encoding ----------------------------------------------------------
    def encode(self, item: np.ndarray) -> np.ndarray:
        """Encode one input (``ITEM_NDIM``-D) into a ``(D,)`` hypervector."""
        arr = np.asarray(item)
        if arr.ndim != self.ITEM_NDIM:
            raise EncodingError(
                f"one input must be {self.ITEM_NDIM}-D, got shape {arr.shape}"
            )
        return self.encode_batch(arr[None])[0]

    def hvs_from_accumulators(self, accumulators: np.ndarray) -> np.ndarray:
        """Eq. 1 binarization of raw accumulators (``encode_batch``'s rule).

        A component summing to exactly zero maps to +1 (deterministic
        tie-breaking, see ``Encoder.encode_batch``).  Exposed so
        incremental encoders of hypervectors (the fuzzing engines)
        apply exactly this rule rather than re-implementing it.
        """
        return bipolar_sign(accumulators)

    def accumulate_delta(
        self,
        level_batch: np.ndarray,
        parent_levels: np.ndarray,
        parent_accumulators: np.ndarray,
        *,
        result_dtype: Optional[type] = None,
    ) -> np.ndarray:
        """Accumulators of children given their parents' accumulators.

        A mutant shares most quantised levels with its parent, so only
        the changed slots contribute a correction (see the module
        docstring).  The result is elementwise equal to
        ``accumulate_batch`` on the children — at a fraction of the
        work when few levels change (``rand`` flips ~8 pixels of 784;
        even ``gauss`` leaves ~half the levels untouched).

        Parameters
        ----------
        level_batch:
            ``(n, n_keys)`` quantised child levels (see ``quantize``).
        parent_levels:
            ``(n, n_keys)`` quantised levels of each child's parent.
        parent_accumulators:
            ``(n, D)`` integer accumulators of the parents.
        result_dtype:
            Output dtype; default int64 (the public contract).  Callers
            whose accumulator storage is already exact — any dtype that
            can hold ``±n_keys``, like the engine seed pool's compact
            int16 — may pass it to keep the whole delta in that dtype,
            which cuts the block's memory traffic ~4× with bit-equal
            results.
        """
        levels = np.asarray(level_batch)
        parents = np.asarray(parent_levels)
        n_keys = self._key_memory.size
        if levels.shape != parents.shape or levels.ndim != 2:
            raise EncodingError(
                f"level_batch {levels.shape} and parent_levels {parents.shape} "
                f"must both be (n, {n_keys})"
            )
        if levels.shape[1] != n_keys:
            raise EncodingError(
                f"level rows have {levels.shape[1]} entries, expected {n_keys}"
            )
        accs = np.asarray(parent_accumulators)
        if accs.shape != (levels.shape[0], self.dimension):
            raise EncodingError(
                f"parent_accumulators {accs.shape} must be "
                f"(n={levels.shape[0]}, D={self.dimension})"
            )
        # One fused ragged scatter over the whole block: the changed
        # (child, slot) pairs become flat COO indices and the bounded
        # corrections are summed per child through cache-resident tiles.
        return fused_delta_into(
            accs.astype(result_dtype or np.int64, copy=True),
            self._key_memory,
            self._value_memory,
            levels,
            parents,
            binary=self.SPACE is BinarySpace,
        )

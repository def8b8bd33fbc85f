"""Text-domain mutation strategies.

Sec. V-E claims HDTest "can be naturally extended to other HDC model
structures because it considers a general greybox assumption with only
HV distance information".  These strategies realise that claim for the
n-gram language classifier: the same Alg. 1 loop, fitness, and oracle
run unchanged — only the mutation domain differs.

All strategies preserve string length (substitution / transposition),
so perturbation size is simply the Hamming distance in characters,
which :class:`~repro.fuzz.constraints.TextConstraint` budgets.

Strategies mutate the text domain's internal representation: a 1-D
integer code array (indices into the alphabet), returning an ``(n, L)``
code block.  :class:`~repro.fuzz.domains.text.TextDomain` turns strings
into codes on the way in and back on the way out.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MutationError
from repro.fuzz.mutations.base import MutationStrategy, register_strategy
from repro.hdc.encoders.ngram import DEFAULT_ALPHABET
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["CharSubstitution", "CharTransposition"]


def _check_codes(item: np.ndarray) -> np.ndarray:
    arr = np.asarray(item)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise MutationError(
            f"text code arrays must be 1-D integer, got {arr.dtype} {arr.shape}"
        )
    if arr.size == 0:
        raise MutationError("cannot mutate an empty code array")
    return arr


@register_strategy
class CharSubstitution(MutationStrategy):
    """``char_sub``: replace a few characters with random alphabet members.

    Parameters
    ----------
    chars_per_step:
        Number of (distinct) positions substituted per child.
    alphabet:
        Replacement alphabet; defaults to the n-gram encoder's.  Code
        arrays draw replacement codes in ``[0, len(alphabet))``, so the
        strategy alphabet must match the fuzzing domain's.
    """

    name = "char_sub"
    domain = "text"

    def __init__(self, chars_per_step: int = 4, alphabet: str = DEFAULT_ALPHABET) -> None:
        self.chars_per_step = check_positive_int(chars_per_step, "chars_per_step")
        if not alphabet:
            raise MutationError("alphabet must be non-empty")
        self.alphabet = alphabet

    def _mutate_codes(
        self, codes: np.ndarray, n: int, generator: np.random.Generator
    ) -> np.ndarray:
        k = min(self.chars_per_step, codes.size)
        out = np.repeat(codes[None], n, axis=0)
        n_symbols = len(self.alphabet)
        for child in range(n):
            positions = generator.choice(codes.size, size=k, replace=False)
            out[child, positions] = generator.integers(0, n_symbols, size=k)
        return out

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n = check_positive_int(n, "n")
        return self._mutate_codes(_check_codes(item), n, ensure_rng(rng))


@register_strategy
class CharTransposition(MutationStrategy):
    """``char_swap``: swap a few adjacent character pairs (typo model)."""

    name = "char_swap"
    domain = "text"

    def __init__(self, swaps_per_step: int = 1) -> None:
        self.swaps_per_step = check_positive_int(swaps_per_step, "swaps_per_step")

    def _mutate_codes(
        self, codes: np.ndarray, n: int, generator: np.random.Generator
    ) -> np.ndarray:
        out = np.repeat(codes[None], n, axis=0)
        for child in range(n):
            for _ in range(self.swaps_per_step):
                pos = int(generator.integers(0, codes.size - 1))
                out[child, pos], out[child, pos + 1] = (
                    out[child, pos + 1],
                    out[child, pos],
                )
        return out

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n = check_positive_int(n, "n")
        codes = _check_codes(item)
        if codes.size < 2:
            raise MutationError("transposition requires at least two characters")
        return self._mutate_codes(codes, n, ensure_rng(rng))

"""Text domain: length-preserving strings as uint8 code arrays.

Strings enter the engines once, as arrays of *alphabet codes* (the same
indices the :class:`~repro.hdc.encoders.ngram.NgramEncoder` codebook
uses), and leave once, decoded back to strings on a successful flip.
In between, mutation, clipping, the character-Hamming budget, the
dedupe-cache keys, and the incremental n-gram encoder all vectorize
over ``(n, L)`` uint8 blocks exactly like pixels do — which is what
lets the lock-step batched engine run text campaigns at full speed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.constraints import Constraint, TextConstraint
from repro.fuzz.domains.base import FuzzDomain, register_domain
from repro.hdc.encoders.ngram import DEFAULT_ALPHABET

__all__ = ["TextDomain"]


@register_domain
class TextDomain(FuzzDomain):
    """Equal-length strings over a fixed alphabet.

    Parameters
    ----------
    alphabet:
        Permitted characters; internal codes are indices into it, so it
        must match the model encoder's alphabet (``for_model`` reads it
        off the encoder automatically).
    unknown_policy:
        What to do with out-of-alphabet characters in raw inputs:
        ``"raise"`` (default) or ``"map"`` (replace with the last
        alphabet symbol, mirroring the n-gram encoder's ``"map"``
        policy).  The encoder's ``"skip"`` policy cannot be represented
        length-preservingly and resolves to ``"raise"`` here.
    """

    name = "text"
    default_strategy = "char_sub"

    def __init__(
        self,
        alphabet: str = DEFAULT_ALPHABET,
        *,
        unknown_policy: str = "raise",
    ) -> None:
        if not alphabet:
            raise ConfigurationError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ConfigurationError("alphabet contains duplicate characters")
        if len(alphabet) > 256:
            raise ConfigurationError(
                f"alphabet has {len(alphabet)} symbols; uint8 codes support at most 256"
            )
        if unknown_policy not in ("raise", "map"):
            raise ConfigurationError(
                f"unknown_policy must be 'raise' or 'map', got {unknown_policy!r}"
            )
        self.alphabet = alphabet
        self.unknown_policy = unknown_policy
        self._char_to_code = {ch: i for i, ch in enumerate(alphabet)}

    @classmethod
    def for_model(cls, model: Any = None) -> "TextDomain":
        """Adopt the model encoder's alphabet and unknown policy."""
        encoder = getattr(model, "encoder", None)
        alphabet = getattr(encoder, "alphabet", None)
        if not isinstance(alphabet, str) or not alphabet:
            return cls()
        policy = getattr(encoder, "unknown_policy", "raise")
        return cls(alphabet, unknown_policy="map" if policy == "map" else "raise")

    def to_internal(self, item: Any) -> np.ndarray:
        if isinstance(item, np.ndarray):
            # Already in code form (idempotent re-entry, e.g. campaign
            # plumbing handing internal rows back to the engine).
            arr = np.asarray(item)
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                raise ConfigurationError(
                    f"text code arrays must be 1-D integer, got {arr.dtype} {arr.shape}"
                )
            if arr.size and (
                int(arr.max()) >= len(self.alphabet) or int(arr.min()) < 0
            ):
                raise ConfigurationError(
                    f"codes must lie in [0, {len(self.alphabet) - 1}], got range "
                    f"[{int(arr.min())}, {int(arr.max())}]"
                )
            return arr.astype(np.uint8, copy=False)
        if not isinstance(item, str):
            raise ConfigurationError(
                f"text domain requires str inputs, got {type(item).__name__}"
            )
        if not item:
            raise ConfigurationError("cannot fuzz an empty string")
        codes = np.empty(len(item), dtype=np.uint8)
        fallback = len(self.alphabet) - 1
        for i, ch in enumerate(item):
            code = self._char_to_code.get(ch)
            if code is None:
                if self.unknown_policy == "raise":
                    raise ConfigurationError(
                        f"character {ch!r} not in the fuzzing alphabet "
                        f"(policy 'map' substitutes the last symbol instead)"
                    )
                code = fallback
            codes[i] = code
        return codes

    def to_external(self, internal: np.ndarray) -> str:
        return "".join(self.alphabet[c] for c in np.asarray(internal).tolist())

    def stack(self, inputs) -> np.ndarray:
        rows = [self.to_internal(item) for item in inputs]
        lengths = {row.shape[0] for row in rows}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"text inputs must share one length to batch, got lengths "
                f"{sorted(lengths)}"
            )
        return np.stack(rows)

    def default_constraint(self, strategy: Any) -> Constraint:
        return TextConstraint()

    def validate_strategy(self, strategy: Any) -> None:
        """Strategies drawing replacement codes must share this alphabet.

        A substitution strategy draws codes in ``[0, len(its alphabet))``
        and the domain decodes them through *its* alphabet, so a
        mismatch would silently substitute the wrong characters (or
        out-of-range codes).  Catch it at engine construction instead
        of mid-campaign.
        """
        other = getattr(strategy, "alphabet", None)
        if other is not None and other != self.alphabet:
            raise ConfigurationError(
                f"strategy {strategy.name!r} uses a {len(other)}-symbol "
                f"alphabet but the text domain (from the model's encoder) uses "
                f"{len(self.alphabet)} symbols — construct the strategy with "
                f"alphabet matching the encoder's, e.g. "
                f"CharSubstitution(alphabet=model.encoder.alphabet)"
            )

    def __repr__(self) -> str:
        return (
            f"TextDomain(alphabet_size={len(self.alphabet)}, "
            f"unknown_policy={self.unknown_policy!r})"
        )

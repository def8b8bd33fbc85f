"""Encoder interface.

An encoder maps raw inputs (images, feature records, strings, …) to
bipolar hypervectors.  The fuzzer and the classifier only rely on this
interface, which is what makes HDTest "naturally extendable to other
HDC model structures" (Sec. V-E): plugging in a different encoder is the
whole port.

An encoder also reports what rebuilds it — its *construction surface*:
:meth:`Encoder.architecture` (the constructor keywords that fix shape,
levels, dimension, alphabet, value range, …) and
:meth:`Encoder.codebooks` (its named codebooks, each injectable as the
``<name>_memory=`` keyword).  Ensemble clones
(:func:`repro.fuzz.targets.clone_architecture`), shared-codebook members,
the dense ↔ packed conversions and model archives
(:mod:`repro.hdc.archive`) are all built from these two reports, so no
other module re-derives an encoder's constructor arguments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hdc.encoders._blocked import block_rows
from repro.hdc.item_memory import ItemMemory, codebook_kind
from repro.hdc.spaces import BipolarSpace, Space

__all__ = ["Encoder"]


class Encoder(ABC):
    """Maps raw inputs to bipolar hypervectors of a fixed dimension."""

    #: Constructor keywords that fix the architecture, each also readable
    #: as an attribute — everything except the codebooks, ``rng`` and the
    #: storage kind.  Empty: the encoder cannot be cloned, converted or saved.
    ARCHITECTURE: tuple[str, ...] = ()
    #: Space the codebooks are drawn from.
    SPACE: type[Space] = BipolarSpace
    #: Rank of one raw input given as an array (a record or code row is
    #: 1-D, an image 2-D); :meth:`encode_batch` reads such an array as
    #: a batch of one.
    ITEM_NDIM = 1

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Dimensionality of produced hypervectors."""

    @abstractmethod
    def encode(self, item: Any) -> np.ndarray:
        """Encode a single input into a bipolar ``(D,)`` int8 hypervector."""

    def encode_batch(self, items: Sequence[Any]) -> np.ndarray:
        """Encode a batch of inputs into an ``(n, D)`` stack.

        An encoder exposing ``accumulate_batch`` encodes in blocks of
        :func:`~repro.hdc.encoders._blocked.block_rows` inputs, each
        ``hvs_from_accumulators(accumulate_batch(block))``, written into
        one preallocated result — so a scratch encode's working set
        stays one block wide however many inputs it encodes.  Eq. 1's
        tie-break is deterministic (see ``hvs_from_accumulators``):
        the fuzzer re-encodes the same input many times, and random
        tie-breaking would make predictions flicker without any input
        change, breaking the differential oracle.  Other encoders loop
        over :meth:`encode`.
        """
        if not hasattr(self, "accumulate_batch"):
            encoded = [self.encode(item) for item in items]
            if not encoded:
                return np.empty((0, self.dimension), dtype=np.int8)
            return np.stack(encoded).astype(np.int8, copy=False)
        if isinstance(items, np.ndarray) and items.ndim == self.ITEM_NDIM:
            items = items[None]
        n, step = len(items), block_rows(self.dimension)
        if n <= step:
            return self.hvs_from_accumulators(self.accumulate_batch(items))
        out = None
        for lo in range(0, n, step):
            hvs = self.hvs_from_accumulators(self.accumulate_batch(items[lo : lo + step]))
            if out is None:
                out = np.empty((n,) + hvs.shape[1:], dtype=hvs.dtype)
            out[lo : lo + hvs.shape[0]] = hvs
        return out

    # -- construction surface ------------------------------------------------
    def architecture(self) -> dict[str, Any]:
        """Constructor keywords rebuilding this architecture.

        ``type(enc)(**enc.architecture(), rng=seed)`` draws an encoder of
        the same architecture with fresh (materialized) codebooks.
        """
        if not self.ARCHITECTURE:
            raise ConfigurationError(
                f"{type(self).__name__} does not report its architecture, so it "
                "cannot be cloned, converted or saved"
            )
        return {key: getattr(self, key) for key in self.ARCHITECTURE}

    @classmethod
    def codebook_layout(cls, **architecture: Any) -> dict[str, tuple[int, type]]:
        """``{name: (rows, memory type)}`` of the codebooks *architecture* holds.

        Each codebook is injectable as the ``<name>_memory=`` constructor
        keyword and readable as the ``<name>_memory`` attribute.  Loaders
        size seed-only codebooks from this before the encoder exists.
        """
        return {}

    def codebooks(self) -> dict[str, ItemMemory]:
        """This encoder's codebook objects by name (shared, not copied)."""
        return {
            name: getattr(self, f"{name}_memory")
            for name in self.codebook_layout(**self.architecture())
        }

    @property
    def codebook(self) -> str:
        """Codebook storage kind, by the first codebook's actual storage."""
        return codebook_kind(next(iter(self.codebooks().values())))

    @classmethod
    def sharing(cls, encoder: "Encoder") -> "Encoder":
        """A *cls* encoder around *encoder*'s architecture and codebook objects.

        Exact — the codebooks are shared, not copied — which is how the
        dense and packed forms of one family convert into each other;
        *encoder* must have *cls*'s architecture and codebook space.
        """
        if (encoder.SPACE, encoder.ARCHITECTURE) != (cls.SPACE, cls.ARCHITECTURE):
            raise ConfigurationError(
                f"{cls.__name__} cannot share the codebooks of a "
                f"{type(encoder).__name__}"
            )
        memories = {f"{name}_memory": memory for name, memory in encoder.codebooks().items()}
        return cls(**encoder.architecture(), **memories)

"""Hyperdimensional-computing core: spaces, encoders, memories, models.

This subpackage is a from-scratch implementation of the HDC model
family described in Sec. III of the paper (and of the binary/dense
variants it cites), sufficient to train the paper's MNIST classifier
and to expose the grey-box surface HDTest fuzzes.  Binding and bundling
live inside the encoders' kernels and quantisation inside the
associative memories; the permutation ``ρ`` (:func:`permute`) and the
cosine similarity (:func:`cosine`, :func:`cosine_matrix`) are exported
on their own.
"""

from repro.hdc.associative_memory import AssociativeMemory
from repro.hdc.backends import (
    PackedAssociativeMemory,
    PackedBinaryHDCClassifier,
    PackedBinarySpace,
    PackedBipolarAssociativeMemory,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedBipolarSpace,
    PackedPixelEncoder,
    pack_bits,
    pack_signs,
    resolve_model_backend,
    unpack_bits,
    unpack_signs,
)
from repro.hdc.binary_model import (
    BinaryAssociativeMemory,
    BinaryHDCClassifier,
    BinaryPixelEncoder,
)
from repro.hdc.encoders import (
    DEFAULT_ALPHABET,
    Encoder,
    NgramEncoder,
    PermutationImageEncoder,
    PixelEncoder,
    RecordEncoder,
)
from repro.hdc.item_memory import ItemMemory, LevelMemory
from repro.hdc.model import HDCClassifier
from repro.hdc.ops import permute
from repro.hdc.similarity import cosine, cosine_matrix
from repro.hdc.spaces import DEFAULT_DIMENSION, BinarySpace, BipolarSpace, Space

__all__ = [
    "AssociativeMemory",
    "BinaryAssociativeMemory",
    "BinaryHDCClassifier",
    "BinaryPixelEncoder",
    "BinarySpace",
    "BipolarSpace",
    "DEFAULT_ALPHABET",
    "DEFAULT_DIMENSION",
    "Encoder",
    "HDCClassifier",
    "ItemMemory",
    "LevelMemory",
    "NgramEncoder",
    "PackedAssociativeMemory",
    "PackedBinaryHDCClassifier",
    "PackedBinarySpace",
    "PackedBipolarAssociativeMemory",
    "PackedBipolarEncoder",
    "PackedBipolarHDCClassifier",
    "PackedBipolarSpace",
    "PackedPixelEncoder",
    "PermutationImageEncoder",
    "PixelEncoder",
    "RecordEncoder",
    "Space",
    "cosine",
    "cosine_matrix",
    "pack_bits",
    "pack_signs",
    "permute",
    "resolve_model_backend",
    "unpack_bits",
    "unpack_signs",
]

"""Bit-packed hypervectors: word kernels and the two packed model families.

This subpackage holds everything needed to run both dense model
families — the paper's bipolar family *and* the Rahimi-style binary
family — 8× smaller and several times faster than their
byte-per-component forms.  Four model families exist in total, two
dense and two packed, pairwise bit-identical:

========================  ===================================  =============================================
family                    dense home                           packed counterpart (here)
========================  ===================================  =============================================
bipolar {-1, +1}          :mod:`repro.hdc.model`               :mod:`~repro.hdc.backends.bipolar`
                          (``HDCClassifier``)                  (``PackedBipolarHDCClassifier``)
binary {0, 1}             :mod:`repro.hdc.binary_model`        :mod:`~repro.hdc.backends.binary`
                          (``BinaryHDCClassifier``)            (``PackedBinaryHDCClassifier``)
========================  ===================================  =============================================

Modules:

* :mod:`~repro.hdc.backends.packed` — the word-level kernel module:
  ``pack_bits`` / ``unpack_bits`` (and the bipolar ``pack_signs`` /
  ``unpack_signs`` / ``sign_words``), popcount (hardware
  ``numpy.bitwise_count`` with a SWAR fallback), carry-save
  ``bit_sliced_counts`` bundling (the packed memories' updates), and
  the Hamming-count / binary-cosine / bipolar-cosine query kernels;
* :mod:`~repro.hdc.backends.binary` — the packed dense-binary family
  (:class:`PackedBinarySpace`, :class:`PackedPixelEncoder`,
  :class:`PackedAssociativeMemory`, :class:`PackedBinaryHDCClassifier`)
  — bit-identical to :mod:`repro.hdc.binary_model`, property-tested;
* :mod:`~repro.hdc.backends.bipolar` — the packed bipolar family
  (:class:`PackedBipolarSpace`, :class:`PackedBipolarEncoder`,
  :class:`PackedBipolarAssociativeMemory`,
  :class:`PackedBipolarHDCClassifier`) — bit-identical to the paper's
  model in :mod:`repro.hdc.model`, property-tested;
* :mod:`~repro.hdc.backends.dispatch` — ``resolve_model_backend``, the
  campaign-level repackaging behind the CLI's
  ``--backend dense|packed|packed-bipolar`` flag.

The cross-family differential conformance suite
(``tests/hdc/backends/test_conformance.py``) runs the shared
train/predict/save/load/retrain/copy properties across all four
families so the pairs cannot drift apart.
"""

from repro.hdc.backends.binary import (
    PackedAssociativeMemory,
    PackedBinaryHDCClassifier,
    PackedBinarySpace,
    PackedPixelEncoder,
)
from repro.hdc.backends.bipolar import (
    PackedBipolarAssociativeMemory,
    PackedBipolarEncoder,
    PackedBipolarHDCClassifier,
    PackedBipolarSpace,
)
from repro.hdc.backends.dispatch import resolve_model_backend
from repro.hdc.backends.packed import (
    bit_counts,
    bit_sliced_counts,
    cosine_matrix_packed_bipolar,
    hamming_counts,
    pack_bits,
    pack_signs,
    packed_words,
    popcount,
    unpack_bits,
    unpack_signs,
    using_hardware_popcount,
)

__all__ = [
    "PackedAssociativeMemory",
    "PackedBinaryHDCClassifier",
    "PackedBinarySpace",
    "PackedBipolarAssociativeMemory",
    "PackedBipolarEncoder",
    "PackedBipolarHDCClassifier",
    "PackedBipolarSpace",
    "PackedPixelEncoder",
    "bit_counts",
    "bit_sliced_counts",
    "cosine_matrix_packed_bipolar",
    "hamming_counts",
    "pack_bits",
    "pack_signs",
    "packed_words",
    "popcount",
    "resolve_model_backend",
    "unpack_bits",
    "unpack_signs",
    "using_hardware_popcount",
]

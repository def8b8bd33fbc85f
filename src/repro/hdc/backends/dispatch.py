"""Campaign-level model representation selection.

:func:`resolve_model_backend` is the entry point wired through
``compare_strategies`` / ``generate_adversarial_set`` and the CLI's
``--backend`` flag: it re-targets a dense classifier onto the matching
packed representation — ``"packed"`` for the dense-binary family,
``"packed-bipolar"`` for the paper's bipolar family — (an exact
repackaging — predictions are bit-identical) or returns it untouched
for ``"dense"``.  The packed families call the numpy word kernels of
:mod:`repro.hdc.backends.packed` directly.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ConfigurationError

__all__ = ["resolve_model_backend"]


#: CLI vocabulary: the unpacked model families plus their packed forms.
MODEL_BACKEND_CHOICES = ("dense", "packed", "packed-bipolar")


def resolve_model_backend(
    model: Any, backend: Optional[str]
) -> Any:
    """Re-target *model* for the requested compute backend.

    * ``None`` / ``"dense"`` — return the model unchanged (bipolar and
      binary families run their existing unpacked paths; an
      already-packed classifier also passes through).
    * ``"packed"`` — repackage a dense-binary classifier
      (:class:`~repro.hdc.binary_model.BinaryHDCClassifier`) onto the
      packed binary family.
    * ``"packed-bipolar"`` — repackage the paper's bipolar classifier
      (:class:`~repro.hdc.model.HDCClassifier` with a pixel encoder and
      a bipolarised AM) onto
      :class:`~repro.hdc.backends.bipolar.PackedBipolarHDCClassifier`.

    Every conversion is exact: predictions, similarities, and fuzzing
    outcomes are bit-identical (property-tested).  A classifier already
    in the requested packed family is returned unchanged; requesting a
    backend for the wrong family raises
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.hdc.backends.binary import PackedBinaryHDCClassifier
    from repro.hdc.backends.bipolar import PackedBipolarHDCClassifier
    from repro.hdc.binary_model import BinaryHDCClassifier
    from repro.hdc.model import HDCClassifier

    if backend is None or backend == "dense":
        return model
    if backend not in MODEL_BACKEND_CHOICES:
        raise ConfigurationError(
            f"unknown model backend {backend!r}; choose one of {MODEL_BACKEND_CHOICES}"
        )
    if backend == "packed-bipolar":
        if isinstance(model, PackedBipolarHDCClassifier):
            return model
        # The binary family subclasses HDCClassifier, so it is rejected first.
        if isinstance(model, BinaryHDCClassifier) or not isinstance(model, HDCClassifier):
            raise ConfigurationError(
                f"backend 'packed-bipolar' requires the paper's bipolar model "
                f"family (HDCClassifier); got {type(model).__name__} — "
                "binary-family models pack with backend='packed'"
            )
        return PackedBipolarHDCClassifier.from_dense(model)
    if isinstance(model, PackedBinaryHDCClassifier):
        return model
    if isinstance(model, BinaryHDCClassifier):
        return PackedBinaryHDCClassifier.from_binary(model)
    raise ConfigurationError(
        f"backend {backend!r} requires the dense-binary model family "
        f"(BinaryHDCClassifier); got {type(model).__name__} — train with "
        "--family binary, or pack the paper's bipolar family with "
        "backend='packed-bipolar'"
    )

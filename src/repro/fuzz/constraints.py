"""Perturbation constraints (Sec. IV).

"To ensure the added perturbations are within an 'invisible' range, we
set a threshold for the distance metric during fuzzing (e.g., L2 < 1).
When generated images are beyond this limit, it is regarded as
unacceptable and then discarded.  This constraint can be modified by the
user" — this module is that user-modifiable budget.

A constraint knows its input domain: it can *clip* candidates into the
valid input space, *accept/reject* them against the distance budget
relative to the original, *measure* the final perturbation for
reporting, and rank candidates by the size of their perturbation
(:meth:`Constraint.perturbation_sizes`), which is how the engine picks
the least-perturbed discrepancy and orders an iteration's encodes.
:class:`ImageConstraint` implements the paper's normalized
L1/L2 budgets; :class:`TextConstraint` budgets character edits for the
text modality; :class:`NullConstraint` disables budgeting (what the
``shift`` strategy uses by default, per Table II's footnote that
distance metrics are "not meaningful" for shift).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ConstraintError
from repro.metrics.distances import GREY_SCALE, perturbation_metrics
from repro.utils.validation import check_positive_float

__all__ = [
    "Constraint",
    "ImageConstraint",
    "NullConstraint",
    "RecordConstraint",
    "TextConstraint",
]


class Constraint(ABC):
    """Perturbation budget + domain glue for one input modality."""

    @abstractmethod
    def clip(self, candidates: Any) -> Any:
        """Project candidates into the valid input space (e.g. [0, 255])."""

    @abstractmethod
    def accept(self, original: Any, candidates: Any) -> np.ndarray:
        """Boolean mask of candidates whose perturbation is within budget."""

    @abstractmethod
    def measure(self, original: Any, candidate: Any) -> dict[str, float]:
        """Perturbation metrics of one candidate (for reporting)."""

    def perturbation_sizes(self, original: Any, candidates: Any) -> np.ndarray:
        """Each candidate's perturbation size: ``measure``'s l2, else edits, else 0.

        The engine reports the least-perturbed discrepancy by this size
        (ties to the lower candidate) and encodes an iteration's
        children smallest first.  The image and null constraints
        override it with a vectorised form equal to this loop bit for
        bit.
        """
        sizes = np.empty(len(candidates))
        for j, candidate in enumerate(candidates):
            metrics = self.measure(original, candidate)
            sizes[j] = metrics.get("l2", metrics.get("edits", 0.0))
        return sizes


def _grey_l2(original: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Each candidate's ``perturbation_metrics`` ``l2``, bit for bit.

    ``np.linalg.norm`` takes ``sqrt(x.dot(x))`` of one flattened delta;
    each row here is summed the same way (an ``axis=1`` norm sums in
    another order, so it could rank near-ties differently).
    """
    cand = np.asarray(candidates, dtype=np.float64)
    delta = (cand - np.asarray(original, dtype=np.float64)) / GREY_SCALE
    return np.sqrt([row.dot(row) for row in delta.reshape(len(cand), -1)])


class ImageConstraint(Constraint):
    """Normalized-distance budget for grey-scale images.

    Parameters
    ----------
    max_l2:
        Reject candidates with normalized L2 distance above this (the
        paper's example budget is 1.0).  ``None`` disables the check.
    max_l1:
        Optional normalized L1 budget (off by default; the paper only
        quotes the L2 form).
    max_linf:
        Optional per-pixel budget in [0, 1] units.
    """

    def __init__(
        self,
        max_l2: Optional[float] = 1.0,
        max_l1: Optional[float] = None,
        max_linf: Optional[float] = None,
    ) -> None:
        for name, value in (("max_l2", max_l2), ("max_l1", max_l1), ("max_linf", max_linf)):
            if value is not None:
                check_positive_float(value, name)
        if max_l2 is None and max_l1 is None and max_linf is None:
            raise ConstraintError(
                "all budgets are None — use NullConstraint to disable budgeting"
            )
        self.max_l2 = max_l2
        self.max_l1 = max_l1
        self.max_linf = max_linf

    def clip(self, candidates: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(candidates, dtype=np.float64), 0.0, 255.0)

    def accept(self, original: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        orig = np.asarray(original, dtype=np.float64)
        cand = np.asarray(candidates, dtype=np.float64)
        if cand.ndim == 2:
            cand = cand[None]
        if cand.shape[1:] != orig.shape:
            raise ConstraintError(
                f"candidates {cand.shape[1:]} do not match original {orig.shape}"
            )
        delta = (cand - orig[None]) / 255.0
        flat = delta.reshape(cand.shape[0], -1)
        mask = np.ones(cand.shape[0], dtype=bool)
        if self.max_l2 is not None:
            mask &= np.linalg.norm(flat, axis=1) <= self.max_l2
        if self.max_l1 is not None:
            mask &= np.abs(flat).sum(axis=1) <= self.max_l1
        if self.max_linf is not None:
            mask &= np.abs(flat).max(axis=1) <= self.max_linf
        return mask

    def measure(self, original: np.ndarray, candidate: np.ndarray) -> dict[str, float]:
        return perturbation_metrics(original, candidate)

    def perturbation_sizes(
        self, original: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        return _grey_l2(original, candidates)

    def __repr__(self) -> str:
        return (
            f"ImageConstraint(max_l2={self.max_l2}, max_l1={self.max_l1}, "
            f"max_linf={self.max_linf})"
        )


class TextConstraint(Constraint):
    """Character-Hamming budget for length-preserving text mutation.

    Accepts candidates whose Hamming distance (number of differing
    character positions) stays within *max_edits*.  Works on strings
    and on the text domain's uint8 code arrays alike; the array form is
    fully vectorized across candidates, mirroring the image budget.

    Text mutation is length-preserving by contract, so unequal-length
    original/candidate pairs are a configuration bug, not a rejectable
    mutant — they raise :class:`~repro.errors.ConfigurationError`
    instead of being silently scored or broadcast.
    """

    def __init__(self, max_edits: int = 30) -> None:
        if max_edits < 1:
            raise ConstraintError(f"max_edits must be >= 1, got {max_edits}")
        self.max_edits = int(max_edits)

    @staticmethod
    def _edits(original: str, candidate: str) -> float:
        if len(original) != len(candidate):
            raise ConfigurationError(
                f"text mutation must preserve length: original has "
                f"{len(original)} characters, candidate {len(candidate)}"
            )
        return float(sum(a != b for a, b in zip(original, candidate)))

    @staticmethod
    def _as_code_rows(original, candidates) -> tuple[np.ndarray, np.ndarray]:
        orig = np.asarray(original)
        cand = np.asarray(candidates)
        if cand.ndim == 1:
            cand = cand[None]
        if orig.ndim != 1 or cand.ndim != 2:
            raise ConfigurationError(
                f"expected a (L,) original and (n, L) candidates, got "
                f"{orig.shape} and {np.asarray(candidates).shape}"
            )
        if cand.shape[1] != orig.shape[0]:
            raise ConfigurationError(
                f"text mutation must preserve length: original has "
                f"{orig.shape[0]} characters, candidates {cand.shape[1]}"
            )
        return orig, cand

    def clip(self, candidates: Any) -> Any:
        return candidates

    def accept(self, original: Any, candidates: Any) -> np.ndarray:
        if isinstance(original, np.ndarray) or isinstance(candidates, np.ndarray):
            orig, cand = self._as_code_rows(original, candidates)
            return (cand != orig[None]).sum(axis=1) <= self.max_edits
        return np.asarray(
            [self._edits(original, cand) <= self.max_edits for cand in candidates],
            dtype=bool,
        )

    def measure(self, original: Any, candidate: Any) -> dict[str, float]:
        if isinstance(original, np.ndarray) or isinstance(candidate, np.ndarray):
            orig, cand = self._as_code_rows(original, candidate)
            return {"edits": float((cand[0] != orig).sum())}
        return {"edits": self._edits(original, candidate)}

    def __repr__(self) -> str:
        return f"TextConstraint(max_edits={self.max_edits})"


class RecordConstraint(Constraint):
    """Distance budget for fixed-length feature records (third modality).

    Distances are computed on records rescaled so *value_range* spans
    [0, 1] — the record analogue of dividing grey levels by 255 — so
    budgets carry the same meaning as the image constraint's.
    """

    def __init__(
        self,
        max_l2: Optional[float] = 1.0,
        max_l1: Optional[float] = None,
        value_range: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        for name, value in (("max_l2", max_l2), ("max_l1", max_l1)):
            if value is not None:
                check_positive_float(value, name)
        if max_l2 is None and max_l1 is None:
            raise ConstraintError(
                "all budgets are None — use NullConstraint to disable budgeting"
            )
        low, high = float(value_range[0]), float(value_range[1])
        if not low < high:
            raise ConstraintError(f"value_range must satisfy low < high, got {value_range}")
        self.max_l2 = max_l2
        self.max_l1 = max_l1
        self.value_range = (low, high)

    def _scaled_delta(self, original: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        orig = np.asarray(original, dtype=np.float64)
        cand = np.asarray(candidates, dtype=np.float64)
        if cand.ndim == 1:
            cand = cand[None]
        if orig.ndim != 1 or cand.shape[1:] != orig.shape:
            raise ConstraintError(
                f"candidates {cand.shape[1:]} do not match original {orig.shape}"
            )
        span = self.value_range[1] - self.value_range[0]
        return (cand - orig[None]) / span

    def clip(self, candidates: np.ndarray) -> np.ndarray:
        return np.clip(
            np.asarray(candidates, dtype=np.float64), *self.value_range
        )

    def accept(self, original: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        delta = self._scaled_delta(original, candidates)
        mask = np.ones(delta.shape[0], dtype=bool)
        if self.max_l2 is not None:
            mask &= np.linalg.norm(delta, axis=1) <= self.max_l2
        if self.max_l1 is not None:
            mask &= np.abs(delta).sum(axis=1) <= self.max_l1
        return mask

    def measure(self, original: np.ndarray, candidate: np.ndarray) -> dict[str, float]:
        delta = self._scaled_delta(original, candidate)[0]
        return {
            "l1": float(np.abs(delta).sum()),
            "l2": float(np.linalg.norm(delta)),
            "linf": float(np.abs(delta).max()),
            "l0": float((np.abs(delta) > 1e-12).sum()),
        }

    def __repr__(self) -> str:
        return (
            f"RecordConstraint(max_l2={self.max_l2}, max_l1={self.max_l1}, "
            f"value_range={self.value_range})"
        )


class NullConstraint(Constraint):
    """No budget: accept everything (clipping float images only).

    The default for metric-free strategies (``shift``,
    ``record_shift``), whose perturbation metrics the paper deems not
    meaningful (every pixel "moves").  Integer arrays — the text
    domain's code rows — pass through untouched; codes are indices, not
    grey levels, so [0, 255] clipping does not apply.
    """

    def clip(self, candidates: Any) -> Any:
        if isinstance(candidates, np.ndarray) and not np.issubdtype(
            candidates.dtype, np.integer
        ):
            return np.clip(candidates.astype(np.float64, copy=False), 0.0, 255.0)
        return candidates

    def accept(self, original: Any, candidates: Any) -> np.ndarray:
        n = len(candidates)
        return np.ones(n, dtype=bool)

    def measure(self, original: Any, candidate: Any) -> dict[str, float]:
        if isinstance(original, np.ndarray) and not np.issubdtype(
            np.asarray(original).dtype, np.integer
        ):
            return perturbation_metrics(original, candidate)
        return {}

    def perturbation_sizes(self, original: Any, candidates: Any) -> np.ndarray:
        if isinstance(original, np.ndarray) and not np.issubdtype(
            original.dtype, np.integer
        ):
            return _grey_l2(original, candidates)
        return np.zeros(len(candidates))

    def __repr__(self) -> str:
        return "NullConstraint()"

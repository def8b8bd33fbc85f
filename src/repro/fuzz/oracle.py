"""Differential oracles (Sec. IV; McKeeman-style differential testing).

HDTest never needs ground-truth labels.  Two discrepancy notions are
supported, one per oracle family:

* **self-differential** (:class:`DifferentialOracle`, the paper's) —
  one model's prediction on the *original* input is the reference, and
  any mutated input the model labels differently is — by construction —
  mispredicted on at least one of the two (they are visually the same
  class for in-budget perturbations);
* **cross-model** (:class:`CrossModelOracle`, :class:`MajorityOracle`) —
  the HDXplore form: K independently-seeded models predict the same
  input, and a child on which they *disagree with each other*
  (cross-model), or whose majority vote flips (majority), is a
  discrepancy.  These consume the ``(K, n)`` member-label blocks a
  :class:`~repro.fuzz.targets.ModelEnsembleTarget` produces and are the
  engines' default when one is under test.

Single-model oracles expose :meth:`~DifferentialOracle.discrepancies`;
ensemble oracles additionally implement
:meth:`~DifferentialOracle.discrepancies_ensemble` (the engines pick
the form matching the target's member count) and
:meth:`~DifferentialOracle.reference_discrepancy`, which flags inputs
the members *already* disagree on before any mutation — HDXplore's
"seed discrepancies", reported as iteration-0 successes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.targets import majority_vote

__all__ = [
    "DifferentialOracle",
    "EnsembleOracle",
    "CrossModelOracle",
    "MajorityOracle",
]


class DifferentialOracle:
    """Flags label discrepancies between reference and query predictions."""

    def discrepancies(self, reference_label: int, query_labels: np.ndarray) -> np.ndarray:
        """Boolean mask: which query labels differ from the reference."""
        labels = np.asarray(query_labels)
        return labels != int(reference_label)

    def is_adversarial(self, reference_label: int, query_label: int) -> bool:
        """Single-candidate form of :meth:`discrepancies`."""
        return int(query_label) != int(reference_label)

    # -- ensemble surface --------------------------------------------------
    def reference_discrepancy(self, reference_votes: np.ndarray) -> bool:
        """Whether the members already disagree on the unmutated input.

        Single-model oracles have nothing to disagree about; ensemble
        oracles override this to surface HDXplore-style seed
        discrepancies as iteration-0 successes.
        """
        return False

    def discrepancies_ensemble(
        self, reference_votes: np.ndarray, member_labels: np.ndarray
    ) -> np.ndarray:
        """``(n,)`` mask over a ``(K, n)`` member-label block.

        Implemented by the cross-model oracles only; the fuzzing
        engines reject a K > 1 target paired with an oracle that does
        not override this.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no cross-model discrepancy rule; "
            "use CrossModelOracle or MajorityOracle with model ensembles"
        )

    def __repr__(self) -> str:
        return "DifferentialOracle()"


class EnsembleOracle(DifferentialOracle):
    """Base for oracles that need a K > 1 :class:`ModelEnsembleTarget`."""

    def discrepancies(self, reference_label: int, query_labels: np.ndarray) -> np.ndarray:
        raise ConfigurationError(
            f"{type(self).__name__} compares models against each other; "
            "it needs a ModelEnsembleTarget with at least 2 members"
        )


class CrossModelOracle(EnsembleOracle):
    """Any pairwise disagreement between members counts (HDXplore).

    A child is a discrepancy when the K member predictions are not all
    equal — including children where a single dissenting member breaks
    an otherwise-unanimous vote.  Inputs the members already disagree on
    are *seed discrepancies*: flagged by :meth:`reference_discrepancy`
    and reported as iteration-0 successes without spending mutation
    budget.  Note the dual blind spot to the self-differential oracle:
    a unanimous flip (every member moves to the same wrong class) is
    invisible here, while it is exactly what
    :class:`DifferentialOracle` catches.
    """

    def reference_discrepancy(self, reference_votes: np.ndarray) -> bool:
        votes = np.asarray(reference_votes)
        return bool((votes != votes[0]).any())

    def discrepancies_ensemble(
        self, reference_votes: np.ndarray, member_labels: np.ndarray
    ) -> np.ndarray:
        labels = np.atleast_2d(np.asarray(member_labels))
        return (labels != labels[0]).any(axis=0)

    def __repr__(self) -> str:
        return "CrossModelOracle()"


class MajorityOracle(EnsembleOracle):
    """Flips of the ensemble's majority vote count as discrepancies.

    The ensemble is treated as one voting classifier: a child is a
    discrepancy when its majority vote (ties → lowest label,
    deterministically) differs from the majority vote on the original
    input.  Unlike :class:`CrossModelOracle` this *does* catch unanimous
    flips, and ignores lone dissenters that cannot move the vote.

    Parameters
    ----------
    n_classes:
        Number of classes the vote is taken over (the target's).
    """

    def __init__(self, n_classes: int) -> None:
        if n_classes < 1:
            raise ConfigurationError(f"n_classes must be >= 1, got {n_classes}")
        self.n_classes = int(n_classes)

    def reference_discrepancy(self, reference_votes: np.ndarray) -> bool:
        return False

    def discrepancies_ensemble(
        self, reference_votes: np.ndarray, member_labels: np.ndarray
    ) -> np.ndarray:
        votes = np.asarray(reference_votes)
        reference = int(majority_vote(votes[:, None], self.n_classes)[0])
        labels = np.atleast_2d(np.asarray(member_labels))
        return majority_vote(labels, self.n_classes) != reference

    def __repr__(self) -> str:
        return f"MajorityOracle(n_classes={self.n_classes})"

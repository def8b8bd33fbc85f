"""Seed-fitness functions (Sec. IV, distance-guided fuzzing).

The paper: "the fitness of seeds are defined as
``fitness = 1 − Cosim(AM[y], HDC(seed))`` … Higher fitness means lower
similarity between the HV of the seed and the original input image's
HV, indicating higher possibility to generate an adversarial image."

:class:`DistanceGuidedFitness` is that function.  :class:`RandomFitness`
replaces it with noise, turning top-N survival into uniform survival —
the *unguided* baseline against which the paper measures its 12 %
speed-up.

Every fitness reads the similarity block the target already computed
to predict the children: ``Cosim(AM[y], HDC(seed))`` is column ``y`` of
the associative-memory query, so scoring costs no second encode,
pack or popcount pass.  :meth:`FitnessFunction.scores` takes the
input's :class:`~repro.fuzz.targets.TargetReference` (the reference
label ``y`` and the members' votes) and the children's
:class:`~repro.fuzz.targets.TargetPredictions` (``(K, n)`` labels and
``(K, n, C)`` similarities).  For the bipolar families the similarity
is the cosine, bit for bit, so the score is the paper's formula.  The
binary families' memories answer ``1 − normalised Hamming distance``,
so there the distance-guided score is the normalised Hamming distance
to ``AM[y]``.

Randomness discipline
---------------------
``scores`` takes a keyword-only *rng*: the fuzzing engines pass each
input's own child generator, so a stochastic fitness (the unguided
baseline) draws from a **per-input stream**.  That is what makes
unguided outcomes — like guided ones — invariant to the executor,
``batch_size``, and ``n_workers`` under the shared RNG discipline
(one spawned generator per input).  Deterministic fitnesses ignore the
argument; :class:`RandomFitness` falls back to its constructor stream
when called without one (standalone use).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.targets import TargetPredictions, TargetReference, vote_counts
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "FitnessFunction",
    "DistanceGuidedFitness",
    "RandomFitness",
    "MarginFitness",
    "AgreementMarginFitness",
]


class FitnessFunction(ABC):
    """Scores candidate seeds; higher scores survive (Alg. 1, Line 14)."""

    #: whether the fuzzer should report this as guided (for logs/reports).
    guided: bool = True

    #: which targets :meth:`scores` ranks: one model's predictions
    #: (``False``), a K ≥ 2 ensemble's (``True``) or either (``None``).
    #: The engines reject a fitness paired with the other kind.
    ensemble: Optional[bool] = False

    @abstractmethod
    def scores(
        self,
        reference: TargetReference,
        predictions: TargetPredictions,
        *,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Fitness of each child, ``(n,)``.

        Parameters
        ----------
        reference:
            The input's reference: ``reference.label`` is ``y``, the
            target's prediction on the *original* input, and
            ``reference.votes`` the members' labels on it.
        predictions:
            The children's ``(K, n)`` member labels and ``(K, n, C)``
            per-class similarities, as the target predicted them.
        rng:
            Per-input randomness stream supplied by the fuzzing
            engines.  Deterministic fitnesses ignore it.
        """


class DistanceGuidedFitness(FitnessFunction):
    """The paper's fitness: ``1 − Cosim(AM[y], HDC(seed))``.

    Column ``y`` of the model's similarity block: the cosine for the
    bipolar families (dense and packed alike), ``1 −`` the normalised
    Hamming distance for the binary ones.
    """

    guided = True

    def scores(
        self,
        reference: TargetReference,
        predictions: TargetPredictions,
        *,
        rng: RngLike = None,
    ) -> np.ndarray:
        return 1.0 - predictions.similarities[0, :, reference.label]

    def __repr__(self) -> str:
        return "DistanceGuidedFitness()"


class RandomFitness(FitnessFunction):
    """Unguided baseline: survival becomes a uniform lottery.

    Used to reproduce Sec. IV's claim that guided testing "can generate
    adversarial inputs faster than unguided testing by 12 % on average".
    Draws from the *rng* handed to :meth:`scores` when there is one —
    the engines pass each input's own generator, giving the unguided
    baseline the same per-input streams (and therefore the same
    executor/batch-size invariance) as guided runs — and from the
    constructor stream otherwise.  Ranks single models and ensembles
    alike.
    """

    guided = False
    ensemble = None

    def __init__(self, rng: RngLike = None) -> None:
        self._rng = ensure_rng(rng)

    def scores(
        self,
        reference: TargetReference,
        predictions: TargetPredictions,
        *,
        rng: RngLike = None,
    ) -> np.ndarray:
        generator = self._rng if rng is None else ensure_rng(rng)
        return generator.random(size=len(predictions))

    def __repr__(self) -> str:
        return "RandomFitness()"


class MarginFitness(FitnessFunction):
    """Extension: reward shrinking the (reference − best-other) margin.

    A sharper guidance signal than raw reference distance: a seed that
    is far from ``AM[y]`` but equally far from every other class is less
    promising than one that is *closing in on a specific other class*.
    The score is ``max_{c ≠ y} sim_c − sim_y`` over the model's
    similarity block: negative while the child still predicts ``y``,
    rising as it nears the decision boundary.  Benchmarked in
    ``benchmarks/bench_ablation_fitness.py``.
    """

    guided = True

    def scores(
        self,
        reference: TargetReference,
        predictions: TargetPredictions,
        *,
        rng: RngLike = None,
    ) -> np.ndarray:
        sims = predictions.similarities[0].copy()
        ref = sims[:, reference.label].copy()
        sims[:, reference.label] = -np.inf
        return sims.max(axis=1) - ref

    def __repr__(self) -> str:
        return "MarginFitness()"


class AgreementMarginFitness(FitnessFunction):
    """Discrepancy-guided survival: shrink the ensemble's vote margin.

    HDXplore's guidance signal, adapted to Alg. 1's top-N survival:
    children on which the ensemble's vote is *closest to splitting* are
    the most promising parents of a cross-model discrepancy.  The score
    has two parts:

    * **vote margin** — with ``c₁ ≥ c₂`` the two largest per-class vote
      counts over the K members, the primary term is
      ``1 − (c₁ − c₂) / K``: unanimous children score 0, children one
      defection from a split score higher, already-split children
      highest (the oracle retires those before fitness runs).
    * **similarity tie-break** — vote counts are integers, so whole
      cohorts of children tie.  Within a tie the child whose members
      are *least certain* wins: the mean over members of the top-1 −
      top-2 similarity margin, mapped to ``[0, 1]`` and weighted below
      one vote step so it can only order children with equal votes.

    Parameters
    ----------
    similarity_weight:
        Weight of the tie-break term.  ``None`` (default) resolves to
        ``0.5 / K`` at scoring time — strictly below the ``1 / K``
        quantum of the vote term.  Pass ``0.0`` for votes only.
    """

    guided = True
    ensemble = True

    def __init__(self, *, similarity_weight: Optional[float] = None) -> None:
        if similarity_weight is not None and similarity_weight < 0:
            raise ConfigurationError(
                f"similarity_weight must be >= 0, got {similarity_weight}"
            )
        self._similarity_weight = similarity_weight

    def scores(
        self,
        reference: TargetReference,
        predictions: TargetPredictions,
        *,
        rng: RngLike = None,
    ) -> np.ndarray:
        labels, similarities = predictions.labels, predictions.similarities
        k = labels.shape[0]
        counts = np.sort(vote_counts(labels, similarities.shape[2]), axis=1)
        top1 = counts[:, -1]
        top2 = counts[:, -2] if counts.shape[1] > 1 else np.zeros_like(top1)
        scores = 1.0 - (top1 - top2) / float(k)
        weight = (
            0.5 / k if self._similarity_weight is None else self._similarity_weight
        )
        if weight:
            sims = np.sort(similarities, axis=2)
            member_margin = sims[:, :, -1] - (
                sims[:, :, -2] if sims.shape[2] > 1 else 0.0
            )
            # Cosine margins live in [0, 2]; halve into [0, 1] so the
            # weight bound (< one vote quantum) is honest.
            scores = scores + weight * (1.0 - member_margin.mean(axis=0) / 2.0)
        return scores

    def __repr__(self) -> str:
        if self._similarity_weight is None:
            return "AgreementMarginFitness()"
        return f"AgreementMarginFitness(similarity_weight={self._similarity_weight})"

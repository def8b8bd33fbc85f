"""Seed pool: the survivors that fuel the next fuzzing iteration.

Alg. 1, Line 14: "Continue fuzzing using only the fittest seeds" —
"during the mutation process, only the top-N fittest seeds can survive
(in our experiments, N = 3)".  :class:`SeedPool` holds one input's
survivors with their fitness scores and performs that top-N selection;
:class:`SeedPoolBatch` is the array form the fuzzing loop iterates, one
row per input, with the same selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import FuzzingError
from repro.utils.validation import check_positive_int

__all__ = ["Seed", "SeedPool", "SeedPoolBatch"]

T = TypeVar("T")


@dataclass(frozen=True)
class Seed(Generic[T]):
    """One candidate input with its fitness and lineage depth.

    Attributes
    ----------
    data:
        The input in its domain's internal array form (pixel grid,
        alphabet-code row, feature record).
    fitness:
        Score assigned by the fitness function (higher survives).
    generation:
        Fuzzing iteration at which this seed was created (0 = the
        original input).
    """

    data: T
    fitness: float
    generation: int = 0


class SeedPool(Generic[T]):
    """Keeps the top-N fittest seeds across fuzzing iterations.

    Parameters
    ----------
    top_n:
        Pool capacity (the paper's N = 3).
    """

    def __init__(self, top_n: int = 3) -> None:
        self._top_n = check_positive_int(top_n, "top_n")
        self._seeds: list[Seed[T]] = []

    @property
    def top_n(self) -> int:
        """Pool capacity."""
        return self._top_n

    @property
    def seeds(self) -> list[Seed[T]]:
        """Current survivors, fittest first (copy)."""
        return list(self._seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    def __iter__(self) -> Iterator[Seed[T]]:
        return iter(self._seeds)

    def reset(self, original: T) -> None:
        """Restart the pool from the original input (generation 0).

        The original gets fitness -inf so any scored child displaces it.
        """
        self._seeds = [Seed(original, float("-inf"), 0)]

    def update(
        self,
        candidates: Sequence[T],
        fitnesses: Sequence[float],
        *,
        generation: int,
    ) -> None:
        """Replace pool contents with the top-N of *candidates*.

        Matches Alg. 1: survivors are chosen among the new children (the
        pool is not mixed with previous generations — each iteration's
        children fully replace their parents).
        """
        scores = np.asarray(fitnesses, dtype=np.float64)
        if len(candidates) != scores.shape[0]:
            raise FuzzingError(
                f"{len(candidates)} candidates but {scores.shape[0]} fitness scores"
            )
        if len(candidates) == 0:
            # Nothing survived the constraint this round; keep current
            # seeds so the next iteration can try different mutations.
            return
        order = np.argsort(-scores, kind="stable")[: self._top_n]
        self._seeds = [
            Seed(candidates[int(i)], float(scores[int(i)]), generation)
            for i in order
        ]

    def best(self) -> Seed[T]:
        """The fittest current seed."""
        if not self._seeds:
            raise FuzzingError("seed pool is empty — call reset() first")
        return self._seeds[0]


class SeedPoolBatch:
    """Per-input top-N seed pools held as stacked arrays.

    The fuzzing loop (:meth:`repro.fuzz.fuzzer.HDTest._lockstep`) runs
    Alg. 1 in lock-step over one or many inputs; this is the
    array-of-pools it iterates.  Semantically each row *i* behaves
    exactly like a :class:`SeedPool` — survivors are the top-N fittest
    children of the latest generation, fittest first, selected with the
    same stable sort — but storage is one ``(n_inputs, top_n, …)``
    block of seed data instead of *n* object pools.

    Parameters
    ----------
    originals:
        ``(n_inputs, …)`` stacked original inputs (generation 0).
    top_n:
        Pool capacity per input (the paper's N = 3).
    """

    def __init__(self, originals: np.ndarray, top_n: int = 3) -> None:
        self._top_n = check_positive_int(top_n, "top_n")
        originals = np.asarray(originals)
        if originals.ndim < 2:
            raise FuzzingError(
                f"originals must be a stacked (n_inputs, …) batch, got {originals.shape}"
            )
        n = originals.shape[0]
        self._data = np.zeros((n, self._top_n) + originals.shape[1:], originals.dtype)
        self._data[:, 0] = originals
        self._counts = np.ones(n, dtype=np.int64)

    def seeds(self, i: int) -> np.ndarray:
        """Live seed data of input *i*, fittest first (array view)."""
        return self._data[i, : self._counts[i]]

    # -- Alg. 1 survival -------------------------------------------------
    def update(self, i: int, children: np.ndarray, scores: np.ndarray) -> np.ndarray | None:
        """Replace input *i*'s pool with the top-N of *children*.

        Selection matches :meth:`SeedPool.update` exactly (stable
        descending sort, children fully replace parents); an empty
        candidate set keeps the current seeds ("nothing survived the
        constraint").

        Returns the survivor selection — child indices, fittest first —
        or ``None`` when the pool was left untouched.  Whoever encodes
        the children (the run's predictor) replays this order against
        its own accumulators and levels, so
        selection is computed once, from the fitness scores, and
        survives identically everywhere.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if len(children) != scores.shape[0]:
            raise FuzzingError(
                f"{len(children)} candidates but {scores.shape[0]} fitness scores"
            )
        if len(children) == 0:
            return None
        order = np.argsort(-scores, kind="stable")[: self._top_n]
        k = order.shape[0]
        self._data[i, :k] = children[order]
        self._counts[i] = k
        return order

    def __repr__(self) -> str:
        return f"SeedPoolBatch(n_inputs={self._data.shape[0]}, top_n={self._top_n})"

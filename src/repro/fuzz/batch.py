"""Batched fuzzing engine: Alg. 1 in lock-step across inputs, any domain.

:class:`BatchedHDTest` runs the paper's per-input loop over *all*
active inputs simultaneously.  Each iteration mutates every input's
surviving seeds, then performs **one fused encode and one fused
predict per target member** covering every input's children, instead
of one small model call per input per iteration.  Inputs retire from
the batch the moment their differential oracle flips; per-input
iteration counts are exactly those of a single-input run.

The engine is target-generic like its sequential parent: fuzzing a
K-member :class:`~repro.fuzz.targets.ModelEnsembleTarget` runs all K
models lock-step over the same child blocks — K fused encodes and K
fused AM queries per iteration, each member delta-encoding from its
own parent accumulators — which is what makes cross-model differential
campaigns cost ≈ K single-model campaigns instead of a serial re-fuzz
per member (``benchmarks/bench_ensemble_fuzzing.py``).  Inputs whose
members disagree before any mutation retire immediately as iteration-0
seed discrepancies.

The engine is modality-agnostic: its
:class:`~repro.fuzz.domains.FuzzDomain` converts raw inputs into the
internal array representation once at entry — pixel grids for images,
uint8 alphabet-code rows for strings, feature vectors for records —
and the lock-step loop only ever sees ``(n, …)`` numeric blocks.
``hdtest fuzz --domain image|text|voice`` drives the same engine
through any executor and backend.

Semantics are unchanged — only the schedule is.  The loop is
:class:`~repro.fuzz.fuzzer.HDTest`'s own, run over the whole batch
instead of one input, and each input draws from its own child
generator (derived with :func:`repro.utils.rng.spawn`), so every
per-input outcome is identical to running
:meth:`repro.fuzz.fuzzer.HDTest.fuzz_one` on that input with its
generator::

    generators = spawn(seed, len(inputs))
    BatchedHDTest(model, "gauss").fuzz_outcomes(inputs, generators=generators)
    ==  [HDTest(model, "gauss").fuzz_one(x, rng=g)
         for x, g in zip(inputs, generators)]

(property-tested in ``tests/fuzz/test_batch.py`` for images and
``tests/fuzz/test_cross_modality.py`` for text and records).

Encoding runs through :class:`~repro.fuzz.predictor.LocalPredictor`:
incremental (delta) when the encoder allows it, else scratch, each
iteration's children of *all* inputs in one fused call per member.
The per-input dedupe caches are keyed by the *content* of the original
input and live on the engine instance, so when a campaign recycles
inputs across waves (``generate_adversarial_set``) or chunks (the
executors), an input returning to the batch finds its working set
already warm.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.fuzzer import HDTest
from repro.fuzz.predictor import _CachePool
from repro.fuzz.results import CampaignResult, InputOutcome
from repro.metrics.timing import Stopwatch
from repro.utils.rng import RngLike, ensure_rng, spawn

__all__ = ["BatchedHDTest"]


class BatchedHDTest(HDTest):
    """Lock-step batched variant of :class:`~repro.fuzz.fuzzer.HDTest`.

    Accepts the same constructor arguments, including ``domain``.  Any
    registered modality batches: inputs are converted to the domain's
    internal array representation (strings become uint8 code rows) and
    must share one shape/length per call.

    Examples
    --------
    >>> from repro.datasets import load_digits
    >>> from repro.hdc import PixelEncoder, HDCClassifier
    >>> from repro.fuzz import BatchedHDTest
    >>> train, test = load_digits(n_train=300, n_test=20, seed=3)
    >>> model = HDCClassifier(PixelEncoder(dimension=2048, rng=3), 10)
    >>> _ = model.fit(train.images, train.labels)
    >>> result = BatchedHDTest(model, "gauss", rng=0).fuzz(test.images[:5])
    >>> result.n_inputs
    5
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Content-keyed per-input dedupe caches, persistent across
        # fuzz_outcomes calls so recycled inputs (campaign waves,
        # executor chunks) re-enter with a warm working set.
        self._cache_pool = _CachePool()

    # -- campaign entry points ---------------------------------------------
    def fuzz(self, inputs: Sequence[Any], *, rng: RngLike = None) -> CampaignResult:
        """Fuzz every input in lock-step; aggregated :class:`CampaignResult`.

        Note the RNG discipline differs from the sequential
        :meth:`HDTest.fuzz` (which threads one generator through inputs
        sequentially): here each input gets an independent child
        generator spawned from *rng*, so outcomes match per-input
        :meth:`HDTest.fuzz_one` calls under the same spawning.
        """
        mark = self._obs.marker()
        with Stopwatch() as sw:
            outcomes = self.fuzz_outcomes(inputs, rng=rng)
        return CampaignResult(
            strategy=self._strategy.name,
            outcomes=outcomes,
            elapsed_seconds=sw.elapsed,
            guided=self._fitness.guided,
            executor="batched",
            n_members=self._target.n_members,
            telemetry=self._obs.since(mark),
        )

    def fuzz_outcomes(
        self,
        inputs: Sequence[Any],
        *,
        rng: RngLike = None,
        generators: Optional[Sequence[np.random.Generator]] = None,
    ) -> list[InputOutcome]:
        """Run Alg. 1 on all inputs at once; one outcome per input.

        Parameters
        ----------
        inputs:
            Raw inputs of the engine's domain, identical shape/length.
        rng:
            Root randomness; per-input child generators are spawned from
            it (ignored when *generators* is given).
        generators:
            Explicit per-input child generators — the executors use this
            to keep outcomes invariant to chunking.
        """
        n = len(inputs)
        if n == 0:
            return []
        if generators is None:
            root = ensure_rng(rng) if rng is not None else self._rng
            generators = spawn(root, n)
        elif len(generators) != n:
            raise ConfigurationError(
                f"{len(generators)} generators for {n} inputs"
            )
        return self._lockstep(
            self._domain.stack(inputs), generators, self._predictor(self._cache_pool)
        )

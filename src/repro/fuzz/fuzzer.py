"""The HDTest fuzzing loop (Sec. IV, Alg. 1) — domain- and target-generic.

For each unlabeled input ``t`` (an image, a string, a feature
record — any registered :mod:`fuzzing domain <repro.fuzz.domains>`):

1. ``y = HDC(t)`` — the target's prediction on the unmutated input
   becomes the *reference* (differential testing: no manual labeling).
2. Repeat up to ``iter_times``:
   a. mutate every surviving seed into ``children_per_seed`` children;
   b. clip children into the valid input space and discard those whose
      perturbation (relative to the *original* ``t``) exceeds the
      distance budget;
   c. encode the survivors once, predict, and check the differential
      oracle: a discrepancy is a successful adversarial input — record
      the least-perturbed flipped child and stop.  Children are encoded
      nearest first, in stages (see :mod:`repro.fuzz.predictor`), so
      the iteration that flips leaves its farther children unencoded;
      the reported child is the one a whole-iteration encode picks;
   d. otherwise score children with the fitness function — it reads
      the similarity block the prediction already computed — and keep
      the top-N fittest as next iteration's seeds.

This module holds the one engine class and its one loop.
:meth:`HDTest.fuzz_one` runs it on a single input;
:meth:`HDTest.fuzz_outcomes` runs it in lock-step over many, one
iteration of every active input at a time, with one fused encode and
predict per target member and stage covering every input's children.
Iteration counts stay per-input and honest either way: inputs retire
the moment their oracle flips.  Each input's dedupe cache lives for
that one run and holds one iteration's children, so every schedule
encodes the same children.

RNG discipline: input *i* of a campaign draws its mutations (and the
unguided baseline's survival draws) from the *i*-th generator spawned
from the root seed with :func:`repro.utils.rng.spawn`, so its outcome
depends on the root seed alone, never on how inputs are scheduled::

    generators = spawn(seed, len(inputs))
    HDTest(model, "gauss").fuzz(inputs, rng=seed)
    ==  HDTest(model, "gauss").fuzz_outcomes(inputs, rng=seed)
    ==  [HDTest(model, "gauss").fuzz_one(x, rng=g)
         for x, g in zip(inputs, generators)]

:meth:`HDTest.fuzz` is the paper-literal schedule (one input at a time);
every executor in :mod:`repro.fuzz.executor` honours the same
discipline.

The *system under test* is a
:class:`~repro.fuzz.targets.PredictionTarget` — either one classifier
(:class:`~repro.fuzz.targets.SingleModelTarget`, the paper's
self-differential setting: the reference is the model's own label, a
discrepancy is any flip away from it, and the guided fitness is
``1 − Cosim(AM[y], HDC(seed))``) or a K-member
:class:`~repro.fuzz.targets.ModelEnsembleTarget` (the HDXplore
setting: the reference is the members' vote on the original, a
discrepancy is cross-model disagreement — or a majority flip, with
:class:`~repro.fuzz.oracle.MajorityOracle` — and the guided fitness is
the ensemble's
:class:`~repro.fuzz.fitness.AgreementMarginFitness`).  Inputs the
members already disagree on are *seed discrepancies*, reported as
iteration-0 successes.  A bare model wraps into a
``SingleModelTarget``, bit-identically to the pre-target engines.

Everything modality-specific is delegated to the engine's
:class:`~repro.fuzz.domains.FuzzDomain`: raw inputs are converted to
the domain's *internal array representation* once at entry (strings
become uint8 alphabet-code rows; images and records stay float64), the
loop runs entirely on those arrays, and adversarial payloads are
converted back at exit.  The domain also supplies the default
perturbation constraint and decides whether the model's encoder
supports incremental encoding.

The loop's "children → predictions" step is a small object, a
:class:`~repro.fuzz.predictor.LocalPredictor` (dedupe-cached
incremental or scratch encoding, then ``target.predict_hvs``), built
per run by the overridable ``_predictor`` hook; each iteration is its
:class:`~repro.fuzz.predictor.ChildBlock`, a list of stages.  Encoding
is exact, so every schedule and every staging yields bit-identical
outcomes (property-tested in ``tests/fuzz/test_sequential_delta.py``,
``tests/fuzz/test_batch.py``, ``tests/fuzz/test_cross_modality.py``,
``tests/fuzz/test_campaign.py`` and ``tests/fuzz/test_staged_encode.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.constraints import Constraint
from repro.fuzz.domains.base import DELTA_ENCODER_API, FuzzDomain, resolve_domain
from repro.fuzz.fitness import (
    AgreementMarginFitness,
    DistanceGuidedFitness,
    FitnessFunction,
    RandomFitness,
)
from repro.fuzz.mutations import MutationStrategy, create_strategy
from repro.fuzz.oracle import DifferentialOracle, EnsembleOracle
from repro.fuzz.predictor import LocalPredictor
from repro.fuzz.results import AdversarialExample, CampaignResult, InputOutcome
from repro.fuzz.seeds import SeedPoolBatch
from repro.fuzz.targets import (
    PredictionTarget,
    TargetPredictions,
    TargetReference,
    resolve_target,
    vote_counts,
)
from repro.hdc.model import HDCClassifier
from repro.obs.recorder import NULL_TELEMETRY, CampaignTelemetry, Stopwatch
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_positive_int

__all__ = ["HDTestConfig", "HDTest", "DELTA_ENCODER_API"]


@dataclass(frozen=True)
class HDTestConfig:
    """Tunable knobs of the fuzzing loop.

    Attributes
    ----------
    iter_times:
        Maximum fuzzing iterations per input (Alg. 1's budget).
    top_n:
        Seed-pool capacity — "only the top-N fittest seeds can survive
        (in our experiments, N = 3)".
    children_per_seed:
        Mutants generated from each surviving seed per iteration.
    guided:
        Distance-guided survival (True, the paper's HDTest) or the
        unguided random-survival baseline (False).

    Each iteration's in-budget children are encoded nearest first, in
    stages whose sizes follow from the encode kernel's
    ``SPLIT_ENTRIES`` and doubling (:mod:`repro.fuzz.predictor`), so an
    iteration that retires its input leaves its farther children
    unencoded; no knob here changes that, and outcomes are the same as
    encoding every child.

    Each input's dedupe cache holds ``top_n × children_per_seed``
    children, one iteration's worth, and lives for one run.  That is
    all the reuse there is: ``shift`` children collapse onto a few net
    translations, so 72–74 % of its encode requests repeat a child of
    the same iteration (and the rest of its repeats are two iterations
    old), which is what makes shift the cheapest strategy per generated
    image (Table II's "only changes the pixel locations, or more
    exactly, indices" remark).  Continuous strategies such as ``gauss``
    produce children that essentially never repeat.  Results do not
    depend on the cache; only the encode count does.
    """

    iter_times: int = 50
    top_n: int = 3
    children_per_seed: int = 8
    guided: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.iter_times, "iter_times")
        check_positive_int(self.top_n, "top_n")
        check_positive_int(self.children_per_seed, "children_per_seed")


class _ActiveInput:
    """Book-keeping for one not-yet-retired input of the loop."""

    __slots__ = ("index", "original", "reference", "generator")

    def __init__(self, index, original, reference, generator):
        self.index = index
        self.original = original
        self.reference = reference  # TargetReference (label, votes)
        self.generator = generator


class HDTest:
    """Differential fuzz tester for HDC classifiers.

    Parameters
    ----------
    model:
        The grey-box system under test: a trained
        :class:`~repro.hdc.model.HDCClassifier` (or any model exposing
        the Sec. IV grey-box API), or a
        :class:`~repro.fuzz.targets.PredictionTarget` — in particular a
        :class:`~repro.fuzz.targets.ModelEnsembleTarget` for HDXplore's
        cross-model differential setting.
    strategy:
        A :class:`~repro.fuzz.mutations.MutationStrategy` instance or a
        registered name (``"gauss"``, ``"char_sub"``, ``"record_rand"``, …).
    domain:
        The input modality — a registered name (``"image"``, ``"text"``,
        ``"record"``/``"voice"``), a
        :class:`~repro.fuzz.domains.FuzzDomain` instance, or ``None``
        to derive it from the strategy's namespace tag.  The domain
        owns input validation, the internal array representation, and
        the default constraint.
    config:
        Loop parameters; defaults to :class:`HDTestConfig`.
    constraint:
        Perturbation budget.  Defaults to the domain's budget — the
        paper's ``L2 < 1`` for images, the character-Hamming budget for
        text, the record budget for records — except for metric-free
        strategies (``shift``, ``record_shift``), which default to
        :class:`~repro.fuzz.constraints.NullConstraint` (Table II's
        footnote: distance metrics are not meaningful for shift).
    fitness:
        Override the fitness function.  Defaults to the paper's
        :class:`~repro.fuzz.fitness.DistanceGuidedFitness` for single
        models and the discrepancy-guided
        :class:`~repro.fuzz.fitness.AgreementMarginFitness` for
        ensembles, or :class:`~repro.fuzz.fitness.RandomFitness` when
        ``config.guided`` is False.
    oracle:
        Discrepancy check; defaults to the untargeted
        :class:`~repro.fuzz.oracle.DifferentialOracle` for single
        models and :class:`~repro.fuzz.oracle.CrossModelOracle` for
        ensembles.
    rng:
        Root seed/generator for mutation randomness, used when a call
        passes none: :meth:`fuzz` and :meth:`fuzz_outcomes` spawn one
        child generator per input from it, :meth:`fuzz_one` draws from
        it directly.
    telemetry:
        Optional :class:`~repro.obs.recorder.CampaignTelemetry` the
        engine records counters and phase timings into.  ``None`` (the
        default) installs the no-op :data:`~repro.obs.recorder.NULL_TELEMETRY`;
        telemetry never touches the RNG, so enabling it cannot change
        campaign outcomes.

    Examples
    --------
    >>> from repro.datasets import load_digits
    >>> from repro.hdc import PixelEncoder, HDCClassifier
    >>> from repro.fuzz import HDTest
    >>> train, test = load_digits(n_train=300, n_test=20, seed=3)
    >>> model = HDCClassifier(PixelEncoder(dimension=2048, rng=3), 10)
    >>> _ = model.fit(train.images, train.labels)
    >>> result = HDTest(model, "gauss", rng=0).fuzz(test.images[:5])
    >>> result.n_inputs
    5
    """

    def __init__(
        self,
        model: HDCClassifier,
        strategy: Union[str, MutationStrategy],
        *,
        domain: Union[None, str, FuzzDomain] = None,
        config: Optional[HDTestConfig] = None,
        constraint: Optional[Constraint] = None,
        fitness: Optional[FitnessFunction] = None,
        oracle: Optional[DifferentialOracle] = None,
        rng: RngLike = None,
        telemetry: Optional[CampaignTelemetry] = None,
    ) -> None:
        self._obs = telemetry if telemetry is not None else NULL_TELEMETRY
        # Duck-typed grey-box check (Sec. IV): the fuzzer encodes
        # children and queries the associative memory, whose similarity
        # block feeds both the oracle and the fitness — any model
        # exposing those is fuzzable, including the dense-binary family
        # in repro.hdc.binary_model.  A PredictionTarget (single model or
        # K-member ensemble) passes through; a bare model wraps into a
        # SingleModelTarget.
        self._target = resolve_target(model)
        self._model = self._target.primary
        self._strategy = (
            create_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        if not isinstance(self._strategy, MutationStrategy):
            raise ConfigurationError(
                f"strategy must be a name or MutationStrategy, got "
                f"{type(self._strategy).__name__}"
            )
        self._config = config if config is not None else HDTestConfig()
        self._rng = ensure_rng(rng)
        self._domain = resolve_domain(
            domain, strategy=self._strategy, model=self._model
        )
        if self._domain.name != self._strategy.domain:
            raise ConfigurationError(
                f"strategy {self._strategy.name!r} belongs to the "
                f"{self._strategy.domain!r} domain, not {self._domain.name!r}"
            )
        self._domain.validate_strategy(self._strategy)
        if constraint is None:
            constraint = self._domain.default_constraint(self._strategy)
        self._constraint = constraint
        self._fitness = self._resolve_fitness(fitness)
        if self._target.n_members == 1:
            self._oracle = oracle if oracle is not None else DifferentialOracle()
            if isinstance(self._oracle, EnsembleOracle):
                raise ConfigurationError(
                    f"{type(self._oracle).__name__} compares models against "
                    "each other; fuzz a ModelEnsembleTarget with >= 2 members"
                )
        else:
            self._oracle = oracle
            if self._oracle is None:
                from repro.fuzz.oracle import CrossModelOracle

                self._oracle = CrossModelOracle()
            elif (
                type(self._oracle).discrepancies_ensemble
                is DifferentialOracle.discrepancies_ensemble
            ):
                raise ConfigurationError(
                    f"{type(self._oracle).__name__} has no cross-model "
                    "discrepancy rule; use CrossModelOracle or MajorityOracle "
                    "with model ensembles"
                )

    def _resolve_fitness(self, fitness):
        """Default the fitness for the target, or check that it fits it.

        Single models default to the paper's distance-guided fitness,
        ensembles to HDXplore's vote margin; a fitness whose
        :attr:`~repro.fuzz.fitness.FitnessFunction.ensemble` names the
        other kind of target is rejected.
        """
        ensemble = self._target.n_members > 1
        if fitness is None:
            if not self._config.guided:
                return RandomFitness(rng=self._rng)
            return AgreementMarginFitness() if ensemble else DistanceGuidedFitness()
        if fitness.ensemble is not None and fitness.ensemble != ensemble:
            raise ConfigurationError(
                f"{type(fitness).__name__} scores "
                + (
                    "single-model predictions; use an ensemble-aware fitness "
                    "(AgreementMarginFitness, RandomFitness) or fuzz a single model"
                    if ensemble
                    else "ensemble predictions; fuzz a ModelEnsembleTarget "
                    "with >= 2 members"
                )
            )
        return fitness

    # -- introspection ---------------------------------------------------
    @property
    def model(self) -> HDCClassifier:
        """The (primary) model under test."""
        return self._model

    @property
    def target(self) -> PredictionTarget:
        """The full prediction target (single model or K-member ensemble)."""
        return self._target

    @property
    def strategy(self) -> MutationStrategy:
        """Active mutation strategy."""
        return self._strategy

    @property
    def config(self) -> HDTestConfig:
        """Loop parameters."""
        return self._config

    @property
    def constraint(self) -> Constraint:
        """Active perturbation budget."""
        return self._constraint

    @property
    def domain(self) -> FuzzDomain:
        """The engine's input modality."""
        return self._domain

    @property
    def telemetry(self) -> Any:
        """The active recorder (:data:`NULL_TELEMETRY` when disabled)."""
        return self._obs

    # -- entry points --------------------------------------------------------
    def _root(self, rng: RngLike) -> np.random.Generator:
        """*rng* as a generator, or the engine's own when it is ``None``."""
        return ensure_rng(rng) if rng is not None else self._rng

    def fuzz_one(self, original: Any, *, rng: RngLike = None) -> InputOutcome:
        """Run Alg. 1 on one input; returns its :class:`InputOutcome`.

        Draws from *rng* (default: the engine's generator).
        """
        originals = self._domain.stack([original])
        return self._lockstep(originals, [self._root(rng)], self._predictor())[0]

    def fuzz(self, inputs: Sequence[Any], *, rng: RngLike = None) -> CampaignResult:
        """Fuzz every input, one at a time; the aggregated :class:`CampaignResult`.

        Input *i* draws from the *i*-th generator spawned from *rng*
        (default: the engine's generator), so the outcomes equal
        :meth:`fuzz_outcomes` on the same inputs and seed.
        """
        generators = spawn(self._root(rng), len(inputs))
        mark = self._obs.marker()
        with Stopwatch() as sw:
            outcomes = [
                self.fuzz_one(original, rng=generator)
                for original, generator in zip(inputs, generators)
            ]
        return self._result(outcomes, sw.elapsed, mark)

    def _result(
        self, outcomes: list[InputOutcome], elapsed_seconds: float, mark: Any,
        executor: Optional[str] = None,
    ) -> CampaignResult:
        """The :class:`CampaignResult` of *outcomes*, telemetry since *mark*."""
        return CampaignResult(
            strategy=self._strategy.name,
            outcomes=outcomes,
            elapsed_seconds=elapsed_seconds,
            guided=self._fitness.guided,
            executor=executor,
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
        """Run Alg. 1 on all inputs in lock-step; one outcome per input.

        Parameters
        ----------
        inputs:
            Raw inputs of the engine's domain, identical shape/length.
        rng:
            Root randomness; per-input child generators are spawned from
            it (default: the engine's generator; ignored when
            *generators* is given).
        generators:
            Explicit per-input child generators — the executors use this
            to keep outcomes invariant to chunking.
        """
        n = len(inputs)
        if n == 0:
            return []
        if generators is None:
            generators = spawn(self._root(rng), n)
        elif len(generators) != n:
            raise ConfigurationError(f"{len(generators)} generators for {n} inputs")
        return self._lockstep(self._domain.stack(inputs), generators, self._predictor())

    # -- the Alg. 1 loop -----------------------------------------------------
    def _predictor(self):
        """The loop's children → predictions step for one run (overridable).

        In-process encoding through the target, with one dedupe cache of
        ``top_n × children_per_seed`` entries per input.
        """
        cfg = self._config
        surface = self._target.delta_surface(self._delta_encoder())
        return LocalPredictor(
            self._target, surface, cfg.top_n * cfg.children_per_seed, self._obs,
            self._constraint.perturbation_sizes,
        )

    def _delta_encoder(self):
        """The target's delta-capable encoder handle, or ``None``.

        Thin hook over :meth:`PredictionTarget.delta_encoder` (for a
        single model: the model's encoder when it exposes
        :data:`~repro.fuzz.domains.DELTA_ENCODER_API`) — tests and
        benchmarks override it per instance to force the scratch path.
        """
        return self._target.delta_encoder(self._domain)

    def _lockstep(
        self,
        originals: np.ndarray,
        generators: Sequence[np.random.Generator],
        predictor: Any,
    ) -> list[InputOutcome]:
        """Alg. 1 over every stacked input at once → one outcome each.

        Each iteration mutates every active input's seeds, has
        *predictor* encode and predict all their children in one go,
        and retires inputs the moment their oracle flips.  Input *i*
        draws from ``generators[i]`` only, so its outcome does not
        depend on the others in the batch.
        """
        n = len(originals)
        cfg = self._config
        obs = self._obs
        target = self._target
        obs.count("inputs", n)
        # Alg. 1 line 1, "y = HDC(t)", for every input at once.
        ref_predictions = predictor.seed(originals)
        obs.count("seed_encodes", n)
        pool = SeedPoolBatch(originals, cfg.top_n)

        active = []
        outcomes: list[Optional[InputOutcome]] = [None] * n
        for i in range(n):
            reference = target.reference(ref_predictions, i)
            if self._oracle.reference_discrepancy(reference.votes):
                # HDXplore-style seed discrepancy: members already
                # disagree on the unmutated input — retire immediately.
                example = self._seed_discrepancy_example(originals[i], reference)
                obs.record_success(0, example.disagreed_members)
                outcomes[i] = InputOutcome(
                    success=True,
                    iterations=0,
                    reference_label=reference.label,
                    example=example,
                )
                continue
            active.append(_ActiveInput(i, originals[i], reference, generators[i]))

        for iteration in range(1, cfg.iter_times + 1):
            if not active:
                break
            obs.count("iterations", len(active))
            obs.heartbeat()
            with obs.phase("mutate"):
                plans = self._mutation_plans(active, pool)
            if not plans:
                # Every child blew the budget; the iteration still counts
                # and the seeds are retained.
                continue
            obs.count(
                "encode_requests", sum(len(children) for _, children, _ in plans)
            )
            block = predictor.predict(
                [(s.index, children, parents) for s, children, parents in plans]
            )
            # Nearest children first: a plan whose stage flips retires
            # with that stage's nearest flipped child, unencoded siblings
            # and all (see repro.fuzz.predictor).
            for stage in block.stages():
                for p, rows in stage:
                    state, children, _ = plans[p]
                    flips = self._discrepancies(
                        state.reference, block.predictions(rows)
                    )
                    if not flips.any():
                        continue
                    lo, hi = block.bounds[p], block.bounds[p + 1]
                    example = self._pick_success(
                        state.original, children, rows[flips] - lo, block.sizes(p),
                        block.labels[:, lo:hi], state.reference, iteration,
                    )
                    obs.record_success(iteration, example.disagreed_members)
                    outcomes[state.index] = InputOutcome(
                        success=True,
                        iterations=iteration,
                        reference_label=state.reference.label,
                        example=example,
                    )
                    block.retired.add(p)
            # Fitness, survival and side data see every child of a
            # surviving plan, in its original order.
            orders: list[tuple[int, np.ndarray]] = []
            for p, (state, children, _) in enumerate(plans):
                if p in block.retired:
                    continue
                lo, hi = block.bounds[p], block.bounds[p + 1]
                scores = self._score_children(
                    state.reference, block.predictions(slice(lo, hi)), state.generator
                )
                order = pool.update(state.index, children, scores)
                orders.append((state.index, order))
            # Whoever encoded the children keeps the survivors' side data.
            predictor.commit(orders)
            if block.retired:
                retired = {plans[p][0].index for p in block.retired}
                active = [s for s in active if s.index not in retired]

        if active:
            obs.count("exhausted", len(active))
        for state in active:
            outcomes[state.index] = InputOutcome(
                success=False,
                iterations=cfg.iter_times,
                reference_label=state.reference.label,
            )
        return outcomes  # type: ignore[return-value]

    def _mutation_plans(self, active, pool: SeedPoolBatch):
        """Mutate + clip + budget-filter each active input's seeds.

        Returns ``(state, children, parent_ids)`` triples for inputs
        with at least one in-budget child; inputs whose children all
        blew the budget simply sit the iteration out.
        """
        cfg = self._config
        plans = []
        for state in active:
            batches = [
                self._strategy.mutate(seed, cfg.children_per_seed, rng=state.generator)
                for seed in pool.seeds(state.index)
            ]
            if not isinstance(batches[0], np.ndarray):
                raise FuzzingError(
                    f"strategy {self._strategy.name!r} returned "
                    f"{type(batches[0]).__name__} children for an array seed; "
                    "strategies must stay in the domain's internal representation"
                )
            children = np.concatenate(batches, axis=0)
            self._obs.count("children", len(children))
            self._obs.count_strategy(self._strategy.name, len(children))
            children = self._constraint.clip(children)
            keep = self._constraint.accept(state.original, children)
            self._obs.count("children_in_budget", int(keep.sum()))
            if not keep.any():
                continue
            # Derived from actual batch lengths, not children_per_seed,
            # so a strategy returning an off-count batch cannot silently
            # pair children with the wrong parent.
            parent_ids = np.repeat(
                np.arange(len(batches)), [len(batch) for batch in batches]
            )[keep]
            plans.append((state, children[keep], parent_ids))
        return plans

    # -- target dispatch ---------------------------------------------------
    def _discrepancies(self, ref: TargetReference, predictions: TargetPredictions):
        """The oracle's flip mask, in single or cross-model form."""
        with self._obs.phase("oracle"):
            if self._target.n_members == 1:
                return self._oracle.discrepancies(ref.label, predictions.labels[0])
            return self._oracle.discrepancies_ensemble(ref.votes, predictions.labels)

    def _score_children(self, ref, predictions, generator) -> np.ndarray:
        """Fitness of the iteration's children (Alg. 1's survival scores)."""
        with self._obs.phase("fitness"):
            return self._fitness.scores(ref, predictions, rng=generator)

    # -- discrepancy reports ----------------------------------------------
    def _pick_success(
        self,
        original: np.ndarray,
        children,
        flipped: np.ndarray,
        sizes: np.ndarray,
        member_labels: np.ndarray,
        ref: TargetReference,
        iteration: int,
    ) -> AdversarialExample:
        """Among flipped children, keep the least-perturbed one.

        *flipped* holds the flipped children's positions, ascending, and
        *sizes* every child's perturbation size
        (:meth:`~repro.fuzz.constraints.Constraint.perturbation_sizes`:
        L2 when the constraint measures it, else edits, else 0); the
        smallest wins, ties to the lower position.  *original* and
        *children* arrive in the domain's internal representation; the
        reported example converts both back to the user-facing form
        (array copy for images/records, string for text).
        *member_labels* is the ``(K, n)`` prediction block — one row for
        a single model.
        """
        best = int(flipped[np.argmin(sizes[flipped])])
        chosen = children[best]
        adversarial_label, disagreed = self._example_labels(
            ref, member_labels[:, best]
        )
        return AdversarialExample(
            original=self._domain.to_external(original),
            adversarial=self._domain.to_external(chosen),
            reference_label=ref.label,
            adversarial_label=adversarial_label,
            iterations=iteration,
            metrics=self._constraint.measure(original, chosen),
            strategy=self._strategy.name,
            disagreed_members=disagreed,
        )

    def _example_labels(
        self, ref: TargetReference, labels_column: np.ndarray
    ) -> tuple[int, Optional[tuple[int, ...]]]:
        """Reported labels of one flipped child.

        Single model: the flipped prediction, no member bookkeeping.
        Ensemble: the adversarial label is the most common member label
        other than the reference (ties → lowest), and
        ``disagreed_members`` lists the members that left the reference
        label — the debugging loop's retraining signal.
        """
        if self._target.n_members == 1:
            return int(labels_column[0]), None
        counts = vote_counts(labels_column[:, None], self._target.n_classes)[0]
        counts[ref.label] = -1  # never report the reference as the flip
        adversarial_label = int(np.argmax(counts))
        disagreed = tuple(int(m) for m in np.nonzero(labels_column != ref.label)[0])
        return adversarial_label, disagreed

    def _seed_discrepancy_example(
        self, internal: np.ndarray, ref: TargetReference
    ) -> AdversarialExample:
        """An iteration-0 example for inputs the members already split on."""
        external = self._domain.to_external(internal)
        adversarial_label, disagreed = self._example_labels(ref, ref.votes)
        return AdversarialExample(
            original=external,
            adversarial=self._domain.to_external(internal),
            reference_label=ref.label,
            adversarial_label=adversarial_label,
            iterations=0,
            metrics=self._constraint.measure(internal, internal),
            strategy=self._strategy.name,
            disagreed_members=disagreed,
        )

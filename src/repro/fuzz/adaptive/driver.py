"""The adaptive campaign driver: corpus + bandit over any executor.

:func:`run_adaptive_campaign` closes the loop the fixed-strategy
campaigns leave open: instead of spending a fixed budget on one
hand-picked strategy over a static pool, each wave (1) asks the
:class:`~repro.fuzz.adaptive.bandit.ThompsonBandit` how to split its
iteration blocks across mutation strategies, (2) draws each block's
seeds from the evolving :class:`~repro.fuzz.adaptive.corpus.Corpus`,
(3) runs the block through whichever
:class:`~repro.fuzz.executor.CampaignExecutor` the caller picked, and
(4) feeds the block's retirements back into both: the bandit's
posterior and — minimised — the corpus.

Reproducibility: the scheduler draws (bandit Beta samples, per-block
seed derivation) come from one root generator that advances identically
whatever the executor, and every block hands the executor a *fresh*
generator built from a derived seed — so every schedule (serial,
batched, process) produces a bit-identical campaign from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.adaptive.bandit import ThompsonBandit
from repro.fuzz.adaptive.corpus import Corpus
from repro.fuzz.campaign import (
    ExecutorLike,
    TelemetryLike,
    _campaign_telemetry,
    _resolve_backend,
    _resolve_executor,
)
from repro.fuzz.fuzzer import HDTestConfig
from repro.fuzz.mutations import MutationStrategy, create_strategy
from repro.fuzz.results import AdversarialExample
from repro.fuzz.targets import resolve_target
from repro.obs.recorder import CampaignTelemetry, Stopwatch
from repro.utils.rng import RngLike, derive_seed, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["AdaptiveCampaignResult", "run_adaptive_campaign"]

#: Allocation schedules the driver understands.
SCHEDULES = ("thompson", "uniform")

#: Default strategy arms (`--strategies` default in the CLI too).
DEFAULT_ARMS = ("gauss", "rand", "shift")


@dataclass
class AdaptiveCampaignResult:
    """What an adaptive campaign produced, learned, and spent.

    ``allocation`` is the per-wave trace — one record per wave with the
    inputs scheduled and retired per arm — which the benchmark stores in
    its BENCH JSON and ``hdtest report`` renders as the allocation
    table.  ``attempts`` counts scheduled inputs (trials), ``n_found``
    every discrepancy observed including surplus beyond ``n_target``.
    """

    examples: list[AdversarialExample]
    elapsed_seconds: float
    attempts: int
    n_found: int
    schedule: str
    arms: tuple[str, ...]
    allocation: list[dict] = field(default_factory=list)
    bandit: dict = field(default_factory=dict)
    corpus: dict = field(default_factory=dict)
    telemetry: Optional[dict] = None
    executor: Optional[str] = None

    @property
    def n_examples(self) -> int:
        return len(self.examples)

    @property
    def encodes(self) -> int:
        """Hypervector blocks computed: children, seed references, and
        minimisation probes — the full encode bill the yield metric
        divides by."""
        if self.telemetry is None:
            return 0
        counters = self.telemetry.get("counters", {})
        return int(counters.get("encodes", 0) + counters.get("seed_encodes", 0))

    @property
    def discrepancies_per_encode(self) -> float:
        """The yield metric the bandit optimises for, campaign-wide."""
        return self.n_found / self.encodes if self.encodes else float("nan")

    def best_arm(self) -> str:
        """Arm with the highest posterior-mean retirement rate."""
        return max(self.bandit, key=lambda arm: self.bandit[arm]["mean"])

    def summary(self) -> dict:
        """JSON-ready campaign summary (the ``campaign_end`` payload)."""
        return {
            "schedule": self.schedule,
            "executor": self.executor,
            "n_examples": self.n_examples,
            "n_found": self.n_found,
            "attempts": self.attempts,
            "waves": len(self.allocation),
            "encodes": self.encodes,
            "discrepancies_per_encode": self.discrepancies_per_encode,
            "elapsed_seconds": self.elapsed_seconds,
            "best_arm": self.best_arm() if self.bandit else None,
            "bandit": self.bandit,
            "corpus": self.corpus,
        }

    def __repr__(self) -> str:
        return (
            f"AdaptiveCampaignResult(n={self.n_examples}, "
            f"attempts={self.attempts}, waves={len(self.allocation)}, "
            f"schedule={self.schedule!r})"
        )


def _discrepancy_predicate(target, example, rec: CampaignTelemetry):
    """``candidate -> still a discrepancy`` for L1-minimisation.

    A candidate keeps the discrepancy when the target's members disagree
    among themselves (the ensemble oracle's signal) or the lead member's
    label still differs from the example's reference label (the
    self-differential signal).  Every query is charged to the campaign
    recorder — minimisation encodes are real encodes, and the
    discrepancies-per-encode metric must not get them for free.
    """

    def predicate(candidate) -> bool:
        rec.count("minimize_queries")
        # Balanced exactly like an engine child encode (request +
        # actual), so the cache-hit arithmetic and the bandit's
        # request-based cost both see the probe.
        rec.count("encode_requests", target.n_encode_blocks)
        rec.count("encoded_children", target.n_encode_blocks)
        rec.count("encodes", target.n_encode_blocks)
        rec.count("am_queries", target.n_members)
        labels = target.predict([candidate])[:, 0]
        if np.unique(labels).size > 1:
            return True
        return int(labels[0]) != example.reference_label

    return predicate


def run_adaptive_campaign(
    model: Any,
    inputs: Sequence[Any],
    n_target: int,
    *,
    strategies: Iterable[Union[str, MutationStrategy]] = DEFAULT_ARMS,
    schedule: str = "thompson",
    evolve_corpus: bool = True,
    minimize: bool = True,
    strict: bool = True,
    block_size: int = 16,
    probe_size: Optional[int] = None,
    blocks_per_wave: Optional[int] = None,
    prior: tuple[float, float] = (1.0, 1.0),
    domain: Any = None,
    true_labels: Optional[Sequence[int]] = None,
    config: Optional[HDTestConfig] = None,
    constraint: Any = None,
    oracle: Any = None,
    fitness: Any = None,
    rng: RngLike = None,
    max_attempts_factor: int = 20,
    executor: ExecutorLike = "batched",
    backend: Optional[str] = None,
    telemetry: TelemetryLike = None,
) -> AdaptiveCampaignResult:
    """Fuzz until *n_target* discrepancies, scheduling blocks adaptively.

    Parameters
    ----------
    strategies:
        The bandit's arms — strategy names or instances sharing one
        domain namespace (``hdtest fuzz --adaptive --strategies
        gauss,rand,shift``).
    schedule:
        ``"thompson"`` allocates each wave's blocks by Thompson
        sampling; ``"uniform"`` round-robins the arms (the baseline the
        benchmark compares against).  Both consume identical scheduler
        randomness, so flipping the knob isolates the bandit's
        contribution.
    evolve_corpus:
        Re-enter retired adversarials (and near-miss midpoints) as
        seeds.  ``False`` keeps the pool static — with
        ``schedule="uniform"`` that reduces to a fixed uniform mix.
    minimize:
        Greedily L1-minimise adversarials before corpus re-entry
        (array domains only; the model queries this spends are charged
        to the campaign's encode counters).  Adversarials retired in a
        single iteration are admitted as-is — they were born one
        mutation from a corpus seed, so there is nothing left to shave
        and the queries would be pure overhead.
    strict:
        ``True`` (default) raises :class:`~repro.errors.FuzzingError`
        when the attempt budget runs out short of *n_target*;
        ``False`` returns the partial campaign instead — what the
        benchmark's budget-capped baselines need, since a hopeless
        fixed arm may never get there.
    block_size:
        Inputs per scheduled block — the bandit's decision granularity.
    probe_size:
        Inputs in an arm's *first* block (default 1).  A strategy's
        cost per input is unknown until it has run once, and a single
        full block of an encode-hungry arm can cost more than a whole
        campaign on a cheap one — so every arm gets a cheap probe
        before the bandit commits full blocks.  One input is enough:
        the probe's encode bill lands in the posterior's trial count,
        which is what demotes an expensive arm.
    blocks_per_wave:
        Blocks allocated per wave; default one per arm.
    prior:
        Beta pseudo-counts each arm starts from.
    executor:
        Any campaign executor (name or instance); the default batched
        schedule is right for the block sizes involved.  Note a
        :class:`~repro.fuzz.executor.ProcessExecutor` re-keys its pool
        when the strategy object changes, so blocks are grouped by arm
        within each wave to broadcast at most once per arm per wave.
    telemetry:
        Optional sink (see :func:`~repro.fuzz.campaign.compare_strategies`);
        an internal recorder is used when absent so the result always
        carries encode/retirement accounting.  Telemetry never touches
        the RNG — outcomes are bit-identical with it on or off.

    Returns
    -------
    AdaptiveCampaignResult
        Exactly *n_target* examples (surplus discrepancies are absorbed
        into the corpus and counted in ``n_found``), plus the
        allocation trace, posterior, and corpus composition.

    Raises
    ------
    FuzzingError
        When ``max_attempts_factor * n_target`` scheduled inputs run out
        before *n_target* discrepancies are found (``strict=True`` only).
    """
    n_target = check_positive_int(n_target, "n_target")
    max_attempts = n_target * check_positive_int(
        max_attempts_factor, "max_attempts_factor"
    )
    block_size = check_positive_int(block_size, "block_size")
    if probe_size is None:
        probe_size = 1
    probe_size = check_positive_int(probe_size, "probe_size")
    if schedule not in SCHEDULES:
        raise ConfigurationError(
            f"schedule must be one of {SCHEDULES}, got {schedule!r}"
        )
    strategy_objs = [
        s if isinstance(s, MutationStrategy) else create_strategy(s)
        for s in strategies
    ]
    if not strategy_objs:
        raise ConfigurationError("strategies is empty")
    names = [s.name for s in strategy_objs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate strategies in {names}")
    namespaces = {s.domain for s in strategy_objs}
    if len(namespaces) > 1:
        raise ConfigurationError(
            f"strategies span multiple domains {sorted(namespaces)}; "
            "fuzz one modality per campaign"
        )
    by_name = dict(zip(names, strategy_objs))
    if blocks_per_wave is None:
        blocks_per_wave = len(names)
    blocks_per_wave = check_positive_int(blocks_per_wave, "blocks_per_wave")

    generator = ensure_rng(rng)
    model = _resolve_backend(model, backend)
    target = resolve_target(model)
    # ``None`` picks the lock-step batched schedule; every schedule gives
    # the same outcomes.
    exec_obj, owns_executor = _resolve_executor(executor or "batched")
    obs, session = _campaign_telemetry(
        telemetry,
        "adaptive",
        strategies=list(names),
        schedule=schedule,
        executor=exec_obj.name,
        n_target=n_target,
    )
    rec = obs if obs is not None else CampaignTelemetry(label="adaptive")
    mark = rec.marker()

    corpus = Corpus(inputs, true_labels)
    bandit = ThompsonBandit(names, prior=prior)
    examples: list[AdversarialExample] = []
    allocation_trace: list[dict] = []
    attempts = 0
    n_found = 0
    round_robin = 0  # uniform schedule's rotating cursor
    seen_arms: set[str] = set()  # arms past their first (probe) block

    try:
        with Stopwatch() as sw:
            while len(examples) < n_target:
                if schedule == "thompson":
                    drawn = bandit.allocate(blocks_per_wave, generator)
                else:
                    drawn = [
                        names[(round_robin + j) % len(names)]
                        for j in range(blocks_per_wave)
                    ]
                    round_robin = (round_robin + blocks_per_wave) % len(names)
                wave = {
                    "wave": len(allocation_trace),
                    "scheduled": {},
                    "retired": {},
                    "encode_work": {},
                }
                # Blocks grouped per arm, visited in arm order: one
                # executor call per arm per wave (a process pool then
                # re-broadcasts at most once per arm), and a stable
                # visit order whatever the draw order was.
                for arm in names:
                    n_blocks = drawn.count(arm)
                    if n_blocks == 0:
                        continue
                    # First contact with an arm is a probe, whatever
                    # the draw said: its cost per input is unknown.
                    if arm not in seen_arms:
                        quota = min(probe_size, block_size)
                        seen_arms.add(arm)
                    else:
                        quota = n_blocks * block_size
                    n_sched = min(quota, max_attempts - attempts)
                    if n_sched == 0:
                        break
                    entries = corpus.batch(n_sched)
                    block_rng = np.random.default_rng(derive_seed(generator))
                    block_mark = rec.marker()
                    result = exec_obj.run(
                        model, by_name[arm], [e.payload for e in entries],
                        domain=domain, config=config, constraint=constraint,
                        fitness=fitness, oracle=oracle, rng=block_rng,
                        telemetry=rec,
                    )
                    attempts += n_sched
                    retired = 0
                    for position, outcome in enumerate(result.outcomes):
                        if not outcome.success:
                            continue
                        retired += 1
                        example = outcome.example
                        label = entries[position].true_label
                        if label is not None:
                            example = replace(example, true_label=label)
                        examples.append(example)
                        if evolve_corpus:
                            # One-iteration retirements were born a
                            # single mutation from a corpus seed —
                            # already minimal, skip the probe budget.
                            predicate = (
                                _discrepancy_predicate(target, example, rec)
                                if minimize and example.iterations > 1
                                else None
                            )
                            corpus.absorb(example, predicate=predicate)
                    n_found += retired
                    # Reward basis: retirements per unit of *requested*
                    # encode work.  Requests (plus seed encodes and the
                    # minimisation probes charged above) are derived
                    # from the per-input mutation streams alone, so the
                    # posterior — and hence the allocation — stays
                    # bit-identical across executors and batch sizes,
                    # and independent of the dedupe cache, which
                    # post-dedupe ``encodes`` are not.
                    block_counters = rec.since(block_mark).get("counters", {})
                    spent = int(
                        block_counters.get("encode_requests", 0)
                        + block_counters.get("seed_encodes", 0)
                    )
                    bandit.update(
                        arm, successes=retired, trials=max(spent, retired, 1)
                    )
                    rec.record_arm_block(arm, scheduled=n_sched, retired=retired)
                    wave["scheduled"][arm] = n_sched
                    wave["retired"][arm] = retired
                    wave["encode_work"][arm] = spent
                allocation_trace.append(wave)
                rec.heartbeat()
                if len(examples) < n_target and attempts >= max_attempts:
                    if not strict:
                        break
                    raise FuzzingError(
                        f"only {len(examples)}/{n_target} adversarials after "
                        f"{attempts} attempts — raise the budget, add arms, "
                        "or weaken the model"
                    )
    finally:
        if owns_executor:
            exec_obj.close()

    result = AdaptiveCampaignResult(
        examples=examples[:n_target],
        elapsed_seconds=sw.elapsed,
        attempts=attempts,
        n_found=n_found,
        schedule=schedule,
        arms=tuple(names),
        allocation=allocation_trace,
        bandit=bandit.snapshot(),
        corpus=corpus.snapshot(),
        telemetry=rec.since(mark),
        executor=exec_obj.name,
    )
    if session is not None:
        session.finish(obs, summary=result.summary())
    return result

"""Campaign runners: multi-strategy comparisons and fixed-count generation.

Two workflows from the paper's evaluation:

* :func:`compare_strategies` — one :class:`~repro.fuzz.results.CampaignResult`
  per strategy over the same input set (Table II, Fig. 7).
* :func:`generate_adversarial_set` — keep fuzzing (cycling through a
  pool of inputs) until exactly *n* adversarial examples exist, with
  ground-truth labels attached; this is the "generate 1000 adversarial
  images" step of the defense case study (Sec. V-D) and of the
  time-per-1K measurements.

Both accept an ``executor`` (name or
:class:`~repro.fuzz.executor.CampaignExecutor`) selecting how the
campaign is scheduled: the paper-literal serial loop, the lock-step
batched engine, a process pool, or one worker per ensemble member.
``None`` means ``"serial"``.  Every schedule gives input *i* its own
generator spawned from the root seed, so results are identical on all
of them (property-tested in ``tests/fuzz/test_campaign.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.constraints import Constraint
from repro.fuzz.domains import FuzzDomain
from repro.fuzz.executor import CampaignExecutor, SerialExecutor, create_executor
from repro.fuzz.fuzzer import HDTestConfig
from repro.fuzz.mutations import MutationStrategy, create_strategy
from repro.fuzz.results import AdversarialExample, CampaignResult
from repro.fuzz.targets import PredictionTarget
from repro.hdc.backends.dispatch import resolve_model_backend
from repro.hdc.model import HDCClassifier
from repro.obs.events import TelemetrySession
from repro.obs.recorder import CampaignTelemetry, Stopwatch
from repro.utils.rng import RngLike, ensure_rng, spawn
from repro.utils.validation import check_positive_int

__all__ = ["compare_strategies", "generate_adversarial_set"]

#: The four strategies Table II evaluates.
TABLE2_STRATEGIES = ("gauss", "rand", "row_col_rand", "shift")

ExecutorLike = Union[None, str, CampaignExecutor]

#: A telemetry sink for campaign runners: a bare recorder (caller owns
#: campaign boundaries) or a session (per-campaign events are emitted).
TelemetryLike = Union[None, CampaignTelemetry, TelemetrySession]


def _campaign_telemetry(
    telemetry: TelemetryLike, label: str, **meta
) -> tuple[Optional[CampaignTelemetry], Optional[TelemetrySession]]:
    """Resolve the per-campaign recorder (and owning session, if any).

    A :class:`~repro.obs.events.TelemetrySession` mints a fresh recorder
    per campaign (emitting the ``campaign_start`` header; callers emit
    ``campaign_end`` through the returned session); a bare
    :class:`~repro.obs.recorder.CampaignTelemetry` records everything
    into the caller's one stream without event boundaries.
    """
    if telemetry is None:
        return None, None
    if isinstance(telemetry, TelemetrySession):
        return telemetry.campaign(label, **meta), telemetry
    if isinstance(telemetry, CampaignTelemetry):
        return telemetry, None
    raise ConfigurationError(
        f"telemetry must be a CampaignTelemetry or TelemetrySession, "
        f"got {type(telemetry).__name__}"
    )


def _resolve_executor(executor: ExecutorLike) -> tuple[CampaignExecutor, bool]:
    """Resolve *executor*; the flag marks instances this call owns.

    ``None`` means ``"serial"``.  An executor created here from a name is
    *owned* — the campaign function closes it (releasing e.g. a
    persistent process pool) when it finishes.  Caller-provided
    instances are left open so their pools survive for the caller's next
    campaign.
    """
    if executor is None:
        executor = "serial"
    if isinstance(executor, CampaignExecutor):
        return executor, False
    if isinstance(executor, str):
        return create_executor(executor), True
    raise ConfigurationError(
        f"executor must be a name or CampaignExecutor, got {type(executor).__name__}"
    )


def _resolve_backend(model: Any, backend: Optional[str]) -> Any:
    """Re-target a model *or prediction target* for a compute backend.

    A :class:`~repro.fuzz.targets.PredictionTarget` repackages every
    member (exact); a bare model goes through
    :func:`~repro.hdc.backends.dispatch.resolve_model_backend` as
    before.
    """
    if isinstance(model, PredictionTarget):
        return model.with_backend(backend)
    return resolve_model_backend(model, backend)


def compare_strategies(
    model: HDCClassifier,
    inputs: Sequence[Any],
    strategies: Iterable[Union[str, MutationStrategy]] = TABLE2_STRATEGIES,
    *,
    domain: Union[None, str, FuzzDomain] = None,
    config: Optional[HDTestConfig] = None,
    constraint: Optional[Constraint] = None,
    oracle: Optional[Any] = None,
    rng: RngLike = None,
    executor: ExecutorLike = None,
    backend: Optional[str] = None,
    telemetry: TelemetryLike = None,
) -> dict[str, CampaignResult]:
    """Fuzz the same inputs under each strategy (Table II's experiment).

    Each strategy gets an independent child generator derived from
    *rng* with :func:`repro.utils.rng.spawn`, assigned by the
    strategy's *name* (rank in sorted order) — so results are
    reproducible, decorrelated across strategies, and invariant to the
    order in which strategies are listed.

    Parameters
    ----------
    domain:
        Input modality of the campaign (``"image"``, ``"text"``,
        ``"record"``/``"voice"``, a
        :class:`~repro.fuzz.domains.FuzzDomain`, or ``None`` to derive
        it from the strategies).  All listed strategies must share one
        domain namespace.
    oracle:
        Discrepancy rule shared by every per-strategy campaign;
        ``None`` keeps the engines' default (self-differential for
        single models, cross-model for
        :class:`~repro.fuzz.targets.ModelEnsembleTarget` inputs).
    executor:
        How to schedule each per-strategy campaign: an executor name
        (``"serial"``, the default when ``None``; ``"batched"``,
        ``"process"``) or a pre-built
        :class:`~repro.fuzz.executor.CampaignExecutor`.  Results do not
        depend on the choice.
    backend:
        Compute backend for the model: ``None``/``"dense"`` keeps it
        as-is; ``"packed"`` repackages a dense-binary model and
        ``"packed-bipolar"`` the paper's bipolar model onto bit-packed
        popcount kernels (exact — see
        :func:`repro.hdc.backends.dispatch.resolve_model_backend`).
    telemetry:
        Optional instrumentation sink.  A
        :class:`~repro.obs.events.TelemetrySession` gets one campaign
        (header + snapshots + final summary) per strategy; a bare
        :class:`~repro.obs.recorder.CampaignTelemetry` accumulates all
        strategies into the caller's recorder.  Telemetry never touches
        the RNG, so results are bit-identical with it on or off.
    """
    generator = ensure_rng(rng)
    model = _resolve_backend(model, backend)
    exec_obj, owns_executor = _resolve_executor(executor)
    strategy_objs = [
        strategy if isinstance(strategy, MutationStrategy) else create_strategy(strategy)
        for strategy in strategies
    ]
    names = [strategy.name for strategy in strategy_objs]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ConfigurationError(f"duplicate strategy {sorted(duplicates)[0]!r}")
    namespaces = {strategy.domain for strategy in strategy_objs}
    if len(namespaces) > 1:
        raise ConfigurationError(
            f"strategies span multiple domains {sorted(namespaces)}; "
            "compare one modality per campaign"
        )
    # One child generator per strategy, bound to the strategy *name* so
    # listing order cannot re-pair names with streams.
    children = spawn(generator, len(names))
    rank = {name: position for position, name in enumerate(sorted(names))}
    results: dict[str, CampaignResult] = {}
    try:
        for strategy in strategy_objs:
            strategy_rng = children[rank[strategy.name]]
            obs, session = _campaign_telemetry(
                telemetry,
                strategy.name,
                strategy=strategy.name,
                oracle=type(oracle).__name__ if oracle is not None else None,
                executor=exec_obj.name,
                n_inputs=len(inputs),
            )
            results[strategy.name] = exec_obj.run(
                model, strategy, inputs, domain=domain,
                config=config, constraint=constraint, oracle=oracle,
                rng=strategy_rng, telemetry=obs,
            )
            if session is not None:
                session.finish(obs, summary=results[strategy.name].summary())
    finally:
        if owns_executor:
            exec_obj.close()
    return results


def generate_adversarial_set(
    model: HDCClassifier,
    inputs: Sequence[Any],
    n_target: int,
    *,
    strategy: Union[str, MutationStrategy] = "gauss",
    domain: Union[None, str, FuzzDomain] = None,
    true_labels: Optional[Sequence[int]] = None,
    config: Optional[HDTestConfig] = None,
    constraint: Optional[Constraint] = None,
    rng: RngLike = None,
    max_attempts_factor: int = 20,
    executor: ExecutorLike = None,
    backend: Optional[str] = None,
    telemetry: TelemetryLike = None,
) -> tuple[list[AdversarialExample], float]:
    """Fuzz until *n_target* adversarial examples are collected.

    Inputs are visited in order and recycled (with fresh mutation
    randomness) as many times as needed; a hard cap of
    ``max_attempts_factor * n_target`` attempts guards against a model
    too robust for the chosen strategy/budget.

    Parameters
    ----------
    domain:
        Input modality (see :func:`compare_strategies`); text and
        record pools generate through the very same wave machinery.
    true_labels:
        Optional ground-truth labels aligned with *inputs*; attached to
        each example so the defense can retrain "with correct labels".
    executor:
        Executor name or instance (``None`` means ``"serial"``).  The
        cycled input pool is processed in waves, preserving visit
        order.  The serial executor runs waves of one input, so it stops
        at the *n_target*-th success.  Every other executor gets
        *adaptive* waves, sized from the success rate observed so far
        (see :func:`_wave_size`), which is how the batched and process
        engines reach their throughput without over-provisioning easy
        campaigns.  Examples do not depend on the executor.  A
        persistent executor (the process pool) is reused across waves —
        the model is broadcast once per campaign, not once per wave —
        and closed on return when it was created here from a name.
    backend:
        Compute backend for the model (see :func:`compare_strategies`).
    telemetry:
        Optional instrumentation sink (see :func:`compare_strategies`);
        one campaign spans the whole generation run, waves included.

    Returns
    -------
    (examples, elapsed_seconds):
        Exactly *n_target* examples and the wall-clock spent.
    """
    n_target = check_positive_int(n_target, "n_target")
    max_attempts = n_target * check_positive_int(
        max_attempts_factor, "max_attempts_factor"
    )
    if len(inputs) == 0:
        raise ConfigurationError("inputs is empty")
    if true_labels is not None and len(true_labels) != len(inputs):
        raise ConfigurationError(
            f"{len(true_labels)} true_labels for {len(inputs)} inputs"
        )
    generator = ensure_rng(rng)
    model = _resolve_backend(model, backend)
    exec_obj, owns_executor = _resolve_executor(executor)
    strategy_name = (
        strategy if isinstance(strategy, str) else strategy.name
    )
    obs, session = _campaign_telemetry(
        telemetry,
        f"generate[{strategy_name}]",
        strategy=strategy_name,
        n_target=n_target,
        executor=exec_obj.name,
    )
    examples: list[AdversarialExample] = []
    attempts = 0
    try:
        with Stopwatch() as sw:
            while len(examples) < n_target:
                if isinstance(exec_obj, SerialExecutor):
                    wave_size = 1
                else:
                    wave_size = _wave_size(
                        n_target - len(examples), attempts, len(examples),
                        len(inputs), max_attempts - attempts,
                    )
                indices = [(attempts + j) % len(inputs) for j in range(wave_size)]
                result = exec_obj.run(
                    model, strategy, [inputs[i] for i in indices], domain=domain,
                    config=config, constraint=constraint, rng=generator,
                    telemetry=obs,
                )
                attempts += wave_size
                # Tally *every* success — surplus ones in the final wave
                # are already-paid-for adversarials, and skipping them
                # would both discard them and bias the observed rate
                # `_wave_size` sizes the next wave from.  Only the
                # returned list is truncated to the requested count.
                for position, outcome in enumerate(result.outcomes):
                    if outcome.success:
                        examples.append(
                            _with_true_label(
                                outcome.example, true_labels, indices[position]
                            )
                        )
                if len(examples) < n_target and attempts >= max_attempts:
                    raise FuzzingError(
                        f"only {len(examples)}/{n_target} adversarials after "
                        f"{attempts} attempts — raise the budget or weaken the model"
                    )
    finally:
        if owns_executor:
            exec_obj.close()
    examples = examples[:n_target]
    if session is not None:
        session.finish(
            obs,
            summary={
                "n_examples": len(examples),
                "attempts": attempts,
                "elapsed_seconds": sw.elapsed,
            },
        )
    return examples, sw.elapsed


def _with_true_label(
    example: AdversarialExample,
    true_labels: Optional[Sequence[int]],
    index: int,
) -> AdversarialExample:
    if true_labels is None:
        return example
    return replace(example, true_label=int(true_labels[index]))


def _wave_size(
    remaining: int,
    attempts: int,
    successes: int,
    n_inputs: int,
    attempts_left: int,
) -> int:
    """Adaptive wave sizing: cover the deficit at the observed success rate.

    Before any signal exists (no completed attempts, or no success yet)
    the historical ``max(2×remaining, 16)`` heuristic applies.  After
    that, the wave is sized to ``remaining / rate`` with 25 % headroom:
    an easy model (rate ≈ 1) stops over-provisioning double waves, a
    robust one (rate ≪ ½) stops trickling through many under-sized
    waves.  The result is always clamped to the input pool and the
    remaining attempt budget.

    Per-input outcomes depend only on each input's own spawned
    generator, drawn from the root stream in visit order, so wave
    boundaries never change *which* adversarials are found — only how
    many scheduler round-trips finding them takes (property-tested in
    ``tests/fuzz/test_campaign.py``).
    """
    if attempts == 0 or successes == 0:
        want = max(2 * remaining, 16)
    else:
        rate = successes / attempts
        want = int(np.ceil(remaining / rate * 1.25))
    return max(1, min(n_inputs, attempts_left, max(want, 16)))

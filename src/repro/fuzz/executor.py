"""Pluggable campaign executors: how a fuzzing campaign is scheduled.

The fuzzing *algorithm* (Alg. 1) is fixed; how its per-input runs are
scheduled across the hardware is not.  A :class:`CampaignExecutor`
turns ``(model, strategy, inputs)`` into a
:class:`~repro.fuzz.results.CampaignResult` for any registered fuzzing
domain — image, text, or record campaigns all flow through the same
schedules (the ``domain`` keyword is forwarded to the engine).
``model`` may equally be a
:class:`~repro.fuzz.targets.PredictionTarget`: K-member ensembles run
the same schedules, with the whole ensemble broadcast once per worker
in the process pool.  The schedules:

* :class:`SerialExecutor` — the paper-literal loop, one input at a time
  (exactly :meth:`repro.fuzz.fuzzer.HDTest.fuzz`);
* :class:`BatchedExecutor` — the lock-step vectorized loop
  (:meth:`repro.fuzz.fuzzer.HDTest.fuzz_outcomes`) over chunks of
  ``batch_size`` inputs;
* :class:`ProcessExecutor` — multiprocessing over contiguous input
  shards: the model is broadcast to each worker once, every input gets
  a deterministic seed derived in the parent, and each shard runs the
  lock-step loop.

All schedules run the same Alg. 1 loop; only what it is handed
differs.  RNG discipline: every executor derives one 63-bit seed per
*input* from the root generator, in input order (the stream
:func:`repro.utils.rng.spawn` draws), and draws nothing else from it.
So per-input outcomes — guided *and* unguided — are identical across
all three schedules, invariant to ``batch_size`` and ``n_workers``, and
a caller that reuses one generator across runs (the waves of
:func:`~repro.fuzz.campaign.generate_adversarial_set`) sees the same
stream on every schedule.  The engines hand each input's generator to
the fitness function too, so the unguided baseline's random survival
draws from the same per-input stream as that input's mutations (see
:mod:`repro.fuzz.fitness`).

Pool reuse: :class:`ProcessExecutor` keeps its worker pool (and each
worker's engine) alive across :meth:`~CampaignExecutor.run` calls with
the same campaign spec, so
wave-mode callers such as
:func:`~repro.fuzz.campaign.generate_adversarial_set` broadcast the
model once instead of once per wave.  Call :meth:`~CampaignExecutor.close`
(or mutate the model object) to force a re-broadcast.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, ClassVar, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.constraints import Constraint
from repro.fuzz.domains import FuzzDomain
from repro.fuzz.fitness import FitnessFunction
from repro.fuzz.fuzzer import HDTest, HDTestConfig
from repro.fuzz.mutations import MutationStrategy
from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.results import CampaignResult, InputOutcome
from repro.obs.recorder import CampaignTelemetry, Stopwatch
from repro.utils.cores import usable_cores
from repro.utils.rng import RngLike, derive_seeds, spawn
from repro.utils.validation import check_positive_int

__all__ = [
    "CampaignExecutor",
    "SerialExecutor",
    "BatchedExecutor",
    "ProcessExecutor",
    "create_executor",
    "default_pool_policy",
    "default_schedule_policy",
    "default_worker_count",
    "executor_names",
    "payload_nbytes",
]

#: Environment variable overriding the default process-pool size.
WORKER_COUNT_ENV = "REPRO_FUZZ_WORKERS"

#: Fewest inputs a default-sized worker must amortise the model
#: broadcast and process start-up over before the policy grants it a
#: process (``benchmarks/bench_executor_scaling.py`` shows pools sized
#: past this lose to the batched engine on small campaigns).
MIN_INPUTS_PER_WORKER = 8

#: Default lock-step chunk size for the batched engine.
DEFAULT_BATCH_SIZE = 64


def default_worker_count() -> int:
    """Default :class:`ProcessExecutor` pool size for this machine.

    ``max(1, usable_cores() − 1)`` — saturate the cores this process may
    run on while leaving one for the parent process (which stacks shard
    results and feeds the pool).  Deployments can pin a different
    default with the ``REPRO_FUZZ_WORKERS`` environment variable; an
    explicit ``n_workers`` argument always wins.
    """
    env = os.environ.get(WORKER_COUNT_ENV)
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{WORKER_COUNT_ENV} must be a positive integer, got {env!r}"
            ) from None
        return check_positive_int(requested, WORKER_COUNT_ENV)
    return max(1, usable_cores() - 1)


def default_pool_policy(
    n_inputs: int,
    *,
    n_workers: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> tuple[int, int]:
    """Resolve ``(n_workers, batch_size)`` for a campaign of *n_inputs*.

    The repo-wide sizing policy, measured by
    ``benchmarks/bench_executor_scaling.py``:

    * **workers** — explicit values win; otherwise
      :func:`default_worker_count` capped so each process amortises its
      model broadcast and start-up over at least
      :data:`MIN_INPUTS_PER_WORKER` inputs (small campaigns get small
      pools rather than a fleet of idle broadcast copies).
    * **batch size** — explicit values win; otherwise one lock-step
      chunk per worker shard, capped at :data:`DEFAULT_BATCH_SIZE`
      (chunks larger than a shard buy nothing, chunks much smaller than
      64 give up vectorisation).

    Outcomes are invariant to both knobs by the executors' RNG
    discipline; this policy only sets the performance defaults.
    """
    n_inputs = max(int(n_inputs), 1)
    if n_workers is None:
        amortised = max(1, n_inputs // MIN_INPUTS_PER_WORKER)
        n_workers = min(default_worker_count(), amortised)
    n_workers = check_positive_int(n_workers, "n_workers")
    if batch_size is None:
        shard = -(-n_inputs // n_workers)  # ceil
        batch_size = min(DEFAULT_BATCH_SIZE, shard)
    return n_workers, check_positive_int(batch_size, "batch_size")


def default_schedule_policy(n_inputs: int, *, n_members: int = 1) -> str:
    """Pick an execution schedule: ``batched`` or ``process``.

    Layered on :func:`default_pool_policy` (which still sizes the pool):
    a campaign gets the process pool when it fills at least two input
    shards of :data:`MIN_INPUTS_PER_WORKER` inputs and the host has a
    second usable core; otherwise the in-process batched engine.
    *n_members* does not change the answer: the pool broadcasts a
    K-member ensemble whole, and the batched engine queries its members
    lock-step.

    Outcomes never depend on the choice (all schedules are bit-identical
    by the executors' RNG discipline); only throughput does.
    """
    # Guard on the *hardware* core count as well as the resolved worker
    # count: REPRO_FUZZ_WORKERS can request a pool, but on a one-core
    # host a pool only adds broadcast/IPC overhead on top of the same
    # serial compute, so the in-process engine wins unconditionally.
    if default_worker_count() <= 1 or usable_cores() <= 1:
        return "batched"
    input_shards = max(int(n_inputs), 1) // MIN_INPUTS_PER_WORKER
    return "process" if input_shards >= 2 else "batched"


def payload_nbytes(obj: Any) -> int:
    """Approximate bytes *obj* costs when pickled through an IPC channel.

    The telemetry layer's ``broadcast_bytes`` counter uses this instead
    of ``len(pickle.dumps(...))`` so instrumented runs never pay a
    second serialisation of large arrays: ndarrays count their buffer,
    containers recurse, and only unknown leaves (models at pool-build
    time) fall back to a real pickle measurement.
    """
    if obj is None or isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 16
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj) + 8
    if isinstance(obj, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set)):
        return 16 + sum(payload_nbytes(item) for item in obj)
    return len(pickle.dumps(obj))


class CampaignExecutor(ABC):
    """Strategy object scheduling one fuzzing campaign over its inputs."""

    #: Registry key and the value recorded on produced results.
    name: ClassVar[str] = ""

    @abstractmethod
    def run(
        self,
        model: Any,
        strategy: Union[str, MutationStrategy],
        inputs: Sequence[Any],
        *,
        domain: Union[None, str, FuzzDomain] = None,
        config: Optional[HDTestConfig] = None,
        constraint: Optional[Constraint] = None,
        fitness: Optional[FitnessFunction] = None,
        oracle: Optional[DifferentialOracle] = None,
        rng: RngLike = None,
        telemetry: Optional[CampaignTelemetry] = None,
    ) -> CampaignResult:
        """Fuzz *inputs* and return the aggregated campaign result.

        *domain* selects the input modality (name, instance, or ``None``
        to derive it from the strategy's namespace tag) and is passed
        through to the underlying engines unchanged.  *telemetry* is an
        optional :class:`~repro.obs.recorder.CampaignTelemetry` the
        engines record into; the produced result carries the campaign's
        telemetry delta.  Process pools record per worker and reduce the
        per-worker streams into *telemetry* order-invariantly.
        """

    def close(self) -> None:
        """Release any resources held across :meth:`run` calls (no-op here)."""

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(CampaignExecutor):
    """One input at a time — the paper-literal schedule."""

    name = "serial"

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None,
            rng: RngLike = None,
            telemetry: Optional[CampaignTelemetry] = None) -> CampaignResult:
        fuzzer = HDTest(
            model, strategy, domain=domain,
            config=config, constraint=constraint,
            fitness=fitness, oracle=oracle, rng=rng, telemetry=telemetry,
        )
        result = fuzzer.fuzz(inputs)
        result.executor = self.name
        return result


class BatchedExecutor(CampaignExecutor):
    """Lock-step vectorized schedule over chunks of *batch_size* inputs.

    Per-input child generators are spawned once for the whole campaign
    and sliced per chunk, so outcomes — guided and unguided alike — are
    invariant to ``batch_size`` (the fitness draws from each input's
    own generator; see the module docstring).
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.batch_size = check_positive_int(batch_size, "batch_size")

    name = "batched"

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None,
            rng: RngLike = None,
            telemetry: Optional[CampaignTelemetry] = None) -> CampaignResult:
        fuzzer = HDTest(
            model, strategy, domain=domain,
            config=config, constraint=constraint,
            fitness=fitness, oracle=oracle, rng=rng, telemetry=telemetry,
        )
        mark = fuzzer.telemetry.marker()
        generators = spawn(rng, len(inputs))
        with Stopwatch() as sw:
            outcomes = _fuzz_chunks(fuzzer, inputs, generators, self.batch_size)
        return fuzzer._result(outcomes, sw.elapsed, mark, self.name)  # noqa: SLF001

    def __repr__(self) -> str:
        return f"BatchedExecutor(batch_size={self.batch_size})"


def _fuzz_chunks(
    engine: HDTest,
    inputs: Sequence[Any],
    generators: Sequence[np.random.Generator],
    batch_size: int,
) -> list[InputOutcome]:
    """Lock-step over consecutive chunks of *batch_size* inputs."""
    outcomes: list[InputOutcome] = []
    for lo in range(0, len(inputs), batch_size):
        outcomes.extend(
            engine.fuzz_outcomes(
                inputs[lo : lo + batch_size],
                generators=generators[lo : lo + batch_size],
            )
        )
    return outcomes


# -- process pool plumbing (module-level for picklability) -----------------
_WORKER: dict[str, Any] = {}


def _process_worker_init(model, strategy, domain, config, constraint, fitness,
                         oracle, batch_size, telemetry_on=False) -> None:
    """Pool initializer: broadcast the campaign spec to this worker once."""
    _WORKER.clear()
    _WORKER.update(
        model=model, strategy=strategy, domain=domain, config=config,
        constraint=constraint, fitness=fitness, oracle=oracle,
        batch_size=batch_size, telemetry_on=telemetry_on,
    )


def _process_worker_run(
    shard: tuple[list[Any], list[int]]
) -> tuple[list[InputOutcome], Optional[dict]]:
    """Fuzz one contiguous input shard with its per-input seeds.

    The engine is built once per worker (from the broadcast spec and
    its first input's seed, so nothing draws per-worker OS entropy) and
    reused for every subsequent shard, across waves of a reused pool
    too.  Dedupe caches belong to each lock-step run, not to the engine,
    so a recycled input is encoded exactly as on every other schedule.
    The engine's own generator is never consulted: every input
    arrives with its own, and the fitness draws from it.

    Returns the shard's outcomes plus, for instrumented campaigns, the
    shard's local telemetry *delta* (a snapshot dict) — the worker's
    long-lived recorder is cumulative across shards and waves, so each
    shard reports only what it added and the parent reduction stays
    order-invariant and double-count-free.
    """
    inputs, seeds = shard
    fuzzer = _WORKER.get("fuzzer")
    if fuzzer is None:
        fuzzer = _WORKER["fuzzer"] = HDTest(
            _WORKER["model"], _WORKER["strategy"], domain=_WORKER["domain"],
            config=_WORKER["config"], constraint=_WORKER["constraint"],
            fitness=_WORKER["fitness"], oracle=_WORKER["oracle"], rng=seeds[0],
            telemetry=(
                CampaignTelemetry() if _WORKER.get("telemetry_on") else None
            ),
        )
    mark = fuzzer.telemetry.marker()
    generators = [np.random.default_rng(s) for s in seeds]
    outcomes = _fuzz_chunks(fuzzer, inputs, generators, _WORKER["batch_size"])
    return outcomes, fuzzer.telemetry.since(mark)


class ProcessExecutor(CampaignExecutor):
    """Multiprocessing over contiguous input shards.

    The trained model (with its codebooks) is broadcast to each worker
    once via the pool initializer; workers run the lock-step loop on
    their shard.  Every input's seed is derived in the parent from the
    root generator, so results — guided and unguided — equal
    :class:`BatchedExecutor`'s for the same *rng* regardless of
    ``n_workers``.

    The pool persists across :meth:`run` calls with an unchanged
    campaign spec (same model / strategy / config / constraint /
    fitness / oracle objects and untouched training counts), so
    wave-mode generation pays the pool start-up and model broadcast
    once.  Any spec change rebuilds the pool automatically;
    :meth:`close` releases it explicitly and must be called after
    mutating the model *in place* without changing its training counts.

    Parameters
    ----------
    n_workers:
        Worker process count.  ``None`` resolves through
        :func:`default_worker_count` — ``max(1, usable_cores() − 1)``,
        overridable machine-wide with the ``REPRO_FUZZ_WORKERS``
        environment variable — as the *cap*; each :meth:`run` then
        sizes its pool through :func:`default_pool_policy`, so small
        campaigns never pay for broadcast copies they cannot amortise.
        An explicit count disables the per-run cap.
    batch_size:
        Lock-step chunk size inside each worker; ``None`` lets
        :func:`default_pool_policy` match it to the shard size per run.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self._explicit_workers = n_workers is not None
        self._explicit_batch = batch_size is not None
        if n_workers is None:
            n_workers = default_worker_count()
        if batch_size is None:
            batch_size = DEFAULT_BATCH_SIZE
        self.n_workers = check_positive_int(n_workers, "n_workers")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self._pool = None
        self._pool_spec: Optional[tuple] = None
        # Strong references to the spec objects backing _pool_spec's
        # id()s — without them CPython could recycle a GC'd object's
        # address and falsely match a stale pool.
        self._pool_spec_refs: Optional[tuple] = None
        self._pool_processes = 0

    @staticmethod
    def _spec_key(model, strategy, domain, config, constraint, fitness, oracle,
                  telemetry_on):
        """Identity of the broadcast campaign spec, or None if not reusable.

        Object identities plus the model's training counts: every
        supported training path (``fit`` / ``retrain`` /
        ``retrain_hvs``) increments per-class counts, so a stale
        broadcast after retraining is detected without hashing the
        accumulators themselves.

        Workers keep their engine (and its unpickled components) alive
        across runs, so reuse is only safe when the fitness and oracle
        carry no evolving state — a reused worker's fitness that
        remembers what it scored before (a novelty bonus, say) would
        carry the previous run into the next and change outcomes.
        Unknown (custom) fitness or oracle types therefore return
        ``None``: the pool is rebuilt per run, the pre-reuse behaviour.
        """
        from repro.fuzz.fitness import (
            AgreementMarginFitness,
            DistanceGuidedFitness,
            RandomFitness,
        )
        from repro.fuzz.oracle import CrossModelOracle, DifferentialOracle, MajorityOracle
        from repro.fuzz.targets import PredictionTarget

        # RandomFitness qualifies because the engines feed it per-input
        # generators; its constructor stream is never consulted.
        stateless_fitness = (DistanceGuidedFitness, RandomFitness, AgreementMarginFitness)
        stateless_oracles = (DifferentialOracle, CrossModelOracle, MajorityOracle)
        if fitness is not None and type(fitness) not in stateless_fitness:
            return None
        if oracle is not None and type(oracle) not in stateless_oracles:
            return None
        if isinstance(model, PredictionTarget):
            # Ensembles: every member's training counts guard the
            # broadcast (retraining any one member must rebuild).
            counts = model.training_counts()
        else:
            am = getattr(model, "associative_memory", None)
            counts = am.counts.tobytes() if am is not None else b""
        strategy_key = strategy if isinstance(strategy, str) else id(strategy)
        domain_key = domain if isinstance(domain, str) else id(domain)
        # telemetry_on is part of the broadcast (workers build their
        # recorder at engine construction), so toggling it rebuilds.
        return (
            id(model), counts, strategy_key, domain_key,
            id(config), id(constraint), id(fitness), id(oracle),
            bool(telemetry_on),
        )

    def _ensure_pool(self, spec_key: tuple, spec_refs: tuple, initargs: tuple,
                     n_processes: int):
        """The live pool for *spec_key*, rebuilt on any spec change.

        The pool is sized to the shard count of the run that builds it
        (no idle broadcast copies for small campaigns) and grows by
        rebuild if a later run needs more parallelism than it has.
        """
        import multiprocessing as mp

        if (
            spec_key is not None
            and self._pool is not None
            and self._pool_spec == spec_key
            and self._pool_processes >= n_processes
        ):
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=n_processes,
            mp_context=mp.get_context(),
            initializer=_process_worker_init,
            initargs=initargs,
        )
        self._pool_spec = spec_key
        self._pool_spec_refs = spec_refs
        self._pool_processes = n_processes
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (next :meth:`run` rebuilds it).

        Graceful: idle workers drain and exit 0 (so coverage/atexit
        hooks inside workers run) and are reaped before this returns.
        A pool broken by a dead worker has already terminated the rest.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_spec = None
            self._pool_spec_refs = None
            self._pool_processes = 0

    def _raise_lost_shards(self, futures, shards, cause) -> None:
        """A worker died: name the shards whose results were lost, then raise.

        The broken pool has already failed every unfinished shard and
        terminated its other workers; closing it reaps them.
        """
        lost, lo = [], 0
        for shard_id, (future, shard) in enumerate(zip(futures, shards)):
            hi = lo + len(shard[0])
            if future.exception() is not None:
                lost.append(f"shard {shard_id} (inputs {lo}-{hi - 1})")
            lo = hi
        self.close()
        raise FuzzingError(
            f"a process-pool worker died; lost {', '.join(lost)}"
        ) from cause

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def run(self, model, strategy, inputs, *, domain=None, config=None,
            constraint=None, fitness=None, oracle=None,
            rng: RngLike = None,
            telemetry: Optional[CampaignTelemetry] = None) -> CampaignResult:
        # Validate the spec (and resolve the strategy name) up front, in
        # the parent, where errors are debuggable.
        probe = HDTest(
            model, strategy, domain=domain, config=config, constraint=constraint,
            fitness=fitness, oracle=oracle, telemetry=telemetry,
        )
        seeds = derive_seeds(rng, len(inputs))
        # Input-aware sizing: explicitly-set knobs pass through, unset
        # ones resolve against this campaign's size.  Outcomes do not
        # depend on either (RNG discipline above), only throughput does.
        pool_workers, batch_size = default_pool_policy(
            len(inputs),
            n_workers=self.n_workers if self._explicit_workers else None,
            batch_size=self.batch_size if self._explicit_batch else None,
        )
        pool_workers = min(pool_workers, self.n_workers)
        n_shards = min(pool_workers, max(len(inputs), 1))
        bounds = np.linspace(0, len(inputs), n_shards + 1, dtype=int)
        shards = [
            (list(inputs[lo:hi]), [int(s) for s in seeds[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        obs = probe.telemetry
        telemetry_on = telemetry is not None
        mark = obs.marker()
        outcomes: list[InputOutcome] = []
        with Stopwatch() as sw:
            if shards:
                n_processes = min(pool_workers, len(shards))
                initargs = (model, probe.strategy, probe.domain, config,
                            constraint, fitness, oracle, batch_size, telemetry_on)
                previous_pool = self._pool
                with obs.phase("broadcast"):
                    pool = self._ensure_pool(
                        self._spec_key(model, strategy, domain, config, constraint,
                                       fitness, oracle, telemetry_on),
                        (model, strategy, domain, config, constraint, fitness,
                         oracle),
                        initargs,
                        n_processes,
                    )
                if telemetry_on:
                    # What this run shipped to the pool: the spec once per
                    # worker when (re)built, plus every shard's inputs.
                    if pool is not previous_pool:
                        obs.count(
                            "broadcast_bytes",
                            payload_nbytes(initargs) * n_processes,
                        )
                    obs.count("broadcast_bytes", payload_nbytes(shards))
                futures = [pool.submit(_process_worker_run, shard) for shard in shards]
                for future in futures:
                    try:
                        shard_outcomes, shard_telemetry = future.result()
                    except BrokenProcessPool as exc:
                        self._raise_lost_shards(futures, shards, exc)
                    outcomes.extend(shard_outcomes)
                    if telemetry_on and shard_telemetry is not None:
                        # Spec-keyed, order-invariant reduction of the
                        # per-worker streams into the parent recorder.
                        obs.merge(shard_telemetry)
                obs.heartbeat()
        return probe._result(outcomes, sw.elapsed, mark, self.name)  # noqa: SLF001

    def __repr__(self) -> str:
        return f"ProcessExecutor(n_workers={self.n_workers}, batch_size={self.batch_size})"


_EXECUTORS: dict[str, type[CampaignExecutor]] = {
    cls.name: cls for cls in (SerialExecutor, BatchedExecutor, ProcessExecutor)
}


def executor_names() -> list[str]:
    """Registered executor names (CLI choices)."""
    return sorted(_EXECUTORS)


def create_executor(name: str, **params: Any) -> CampaignExecutor:
    """Instantiate the executor registered under *name* with *params*.

    Callers may pass one uniform ``batch_size``/``n_workers`` bundle:
    ``None`` always means *unset* — the executor's own default applies —
    while an explicit value for a knob the chosen executor cannot honour
    (e.g. ``n_workers`` with the batched executor) raises instead of
    being silently ignored.
    """
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: {executor_names()}"
        ) from None
    applicable = {
        SerialExecutor: (),
        BatchedExecutor: ("batch_size",),
        ProcessExecutor: ("batch_size", "n_workers"),
    }[cls]
    for key in list(params):
        if params[key] is None:
            del params[key]
        elif key not in applicable:
            raise ConfigurationError(
                f"{key}={params[key]!r} does not apply to the {name!r} executor"
            )
    return cls(**params)

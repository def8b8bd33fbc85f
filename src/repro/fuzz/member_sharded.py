"""Member-sharded ensemble execution: one persistent worker per member.

:class:`~repro.fuzz.executor.ProcessExecutor` shards campaigns by
*input*: every worker receives (and holds, and re-runs) all K ensemble
members, so per-worker memory and the one-off broadcast both scale with
K × workers.  This module shards by *member* instead — the ROADMAP's
"distributed differential testing" step 1, and the execution shape
FedDebug uses at federation scale: worker *m* owns exactly one
:class:`~repro.fuzz.targets.MemberShard` (the full member model for
independent-codebook ensembles; only the member's associative memory
for shared-codebook ones), the parent runs the Alg. 1 loop — mutation,
oracle, fitness and pool survival — and each iteration exchanges one
child block for K vote rows.

The parent engine is always the stock lock-step loop; only its
"children → predictions" step moves, in one of two ways chosen by the
target's shape:

* **Shared-codebook** (``n_encode_blocks == 1``) — the loop runs against
  a :class:`_VoteGatherTarget` proxy: encoding (delta or scratch, with
  the parent's dedupe caches) happens parent-side exactly as in
  lock-step, and only ``predict_hvs`` fans the encoded block out to the
  K AM-only workers.
* **Independent codebooks** — :class:`MemberShardedHDTest` swaps in a
  :class:`MemberPredictor`: the parent ships raw child blocks with
  their plan metadata, each worker encodes them through its own member
  with the in-process :class:`~repro.fuzz.predictor.LocalPredictor`
  (its own per-input dedupe caches and survivor accumulators) and
  replies with its label/similarity rows, and the survivor orders the
  parent's pool selects follow.

Stacking the rows in member order reproduces the lock-step
:class:`~repro.fuzz.targets.TargetPredictions` exactly, so the
parent-side decisions — and therefore campaign outcomes — match the
in-process engines bit for bit (property-tested in
``tests/fuzz/test_member_sharded.py``).  Arrays travel pickled through
the worker queues.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import traceback
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, FuzzingError
from repro.fuzz.executor import payload_nbytes
from repro.fuzz.fuzzer import HDTest
from repro.fuzz.predictor import LocalPredictor
from repro.fuzz.targets import (
    MemberShard,
    PredictionTarget,
    SingleModelTarget,
    TargetPredictions,
    resolve_target,
)
from repro.obs.recorder import NULL_TELEMETRY, CampaignTelemetry

__all__ = [
    "MemberPredictor",
    "MemberWorkerGroup",
    "MemberShardedHDTest",
    "create_member_engine",
]

#: Seconds between liveness checks while waiting on a worker reply.
_GATHER_POLL_SECONDS = 1.0


def _member_worker_main(shard, domain, config, request_q, reply_q) -> None:
    """Worker process main loop: serve one member until told to stop.

    A worker holding a whole member encodes through the in-process
    :class:`~repro.fuzz.predictor.LocalPredictor` over that member — the
    parent engine's own dedupe-cached delta or scratch encode, with a
    fresh predictor (and so fresh per-input caches) for every run it is
    seeded with.  An AM-only worker answers encoded blocks.  Every
    reply carries the request's encode count and encode/query seconds
    from a worker-local recorder.  Exceptions are shipped back as
    ``("error", member, traceback)`` replies instead of killing the
    process, so one failed request surfaces in the parent as a
    debuggable error.
    """
    obs = CampaignTelemetry()
    target = SingleModelTarget(shard.payload) if shard.encodes_locally else None
    handle = target.delta_encoder(domain) if target is not None else None
    predictor: Optional[LocalPredictor] = None
    while True:
        msg = request_q.get()
        op = msg[0]
        if op == "stop":
            break
        try:
            if op == "commit":
                predictor.commit(msg[1])
                continue
            encoded = obs.counters.get("encoded_children", 0)
            encode_s = obs.phase_seconds["encode"]
            query_s = obs.phase_seconds["query"]
            if op == "predict_hv":
                with obs.phase("query"):
                    labels, sims = shard.predict_block(msg[1], with_similarities=msg[2])
            else:
                if op == "seed":
                    surface = target.delta_surface(handle if msg[2] else None)
                    predictor = LocalPredictor(
                        target, surface, config.top_n * config.children_per_seed, obs
                    )
                    predictions = predictor.seed(msg[1])
                elif op == "predict":
                    predictions, _ = predictor.predict(msg[1], msg[2])
                else:
                    raise FuzzingError(f"unknown member-worker op {op!r}")
                labels = predictions.labels[0].astype(np.int64, copy=False)
                sims = predictions.similarities
                sims = None if sims is None else sims[0]
            reply_q.put((
                op, shard.member_index, labels, sims,
                obs.counters.get("encoded_children", 0) - encoded,
                obs.phase_seconds["encode"] - encode_s,
                obs.phase_seconds["query"] - query_s,
            ))
        except Exception:
            reply_q.put(("error", shard.member_index, traceback.format_exc()))


class MemberWorkerGroup:
    """K persistent member workers with per-worker request/reply queues.

    Unlike a :class:`multiprocessing.Pool`, requests must be *pinned*:
    worker *m* holds member *m*'s state (model, survivor accumulators,
    caches), so the group keeps one request queue per worker and
    gathers replies in member order — workers compute concurrently,
    the parent just reads the results as they land.

    Parameters
    ----------
    shards:
        One :class:`~repro.fuzz.targets.MemberShard` per member, in
        member order (``target.member_shards()``).
    domain:
        The resolved :class:`~repro.fuzz.domains.FuzzDomain` (workers
        derive their member's delta encoder from it).
    config:
        The resolved :class:`~repro.fuzz.fuzzer.HDTestConfig` (workers
        size their dedupe caches from it).
    """

    def __init__(self, shards: Sequence[MemberShard], domain: Any, config: Any) -> None:
        if len(shards) < 2:
            raise ConfigurationError(
                "member sharding needs an ensemble of >= 2 members"
            )
        self._shards = tuple(shards)
        ctx = mp.get_context()
        self._workers: list[tuple] = []
        for shard in self._shards:
            request_q: Any = ctx.Queue()
            reply_q: Any = ctx.Queue()
            process = ctx.Process(
                target=_member_worker_main,
                args=(shard, domain, config, request_q, reply_q),
                daemon=True,
            )
            process.start()
            self._workers.append((process, request_q, reply_q))
        self._closed = False

    # -- introspection -------------------------------------------------------
    @property
    def n_members(self) -> int:
        return len(self._workers)

    @property
    def encodes_locally(self) -> bool:
        return self._shards[0].encodes_locally

    @property
    def alive(self) -> bool:
        return not self._closed and all(w[0].is_alive() for w in self._workers)

    def worker_exitcodes(self) -> list[Optional[int]]:
        """Exit codes after :meth:`close` (all 0 ⇔ graceful shutdown)."""
        return [w[0].exitcode for w in self._workers]

    # -- messaging -----------------------------------------------------------
    def broadcast(self, msg: tuple, telemetry: Any) -> None:
        """Send *msg* to every worker, timed and sized into *telemetry*."""
        if self._closed:
            raise FuzzingError("member worker group is closed")
        with telemetry.phase("broadcast"):
            for _, request_q, _ in self._workers:
                request_q.put(msg)
        if telemetry.enabled:
            nbytes = payload_nbytes(msg) * len(self._workers)
            telemetry.count("broadcast_bytes", nbytes)

    def exchange(
        self, msg: tuple, telemetry: Any
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Broadcast *msg*, then gather every worker's reply to it."""
        self.broadcast(msg, telemetry)
        with telemetry.phase("gather"):
            return self._gather(msg[0], telemetry)

    def _get_reply(self, member: int):
        process, _, reply_q = self._workers[member]
        while True:
            try:
                return reply_q.get(timeout=_GATHER_POLL_SECONDS)
            except queue_module.Empty:
                if not process.is_alive():
                    raise FuzzingError(
                        f"member worker {member} (pid={process.pid}) died "
                        f"(exitcode {process.exitcode}) before replying"
                    ) from None

    def _gather(
        self, expect_op: str, telemetry: Any
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Collect one reply per worker → stacked ``(labels, sims)``.

        Replies are read in member order; workers compute concurrently
        and each row lands as soon as its member finishes.  Worker
        compute folds into *telemetry* the way the process pool folds
        shard deltas: encode / query seconds sum across workers, and
        member 0's encode count stands for ``encoded_children`` (the
        lock-step engine encodes each missing child once per member
        too, and identical caches make every member's count equal).
        """
        labels_rows, sims_rows, encoded = [], [], []
        encode_s = query_s = 0.0
        for member in range(self.n_members):
            reply = self._get_reply(member)
            if reply[0] == "error":
                raise FuzzingError(f"member worker {reply[1]} failed:\n{reply[2]}")
            op, _, labels, sims, n_encoded, worker_encode_s, worker_query_s = reply
            if op != expect_op:
                raise FuzzingError(
                    f"member worker {member} replied {op!r}, expected {expect_op!r}"
                )
            labels_rows.append(labels)
            sims_rows.append(sims)
            encoded.append(n_encoded)
            encode_s += worker_encode_s
            query_s += worker_query_s
        if telemetry.enabled:
            counters = {"encoded_children": encoded[0], "encodes": sum(encoded)}
            telemetry.merge({
                "counters": {name: n for name, n in counters.items() if n},
                "phase_seconds": {"encode": encode_s, "query": query_s},
                "busy_seconds": encode_s + query_s,
            })
        labels = np.stack(labels_rows)
        sims = None if sims_rows[0] is None else np.stack(sims_rows)
        return labels, sims

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: stop + join every worker.

        Falls back to ``terminate()`` only for workers that fail to
        drain their queue in time, so a healthy group always exits 0.
        """
        if self._closed:
            return
        self._closed = True
        for _, request_q, _ in self._workers:
            try:
                request_q.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process, request_q, reply_q in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join()
            # Nobody reads a stopped worker's queue any more: don't let
            # interpreter exit wait on flushing it (a killed worker may
            # have left unread requests in a full pipe).
            request_q.cancel_join_thread()
            request_q.close()
            reply_q.close()

    def __enter__(self) -> "MemberWorkerGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"MemberWorkerGroup(n_members={self.n_members}, alive={self.alive})"


class _VoteGatherTarget(PredictionTarget):
    """Shared-codebook proxy: parent-side encode, worker-side AM queries.

    Wraps a :class:`~repro.fuzz.targets.SharedCodebookEnsembleTarget`
    so the stock engine runs unchanged — every surface except
    ``predict_hvs`` delegates to the wrapped target (encode, delta,
    reference, member bookkeeping all happen in the parent on the same
    arrays as lock-step), and ``predict_hvs`` broadcasts the encoded
    block to the K AM-only workers and stacks their vote rows.  The
    broadcast/gather wall-time lands in the recorder's IPC phases (they
    are sub-phases of the engine's ``query`` phase here).
    """

    def __init__(self, inner: PredictionTarget, group: MemberWorkerGroup, obs) -> None:
        self._inner = inner
        self._group = group
        self._obs = obs

    @property
    def members(self) -> tuple[Any, ...]:
        return self._inner.members

    @property
    def n_encode_blocks(self) -> int:
        return 1

    def member_shards(self):
        return self._inner.member_shards()

    def encode_batch(self, children: np.ndarray) -> tuple[np.ndarray, ...]:
        return self._inner.encode_batch(children)

    def predict_hvs(self, bundle, *, with_similarities: bool = False):
        if len(bundle) != 1:
            raise ConfigurationError(
                f"{len(bundle)} hypervector blocks for a shared-codebook "
                "ensemble (expected 1)"
            )
        return TargetPredictions(
            *self._group.exchange(
                ("predict_hv", bundle[0], with_similarities), self._obs
            )
        )

    def reference(self, predictions: TargetPredictions, index: int = 0):
        return self._inner.reference(predictions, index)

    def delta_encoder(self, domain: Any) -> Any:
        return self._inner.delta_encoder(domain)

    def delta_surface(self, encoder_handle: Any):
        return self._inner.delta_surface(encoder_handle)


class MemberPredictor:
    """The loop's children → predictions step, run by K member workers.

    Each request is one broadcast: :meth:`seed` ships the originals,
    :meth:`predict` an iteration's plans (every input's child block
    with its index and parent ids), and each worker answers with its
    member's vote rows; :meth:`commit` then ships the survivor orders,
    so each worker's accumulators track the parent's pool without any
    score traffic.
    """

    def __init__(
        self, group: MemberWorkerGroup, delta_on: bool, telemetry: Any
    ) -> None:
        self._group = group
        self._delta_on = delta_on
        self._obs = telemetry

    def seed(self, originals: np.ndarray) -> TargetPredictions:
        labels, _ = self._group.exchange(("seed", originals, self._delta_on), self._obs)
        return TargetPredictions(labels)

    def predict(self, plans, with_similarities: bool = False):
        labels, sims = self._group.exchange(
            ("predict", plans, with_similarities), self._obs
        )
        return TargetPredictions(labels, sims), None

    def commit(self, orders) -> None:
        # Scratch-encoding workers keep no survivor state to update.
        if orders and self._delta_on:
            self._group.broadcast(("commit", orders), self._obs)


class MemberShardedHDTest(HDTest):
    """The independent-codebook member-sharded engine.

    The lock-step loop of :class:`~repro.fuzz.fuzzer.HDTest` with
    its encode + query step displaced into the member workers through a
    :class:`MemberPredictor`: the parent mutates, ships child blocks,
    assembles the gathered vote rows into the same
    :class:`~repro.fuzz.targets.TargetPredictions` the in-process path
    builds, and runs the oracle / fitness / survival phases unchanged.
    """

    def __init__(self, *args, group: MemberWorkerGroup, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self._target.n_members < 2:
            raise ConfigurationError(
                "member sharding needs an ensemble of >= 2 members; "
                "use the batched/process executors for single models"
            )
        if self._target.n_members != group.n_members:
            raise ConfigurationError(
                f"worker group holds {group.n_members} members but the "
                f"target has {self._target.n_members}"
            )
        self._group = group

    def _member_delta_allowed(self) -> bool:
        """Whether workers may delta-encode (their encoders permitting).

        Overridable test hook, like ``_delta_encoder`` for the
        in-process engines.  Per-member delta is decided worker-side, so
        mixed-width ensembles — which force the lock-step engine to
        scratch-encode (one shared accumulator width) — still get
        incremental encoding here, member by member.
        """
        return True

    def _predictor(self) -> MemberPredictor:
        # The workers hold the run's dedupe caches.
        return MemberPredictor(self._group, self._member_delta_allowed(), self._obs)


def create_member_engine(
    group: MemberWorkerGroup,
    model: Any,
    strategy: Any,
    *,
    telemetry=None,
    **engine_kwargs: Any,
) -> HDTest:
    """The right member-sharded engine for *model*'s target shape.

    Shared-codebook targets (one encode block) get the stock engine over
    a :class:`_VoteGatherTarget` proxy; independent ensembles get
    :class:`MemberShardedHDTest`.  Either way the parent runs mutation /
    oracle / fitness / survival and the workers answer member queries.
    """
    if not group.encodes_locally:
        obs = telemetry if telemetry is not None else NULL_TELEMETRY
        proxy = _VoteGatherTarget(resolve_target(model), group, obs)
        return HDTest(proxy, strategy, telemetry=telemetry, **engine_kwargs)
    return MemberShardedHDTest(
        model, strategy, group=group, telemetry=telemetry, **engine_kwargs
    )

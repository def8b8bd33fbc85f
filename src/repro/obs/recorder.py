"""The telemetry recorder: counters, phase timings, and the null object.

A running campaign is a black box without instrumentation: nothing
reports how iteration time splits across encode / AM query / mutation /
fitness / oracle, how effective the dedupe caches are, or which
strategy or ensemble member is producing the discrepancies.
:class:`CampaignTelemetry` is the low-overhead recorder both fuzzing
engines thread through their hot loops to answer exactly those
questions; :data:`NULL_TELEMETRY` is the do-nothing stand-in installed
when telemetry is off, so the instrumented code paths cost a handful of
no-op attribute calls per *iteration* (not per child) and campaign
outcomes stay bit-identical either way (property-tested in
``tests/obs/test_invariance.py``, overhead pinned ≤ 5 % by
``benchmarks/bench_fuzzing_throughput.py``).

Counter vocabulary (all monotonic, order-invariant under merge):

``inputs``
    Original inputs entering the engine.
``iterations``
    Fuzzing iterations executed, summed over inputs (a lock-step
    iteration with *b* live inputs counts *b*).
``children``
    Mutants generated, before constraint filtering; also broken out
    per strategy in :attr:`CampaignTelemetry.by_strategy`.
``children_in_budget`` / ``encode_requests``
    Mutants surviving clip + budget filter — every one needs a
    hypervector, so this equals the encode-request count.
``encoded_children``
    Child rows actually encoded (scratch or delta).
``children_skipped``
    Cache-missing children left unencoded because a nearer sibling
    flipped: the engine encodes an iteration's children nearest first
    and stops an input at its first discrepancy (see
    :mod:`repro.fuzz.predictor`).  The remainder ``encode_requests −
    encoded_children − children_skipped``, reported as the cache hit
    count, is the dedupe saving within each input's run: children
    repeated inside one iteration plus hits in the input's
    :class:`repro.utils.cache.LRUCache` of ``top_n × children_per_seed``
    recent children.  Every schedule makes the same runs, so all three
    are schedule-invariant.
``encodes``
    Hypervector blocks computed: ``encoded_children`` × the target's
    ``n_encode_blocks`` (K for independent ensembles, 1 for
    shared-codebook ones).
``seed_encodes``
    Original inputs scratch-encoded for their reference prediction.
``am_queries``
    Associative-memory query rows actually made: encoded or cached
    children *and* references, times ``n_members``.
``retired``
    Inputs retired by a discrepancy (successes, including
    ``seed_discrepancies`` — the iteration-0 pre-mutation splits).
``exhausted``
    Inputs that ran out of iteration budget.
``broadcast_bytes``
    Approximate bytes shipped from the campaign parent to worker
    processes (the process executor only; see
    :func:`repro.fuzz.executor.payload_nbytes`).

Phase wall-timings accumulate under the five :data:`PHASES` keys via
``with telemetry.phase("encode"): ...``; the phase timers are cached
per name so the steady-state cost of a timed block is two
``perf_counter`` calls.  The process executor additionally times the
:data:`IPC_PHASES` — ``broadcast``, building or reusing the worker pool
that the campaign spec ships to — which ``hdtest report`` surfaces next
to the engine phases.

Merging (:meth:`CampaignTelemetry.merge`) sums counters, phase
timings, and the per-strategy / per-member breakdowns, and concatenates
then sorts the retirement-iteration log — so reducing per-worker
telemetry from a process pool is associative, commutative, and
independent of shard order (spec-keyed workers can report in any
order).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Optional

from repro.errors import ConfigurationError

__all__ = [
    "PHASES",
    "IPC_PHASES",
    "Stopwatch",
    "CampaignTelemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
]

#: The engine phases whose wall-clock split telemetry records.
PHASES = ("encode", "query", "mutate", "fitness", "oracle")

#: IPC phases the process executor adds on top of :data:`PHASES`.
#: Created lazily on first use (single-process snapshots stay five-key).
IPC_PHASES = ("broadcast",)


class Stopwatch:
    """A context-manager stopwatch: ``with Stopwatch() as sw: ...``.

    The repo's single wall-clock primitive — campaign runners, the
    telemetry recorder, and the paper-metric helpers in
    :mod:`repro.metrics.timing` all time through it.
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self._elapsed = time.perf_counter() - self._start
        self._start = None

    @property
    def elapsed(self) -> float:
        """Elapsed seconds (live while running, frozen after exit)."""
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed


class _NullPhase:
    """The no-op phase context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class NullTelemetry:
    """Telemetry that records nothing — the disabled-path stand-in.

    Every recording method is an empty no-op and :meth:`phase` returns
    one shared do-nothing context manager, so instrumented hot loops
    pay only the attribute call when telemetry is off.  ``enabled`` is
    False; the marker/delta surface returns ``None`` so callers can
    attach ``telemetry.since(mark)`` to results unconditionally.
    """

    __slots__ = ()
    enabled = False

    def phase(self, name: str) -> _NullPhase:
        """A no-op context manager (the shared null phase)."""
        return _NULL_PHASE

    def count(self, name: str, n: int = 1) -> None:
        """Discard a counter increment."""

    def count_strategy(self, name: str, n: int) -> None:
        """Discard a per-strategy child count."""

    def record_success(self, iteration, disagreed_members=None) -> None:
        """Discard a retirement record."""

    def record_arm_block(self, arm: str, *, scheduled: int, retired: int) -> None:
        """Discard an adaptive-scheduler block record."""

    def heartbeat(self) -> None:
        """Discard a liveness tick."""

    def marker(self) -> None:
        """No state to mark."""
        return None

    def since(self, marker) -> None:
        """No delta to report."""
        return None


#: The shared disabled-telemetry instance engines default to.
NULL_TELEMETRY = NullTelemetry()


def _cache_hits(counters: dict) -> int:
    """Encode requests neither encoded nor skipped: the dedupe savings."""
    return (
        counters.get("encode_requests", 0)
        - counters.get("encoded_children", 0)
        - counters.get("children_skipped", 0)
    )


class _PhaseTimer:
    """Accumulating timer for one phase (cached per name, not reentrant)."""

    __slots__ = ("_phases", "_name", "_t0")

    def __init__(self, phases: dict, name: str) -> None:
        self._phases = phases
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._phases[self._name] += time.perf_counter() - self._t0
        return False


class CampaignTelemetry:
    """Monotonic counters + phase timings for one fuzzing campaign.

    Parameters
    ----------
    session:
        Optional :class:`~repro.obs.events.TelemetrySession` that
        receives periodic snapshot events (JSONL records, live progress)
        on :meth:`heartbeat`.  ``None`` records silently — counters and
        timings are still available through :meth:`snapshot`.
    label:
        Campaign label stamped on emitted events (usually the strategy
        name).
    meta:
        Static campaign metadata for the session's header event
        (oracle, executor, member count, …).

    Examples
    --------
    >>> telemetry = CampaignTelemetry()
    >>> with telemetry.phase("encode"):
    ...     pass
    >>> telemetry.count("encodes", 3)
    >>> telemetry.snapshot()["counters"]["encodes"]
    3
    """

    enabled = True

    def __init__(
        self,
        session: Optional[Any] = None,
        *,
        label: str = "",
        meta: Optional[dict] = None,
    ) -> None:
        self.label = label
        self.meta = dict(meta or {})
        self.counters: dict[str, int] = {}
        self.phase_seconds: dict[str, float] = {name: 0.0 for name in PHASES}
        self.by_strategy: dict[str, int] = {}
        self.by_member: dict[int, int] = {}
        #: Adaptive-scheduler accounting: per bandit arm, the number of
        #: scheduled blocks, inputs scheduled, and inputs retired.
        self.by_arm: dict[str, dict[str, int]] = {}
        #: Iteration at which each retirement happened (0 = seed
        #: discrepancy) — the HDXplore discrepancies-over-iterations log.
        self.retired_at: list[int] = []
        self.busy_seconds = 0.0  # merged worker wall-clock (parallel sum)
        self._session = session
        self._timers: dict[str, _PhaseTimer] = {}
        self._start = time.perf_counter()

    # -- recording (hot path) ----------------------------------------------
    def phase(self, name: str) -> _PhaseTimer:
        """Accumulating wall-clock context manager for phase *name*."""
        timer = self._timers.get(name)
        if timer is None:
            if name not in self.phase_seconds:
                self.phase_seconds[name] = 0.0
            timer = self._timers[name] = _PhaseTimer(self.phase_seconds, name)
        return timer

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def count_strategy(self, name: str, n: int) -> None:
        """Attribute *n* generated children to strategy *name*."""
        self.by_strategy[name] = self.by_strategy.get(name, 0) + n

    def record_success(
        self,
        iteration: int,
        disagreed_members: Optional[Iterable[int]] = None,
    ) -> None:
        """Record one retirement: the input produced a discrepancy.

        *iteration* 0 marks a seed discrepancy (members disagreed
        before any mutation); *disagreed_members* attributes ensemble
        disagreements to member indices.
        """
        self.count("retired")
        if iteration == 0:
            self.count("seed_discrepancies")
        self.retired_at.append(int(iteration))
        if disagreed_members is not None:
            for member in disagreed_members:
                member = int(member)
                self.by_member[member] = self.by_member.get(member, 0) + 1

    def record_arm_block(self, arm: str, *, scheduled: int, retired: int) -> None:
        """Record one adaptive-scheduler block: *scheduled* inputs were
        allocated to bandit arm *arm* and *retired* of them produced a
        discrepancy (see :mod:`repro.fuzz.adaptive`)."""
        stats = self.by_arm.setdefault(
            arm, {"blocks": 0, "scheduled": 0, "retired": 0}
        )
        stats["blocks"] += 1
        stats["scheduled"] += int(scheduled)
        stats["retired"] += int(retired)

    def heartbeat(self) -> None:
        """Liveness tick from the engine loop (rate-limited downstream).

        Cheap when no session is attached; with one, the session
        decides (by its snapshot interval) whether to emit a JSONL
        snapshot / progress-line update from :meth:`snapshot`.
        """
        if self._session is not None:
            self._session.maybe_snapshot(self)

    # -- reading -----------------------------------------------------------
    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since this recorder was created."""
        return time.perf_counter() - self._start

    @property
    def cache_hits(self) -> int:
        """Encode requests served without encoding (dedupe savings)."""
        return _cache_hits(self.counters)

    @property
    def cache_hit_rate(self) -> float:
        """``cache_hits / encode_requests`` (NaN before any request)."""
        requests = self.counters.get("encode_requests", 0)
        return self.cache_hits / requests if requests else float("nan")

    def snapshot(self) -> dict:
        """The full state as a JSON-ready dict (the merge/serialise form)."""
        return {
            "label": self.label,
            "meta": dict(self.meta),
            "elapsed_seconds": self.elapsed_seconds,
            "busy_seconds": self.busy_seconds,
            "counters": dict(self.counters),
            "cache_hits": self.cache_hits,
            "phase_seconds": dict(self.phase_seconds),
            "by_strategy": dict(self.by_strategy),
            "by_member": {str(k): v for k, v in self.by_member.items()},
            "by_arm": {arm: dict(stats) for arm, stats in self.by_arm.items()},
            "retired_at": list(self.retired_at),
        }

    # -- campaign deltas ----------------------------------------------------
    def marker(self) -> dict:
        """A point-in-time mark; pass to :meth:`since` for a delta dict.

        Lets one long-lived recorder serve several campaign runs (wave
        mode, strategy comparisons) while each run still attaches an
        accurate per-run telemetry record to its
        :class:`~repro.fuzz.results.CampaignResult`.
        """
        return self.snapshot()

    def since(self, marker: Optional[dict]) -> dict:
        """The delta snapshot accumulated after *marker* was taken."""
        now = self.snapshot()
        if marker is None:
            return now
        for key in ("counters", "phase_seconds", "by_strategy", "by_member"):
            base = marker.get(key, {})
            now[key] = {
                name: round(value - base.get(name, 0), 9)
                if isinstance(value, float)
                else value - base.get(name, 0)
                for name, value in now[key].items()
            }
            now[key] = {k: v for k, v in now[key].items() if v}
        # by_arm nests one stats dict per arm; delta each arm field-wise
        # and drop arms the window never touched.
        base_arms = marker.get("by_arm", {})
        now["by_arm"] = {
            arm: delta
            for arm, stats in now.get("by_arm", {}).items()
            for delta in [
                {
                    field: value - base_arms.get(arm, {}).get(field, 0)
                    for field, value in stats.items()
                    if value - base_arms.get(arm, {}).get(field, 0)
                }
            ]
            if delta
        }
        now["cache_hits"] = _cache_hits(now["counters"])
        now["elapsed_seconds"] -= marker.get("elapsed_seconds", 0.0)
        now["busy_seconds"] -= marker.get("busy_seconds", 0.0)
        n_before = len(marker.get("retired_at", []))
        now["retired_at"] = now["retired_at"][n_before:]
        return now

    # -- merging (process-pool reduction) ------------------------------------
    def merge(self, other: Any) -> "CampaignTelemetry":
        """Fold another recorder (or its snapshot dict) into this one.

        Sums counters, phase timings, and breakdowns; concatenates and
        sorts the retirement log (order-invariance: merging shard
        reports in any order yields identical state); accumulates the
        other recorder's wall-clock into :attr:`busy_seconds` (parallel
        workers overlap, so their elapsed must not sum into this
        recorder's own).
        """
        state = other.snapshot() if isinstance(other, CampaignTelemetry) else other
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"cannot merge {type(other).__name__} into CampaignTelemetry"
            )
        for name, value in state.get("counters", {}).items():
            self.count(name, int(value))
        for name, value in state.get("phase_seconds", {}).items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + value
        for name, value in state.get("by_strategy", {}).items():
            self.count_strategy(name, int(value))
        for member, value in state.get("by_member", {}).items():
            member = int(member)
            self.by_member[member] = self.by_member.get(member, 0) + int(value)
        for arm, stats in state.get("by_arm", {}).items():
            mine = self.by_arm.setdefault(arm, {})
            for field, value in stats.items():
                mine[field] = mine.get(field, 0) + int(value)
        self.retired_at = sorted(self.retired_at + list(state.get("retired_at", [])))
        self.busy_seconds += state.get("busy_seconds", 0.0) + state.get(
            "elapsed_seconds", 0.0
        )
        return self

    def __repr__(self) -> str:
        return (
            f"CampaignTelemetry(label={self.label!r}, "
            f"counters={len(self.counters)}, "
            f"retired={self.counters.get('retired', 0)})"
        )

"""JSONL telemetry event stream: the session, writer, and reader.

A :class:`TelemetrySession` owns the sinks for one CLI run or test: an
optional JSONL file receiving structured event records and an optional
live single-line progress renderer.  Campaign recorders are minted via
:meth:`TelemetrySession.campaign`, which emits the campaign header;
their :meth:`~repro.obs.recorder.CampaignTelemetry.heartbeat` calls
land here and are rate-limited into periodic ``snapshot`` events;
:meth:`TelemetrySession.finish` emits the final summary.

Event records (one JSON object per line)::

    {"event": "campaign_start", "label": ..., "meta": {...}, "time": ...}
    {"event": "snapshot", "label": ..., "elapsed_seconds": ...,
     "counters": {...}, "phase_seconds": {...}, ...}
    {"event": "campaign_end", "label": ..., "telemetry": {...},
     "summary": {...}, "peak_rss_mb": ..., "time": ...}
    {"event": "profile", "hotspots": [...], "time": ...}

``hdtest report`` re-renders a campaign report from exactly this
stream (see :mod:`repro.obs.report`); :func:`read_events` is the
matching reader.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import IO, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.progress import ProgressRenderer
from repro.obs.recorder import CampaignTelemetry

__all__ = ["TelemetryEvents", "TelemetrySession", "peak_rss_mb", "read_events"]

#: Default minimum seconds between emitted snapshot events.
DEFAULT_SNAPSHOT_INTERVAL = 0.5


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its waited-for children, MB.

    ``ru_maxrss`` (KiB on Linux) of ``RUSAGE_SELF`` plus
    ``RUSAGE_CHILDREN``, as the repository benchmark reads it.
    """
    import resource

    usage = resource.getrusage
    kib = usage(resource.RUSAGE_SELF).ru_maxrss + usage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _sanitize(value):
    """*value* with every non-finite float replaced by ``None``, recursively.

    Telemetry payloads routinely carry NaN (``avg_l1`` with no
    successes) and occasionally Inf — nested arbitrarily deep in
    summary dicts, per-member breakdowns, or snapshot lists.
    ``json.dumps`` would emit the bare ``NaN``/``Infinity`` literals,
    which are not JSON; every record is scrubbed here so the stream
    keeps its strict-JSON contract for external consumers.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


class TelemetrySession:
    """Sink owner for telemetry: JSONL event file and/or live progress.

    Parameters
    ----------
    jsonl_path:
        Path for the JSONL event stream, or ``None`` for no file.  The
        file is created lazily on the first event and truncated (one
        session = one stream).
    progress:
        ``True`` renders a live single-line status to *stream*
        (default ``sys.stderr``) on each snapshot.
    snapshot_interval:
        Minimum seconds between snapshot emissions; heartbeats arriving
        faster are dropped, keeping per-iteration cost O(1).

    Examples
    --------
    >>> with TelemetrySession("events.jsonl") as session:  # doctest: +SKIP
    ...     telemetry = session.campaign("gauss", oracle="cross-model")
    ...     ...  # run the campaign with this recorder
    ...     session.finish(telemetry, summary=result.summary())
    """

    def __init__(
        self,
        jsonl_path: Optional[Union[str, Path]] = None,
        *,
        progress: bool = False,
        stream: Optional[IO[str]] = None,
        snapshot_interval: float = DEFAULT_SNAPSHOT_INTERVAL,
    ) -> None:
        if snapshot_interval < 0:
            raise ConfigurationError(
                f"snapshot_interval must be >= 0, got {snapshot_interval}"
            )
        self._path = Path(jsonl_path) if jsonl_path is not None else None
        self._file: Optional[IO[str]] = None
        self._open_mode = "w"
        self._renderer = ProgressRenderer(stream) if progress else None
        self.snapshot_interval = float(snapshot_interval)
        self._last_snapshot = float("-inf")
        self.events_emitted = 0

    # -- campaign lifecycle -------------------------------------------------
    def campaign(self, label: str, **meta) -> CampaignTelemetry:
        """Mint a recorder for one campaign and emit its header event."""
        self.emit(
            {
                "event": "campaign_start",
                "label": label,
                "meta": meta,
                "time": time.time(),
            }
        )
        self._last_snapshot = float("-inf")
        return CampaignTelemetry(self, label=label, meta=meta)

    def maybe_snapshot(self, telemetry: CampaignTelemetry) -> None:
        """Rate-limited snapshot: emit if the interval has elapsed."""
        now = time.perf_counter()
        if now - self._last_snapshot < self.snapshot_interval:
            return
        self._last_snapshot = now
        record = telemetry.snapshot()
        record.pop("meta", None)
        record["event"] = "snapshot"
        self.emit(record)
        if self._renderer is not None:
            self._renderer.render(record)

    def finish(
        self,
        telemetry: CampaignTelemetry,
        summary: Optional[dict] = None,
    ) -> None:
        """Emit the campaign's final ``campaign_end`` record.

        The record's ``peak_rss_mb`` sits beside the telemetry, not in
        its counters: memory is a property of the process, and the
        counters must stay equal across schedules.
        """
        if self._renderer is not None:
            self._renderer.finish()
        self.emit(
            {
                "event": "campaign_end",
                "label": telemetry.label,
                "telemetry": telemetry.snapshot(),
                "summary": summary,
                "peak_rss_mb": peak_rss_mb(),
                "time": time.time(),
            }
        )

    # -- plumbing ------------------------------------------------------------
    def emit(self, record: dict) -> None:
        """Append one event record to the JSONL stream (if any).

        Records are sanitised recursively (non-finite floats become
        ``null`` at any nesting depth) and serialised with
        ``allow_nan=False``, so a value the sanitiser cannot reach fails
        loudly here instead of corrupting the stream downstream.
        """
        self.events_emitted += 1
        if self._path is None:
            return
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # The first open of a session truncates (one session = one
            # stream); any later lazy reopen — e.g. an emit after
            # close() — must append, not destroy the flushed events.
            self._file = self._path.open(self._open_mode, encoding="utf-8")
            self._open_mode = "a"
        self._file.write(
            json.dumps(_sanitize(record), separators=(",", ":"), allow_nan=False)
            + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        """Flush and close the sinks (idempotent)."""
        if self._renderer is not None:
            self._renderer.finish()
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TelemetryEvents(list):
    """The event dicts of a telemetry stream, in order.

    ``torn_line`` is the 1-based number of a final line that was
    dropped because a crash cut its write short — no trailing newline,
    not parseable — and ``None`` when the stream ended cleanly.
    """

    torn_line: Optional[int] = None


def read_events(path: Union[str, Path]) -> TelemetryEvents:
    """Read a telemetry JSONL stream back into a list of event dicts.

    A final line that lacks its trailing newline and does not parse is
    a write torn by a crash: the complete records before it are
    returned and :attr:`TelemetryEvents.torn_line` names it.  Every
    other malformed line raises :class:`~repro.errors.ConfigurationError`.
    """
    events = TelemetryEvents()
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):  # only the final line can lack one
                    events.torn_line = lineno
                    break
                raise ConfigurationError(
                    f"{path}:{lineno}: not a JSONL telemetry record: {exc}"
                ) from exc
            if not isinstance(record, dict) or "event" not in record:
                raise ConfigurationError(
                    f"{path}:{lineno}: telemetry records must be objects "
                    "with an 'event' key"
                )
            events.append(record)
    return events

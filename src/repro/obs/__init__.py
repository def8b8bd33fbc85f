"""Campaign observability: telemetry counters, events, progress, reports.

The instrumentation subsystem both fuzzing engines and all executors
thread through their hot loops (ISSUE 7):

- :class:`CampaignTelemetry` / :data:`NULL_TELEMETRY` — monotonic
  counters and phase wall-timings, with order-invariant merge semantics
  for process-pool reduction (:mod:`repro.obs.recorder`);
- :class:`TelemetrySession` — the JSONL event stream plus live
  progress sink behind ``hdtest fuzz --telemetry/--progress``
  (:mod:`repro.obs.events`);
- :func:`render_report` — the ``hdtest report`` renderer for telemetry
  JSONL streams and saved campaign JSON (:mod:`repro.obs.report`);
- :func:`profile_call` — the ``--profile`` cProfile hotspot wrapper
  (:mod:`repro.obs.profiling`).
"""

from repro.obs.events import TelemetryEvents, TelemetrySession, read_events
from repro.obs.profiling import format_hotspots, profile_call
from repro.obs.progress import ProgressRenderer
from repro.obs.recorder import (
    IPC_PHASES,
    NULL_TELEMETRY,
    PHASES,
    CampaignTelemetry,
    NullTelemetry,
    Stopwatch,
)
from repro.obs.report import load_campaign_records, render_report

__all__ = [
    "CampaignTelemetry",
    "IPC_PHASES",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "PHASES",
    "ProgressRenderer",
    "Stopwatch",
    "TelemetryEvents",
    "TelemetrySession",
    "format_hotspots",
    "load_campaign_records",
    "profile_call",
    "read_events",
    "render_report",
]

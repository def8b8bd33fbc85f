"""Render campaign reports from telemetry streams or saved campaigns.

``hdtest report <source>`` lands here.  *source* is either a telemetry
JSONL file written by a :class:`~repro.obs.events.TelemetrySession`
(``hdtest fuzz --telemetry out.jsonl``) or a campaigns JSON file from
:func:`repro.fuzz.serialization.save_campaigns_json` (any readable
schema version; telemetry tables appear when the record carries
telemetry, i.e. schema v3 results from instrumented runs).

The report reproduces the HDXplore-style views the ISSUE calls for:
phase time split, discrepancy yield per 1 000 encodes by
strategy/oracle, cache hit rate, cumulative discrepancies over
iterations, per-member disagreement attribution, and (from JSONL
snapshots) throughput over time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.recorder import IPC_PHASES, PHASES

__all__ = ["load_campaign_records", "render_report"]

#: Phase-table columns: engine phases plus the process executor's IPC
#: phase (0.000s for in-process campaigns).  Seconds a stream records
#: under any other phase, such as the ``gather`` phase older streams
#: carry, count as ``other``.
_REPORT_PHASES = tuple(PHASES) + tuple(IPC_PHASES)


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table with right-aligned numeric-ish columns."""
    table = [list(headers)] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _num(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{digits}f}"
    return str(value)


def _load_jsonl(path: Path) -> tuple[list[dict], list[str]]:
    """Normalise a telemetry event stream into ``(records, notices)``."""
    from repro.obs.events import read_events

    records: dict[str, dict] = {}
    order: list[str] = []
    events = read_events(path)
    notices = []
    if events.torn_line is not None:
        notices.append(
            f"note: {path}:{events.torn_line} is a torn final line (no trailing "
            f"newline, not JSON) and was skipped; the {len(events)} complete "
            "records before it are shown"
        )
    for event in events:
        kind = event.get("event")
        label = event.get("label", "")
        if kind == "campaign_start":
            order.append(label)
            records[label] = {
                "label": label,
                "meta": event.get("meta", {}),
                "summary": None,
                "telemetry": None,
                "snapshots": [],
            }
        elif kind in ("snapshot", "campaign_end", "profile"):
            record = records.get(label)
            if record is None and kind != "profile":
                record = records[label] = {
                    "label": label,
                    "meta": {},
                    "summary": None,
                    "telemetry": None,
                    "snapshots": [],
                }
                order.append(label)
            if kind == "snapshot":
                record["snapshots"].append(event)
            elif kind == "campaign_end":
                record["telemetry"] = event.get("telemetry")
                record["summary"] = event.get("summary")
                record["peak_rss_mb"] = event.get("peak_rss_mb")
    return [records[label] for label in order], notices


def _load_campaigns(path: Path) -> list[dict]:
    """Normalise a ``save_campaigns_json`` file into campaign records."""
    from repro.fuzz.serialization import load_campaigns_json

    records = []
    for name, record in load_campaigns_json(path).items():
        telemetry = record.get("telemetry")
        if telemetry is None:
            # Pre-v3 records carry no telemetry, but the outcome list
            # still supports the HDXplore iteration/member tables.
            retired_at = []
            by_member: dict[str, int] = {}
            for outcome in record.get("outcomes", []):
                example = outcome.get("example")
                if example is None:
                    continue
                retired_at.append(int(example["iterations"]))
                for member in example.get("disagreed_members") or ():
                    by_member[str(member)] = by_member.get(str(member), 0) + 1
            telemetry = {
                "counters": {"retired": len(retired_at)},
                "phase_seconds": {},
                "by_strategy": {},
                "by_member": by_member,
                "retired_at": sorted(retired_at),
                "elapsed_seconds": record.get("elapsed_seconds", 0.0),
            }
        records.append(
            {
                "label": name,
                "meta": {
                    "strategy": record.get("strategy"),
                    "guided": record.get("guided"),
                    "n_members": record.get("n_members"),
                },
                "summary": record.get("summary"),
                "telemetry": telemetry,
                "snapshots": [],
            }
        )
    return records


def load_campaign_records(source: Union[str, Path]) -> list[dict]:
    """Load *source* (telemetry JSONL or campaigns JSON) as records.

    Each record is ``{"label", "meta", "summary", "telemetry",
    "snapshots"}``; detection is by content — a JSON object is a
    campaigns file, anything else is parsed as JSONL events.
    """
    return _load_records(source)[0]


def _load_records(source: Union[str, Path]) -> tuple[list[dict], list[str]]:
    """:func:`load_campaign_records` plus notices about skipped input."""
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(f"no telemetry or campaign file at {path}")
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise ConfigurationError(f"{path} is empty")
    if stripped.startswith("{") and "\n{" not in text.strip():
        try:
            return _load_campaigns(path), []
        except (ConfigurationError, AttributeError):
            pass  # fall through: single-line JSONL streams also start with '{'
    return _load_jsonl(path)


# -- report sections ---------------------------------------------------------


def _overview_rows(records: list[dict]) -> list[list[str]]:
    rows = []
    for record in records:
        telemetry = record.get("telemetry") or {}
        counters = telemetry.get("counters", {})
        meta = record.get("meta", {})
        summary = record.get("summary") or {}
        elapsed = telemetry.get("elapsed_seconds") or 0.0
        encodes = counters.get("encodes", 0)
        # Encode health at a glance: the encode phase is the campaign
        # hot path, so its throughput and wall-clock share are overview
        # columns (derived from existing counters — no schema change).
        encode_seconds = telemetry.get("phase_seconds", {}).get("encode", 0.0)
        rows.append(
            [
                record["label"],
                str(meta.get("oracle") or summary.get("executor") or "-"),
                _num(meta.get("n_members") or summary.get("n_members") or 1),
                _num(counters.get("inputs") or summary.get("n_inputs") or 0),
                _num(counters.get("retired", summary.get("n_success", 0))),
                _num(counters.get("seed_discrepancies", 0)),
                _num(telemetry.get("elapsed_seconds"), 2),
                _num(encodes / elapsed if encodes and elapsed > 0 else None, 0),
                f"{100.0 * encode_seconds / elapsed:.0f}%" if elapsed > 0 else "-",
                _num(record.get("peak_rss_mb"), 1),
            ]
        )
    return rows


def _phase_rows(records: list[dict]) -> list[list[str]]:
    rows = []
    for record in records:
        telemetry = record.get("telemetry") or {}
        phases = telemetry.get("phase_seconds", {})
        counters = telemetry.get("counters", {})
        elapsed = telemetry.get("elapsed_seconds") or 0.0
        timed = sum(phases.get(name, 0.0) for name in _REPORT_PHASES)
        row = [record["label"]]
        for name in _REPORT_PHASES:
            seconds = phases.get(name, 0.0)
            share = 100.0 * seconds / elapsed if elapsed > 0 else 0.0
            row.append(f"{seconds:.3f}s ({share:.0f}%)")
        row.append(f"{max(elapsed - timed, 0.0):.3f}s")
        nbytes = counters.get("broadcast_bytes", 0)
        row.append(f"{nbytes / 1e6:.2f}" if nbytes else "-")
        rows.append(row)
    return rows


def _yield_rows(records: list[dict]) -> list[list[str]]:
    rows = []
    for record in records:
        telemetry = record.get("telemetry") or {}
        counters = telemetry.get("counters", {})
        encodes = counters.get("encodes", 0)
        requests = counters.get("encode_requests", 0)
        retired = counters.get("retired", 0)
        elapsed = telemetry.get("elapsed_seconds") or 0.0
        skipped = counters.get("children_skipped", 0)
        hits = telemetry.get(
            "cache_hits", requests - counters.get("encoded_children", 0) - skipped
        )
        rows.append(
            [
                record["label"],
                _num(encodes),
                _num(counters.get("am_queries", 0)),
                _num(1000.0 * retired / encodes if encodes else None, 2),
                f"{100.0 * hits / requests:.1f}%" if requests else "-",
                _num(skipped),
                _num(encodes / elapsed if elapsed > 0 else None, 0),
            ]
        )
    return rows


def _iterations_table(records: list[dict]) -> Optional[str]:
    """Cumulative discrepancies over iterations (HDXplore Fig. style)."""
    logs = {
        record["label"]: (record.get("telemetry") or {}).get("retired_at", [])
        for record in records
    }
    if not any(logs.values()):
        return None
    max_iter = max(max(log) for log in logs.values() if log)
    rows = []
    for iteration in range(int(max_iter) + 1):
        row = [str(iteration)]
        for label in logs:
            row.append(str(sum(1 for it in logs[label] if it <= iteration)))
        rows.append(row)
    return _format_table(["iteration"] + [f"{label}" for label in logs], rows)


def _member_table(records: list[dict]) -> Optional[str]:
    """Per-member disagreement attribution across campaigns."""
    by_label = {
        record["label"]: (record.get("telemetry") or {}).get("by_member", {})
        for record in records
    }
    members = sorted(
        {int(member) for counts in by_label.values() for member in counts}
    )
    if not members:
        return None
    rows = []
    for member in members:
        row = [str(member)]
        for label in by_label:
            row.append(str(by_label[label].get(str(member), 0)))
        rows.append(row)
    return _format_table(["member"] + list(by_label), rows)


def _arm_table(records: list[dict]) -> Optional[str]:
    """Adaptive-scheduler allocation and yield per bandit arm.

    Present only for campaigns driven by
    :func:`repro.fuzz.adaptive.run_adaptive_campaign` (their telemetry
    carries ``by_arm``); fixed campaigns render no section.
    """
    rows = []
    for record in records:
        by_arm = (record.get("telemetry") or {}).get("by_arm", {})
        total_scheduled = sum(s.get("scheduled", 0) for s in by_arm.values())
        for arm in sorted(by_arm):
            stats = by_arm[arm]
            scheduled = stats.get("scheduled", 0)
            retired = stats.get("retired", 0)
            share = 100.0 * scheduled / total_scheduled if total_scheduled else 0.0
            rows.append(
                [
                    record["label"],
                    arm,
                    _num(stats.get("blocks", 0)),
                    _num(scheduled),
                    f"{share:.0f}%",
                    _num(retired),
                    _num(retired / scheduled if scheduled else None, 3),
                ]
            )
    if not rows:
        return None
    return _format_table(
        ["campaign", "arm", "blocks", "scheduled", "share", "retired", "yield"],
        rows,
    )


def _throughput_table(records: list[dict]) -> Optional[str]:
    """Encode throughput between successive snapshots (JSONL only)."""
    rows = []
    for record in records:
        previous = {"elapsed_seconds": 0.0, "counters": {}}
        for snapshot in record.get("snapshots", []):
            elapsed = snapshot.get("elapsed_seconds", 0.0)
            encodes = snapshot.get("counters", {}).get("encodes", 0)
            dt = elapsed - previous["elapsed_seconds"]
            de = encodes - previous["counters"].get("encodes", 0)
            rows.append(
                [
                    record["label"],
                    _num(elapsed, 2),
                    _num(encodes),
                    _num(de / dt if dt > 0 else None, 0),
                ]
            )
            previous = snapshot
    if not rows:
        return None
    return _format_table(["campaign", "t (s)", "encodes", "enc/s"], rows)


def render_report(source: Union[str, Path]) -> str:
    """The full plain-text campaign report for *source*."""
    records, notices = _load_records(source)
    if not records:
        raise ConfigurationError(f"{source} contains no campaign records")
    sections = [f"# hdtest campaign report — {source}", ""]
    if notices:
        sections += notices + [""]
    sections += [
        "## Campaigns",
        _format_table(
            [
                "campaign",
                "oracle/executor",
                "members",
                "inputs",
                "discrepancies",
                "seed-disc",
                "elapsed (s)",
                "enc/s",
                "encode%",
                "peak-RSS-MB",
            ],
            _overview_rows(records),
        ),
        "",
        "## Phase time split",
        _format_table(
            ["campaign"] + list(_REPORT_PHASES) + ["other", "ipc-MB"],
            _phase_rows(records),
        ),
        "",
        "## Yield",
        _format_table(
            [
                "campaign",
                "encodes",
                "am-queries",
                "disc/1k-enc",
                "cache-hit",
                "skipped",
                "enc/s",
            ],
            _yield_rows(records),
        ),
    ]
    iterations = _iterations_table(records)
    if iterations is not None:
        sections += ["", "## Cumulative discrepancies over iterations", iterations]
    arms = _arm_table(records)
    if arms is not None:
        sections += ["", "## Adaptive allocation by arm", arms]
    members = _member_table(records)
    if members is not None:
        sections += ["", "## Per-member disagreements", members]
    throughput = _throughput_table(records)
    if throughput is not None:
        sections += ["", "## Throughput over time", throughput]
    return "\n".join(sections) + "\n"

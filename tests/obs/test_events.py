"""JSONL event stream: session emission, rate limiting, and the reader."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import CampaignTelemetry, TelemetrySession, read_events


class TestSessionStream:
    def test_campaign_lifecycle_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path) as session:
            obs = session.campaign("gauss", oracle="CrossModelOracle", n_inputs=4)
            obs.count("encodes", 10)
            obs.record_success(2, (0,))
            session.finish(obs, summary={"success_rate": 0.5})
        events = read_events(path)
        assert [e["event"] for e in events] == ["campaign_start", "campaign_end"]
        start, end = events
        assert start["label"] == "gauss"
        assert start["meta"] == {"oracle": "CrossModelOracle", "n_inputs": 4}
        assert end["summary"] == {"success_rate": 0.5}
        assert end["telemetry"]["counters"]["encodes"] == 10
        assert end["telemetry"]["retired_at"] == [2]

    def test_heartbeat_rate_limited(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path, snapshot_interval=3600.0) as session:
            obs = session.campaign("gauss")
            for _ in range(50):
                obs.heartbeat()
            session.finish(obs)
        snapshots = [e for e in read_events(path) if e["event"] == "snapshot"]
        assert len(snapshots) == 1  # first fires, the rest are dropped

    def test_zero_interval_emits_every_heartbeat(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path, snapshot_interval=0.0) as session:
            obs = session.campaign("gauss")
            for _ in range(5):
                obs.heartbeat()
            session.finish(obs)
        snapshots = [e for e in read_events(path) if e["event"] == "snapshot"]
        assert len(snapshots) == 5

    def test_nan_summary_sanitized(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path) as session:
            obs = session.campaign("gauss")
            session.finish(obs, summary={"avg_l1": float("nan"), "n": 3})
        end = read_events(path)[-1]
        assert end["summary"] == {"avg_l1": None, "n": 3}

    def test_no_file_counts_events(self):
        session = TelemetrySession(None)
        obs = session.campaign("gauss")
        session.finish(obs)
        assert session.events_emitted == 2

    def test_progress_renders_to_stream(self, tmp_path):
        stream = io.StringIO()
        with TelemetrySession(
            tmp_path / "e.jsonl", progress=True, stream=stream,
            snapshot_interval=0.0,
        ) as session:
            obs = session.campaign("gauss", n_inputs=4)
            obs.count("inputs", 4)
            obs.count("encodes", 38200)
            obs.record_success(1, None)
            obs.heartbeat()
        text = stream.getvalue()
        assert "gauss" in text
        assert "disc 1" in text
        assert "38.2k" in text

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetrySession(snapshot_interval=-1.0)


def _reject_constants(name):
    raise AssertionError(f"bare JSON constant {name!r} leaked into the stream")


class TestStrictJsonStream:
    """Regression: the stream must stay strict JSON at every depth."""

    def test_nested_non_finite_sanitized(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path) as session:
            obs = session.campaign("gauss")
            session.finish(
                obs,
                summary={
                    "avg_l1": float("nan"),
                    "per_member": {"0": float("inf"), "1": 3.0},
                    "series": [1.0, float("-inf"), {"deep": float("nan")}],
                },
            )
        # parse_constant fires on NaN/Infinity literals; a strict stream
        # never reaches it.
        for line in path.read_text().splitlines():
            record = json.loads(line, parse_constant=_reject_constants)
            assert isinstance(record, dict)
        end = read_events(path)[-1]
        assert end["summary"] == {
            "avg_l1": None,
            "per_member": {"0": None, "1": 3.0},
            "series": [1.0, None, {"deep": None}],
        }

    def test_non_finite_in_any_event_kind(self, tmp_path):
        # emit() is the single chokepoint: arbitrary records (snapshots,
        # profile events, custom emits) are sanitised too.
        path = tmp_path / "events.jsonl"
        with TelemetrySession(path) as session:
            session.emit(
                {"event": "profile", "hotspots": [{"cum": float("inf")}]}
            )
        record = json.loads(
            path.read_text().splitlines()[0], parse_constant=_reject_constants
        )
        assert record["hotspots"] == [{"cum": None}]


class TestReuseAfterClose:
    """Regression: a post-close emit must append, not truncate."""

    def test_close_emit_round_trip_keeps_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        session = TelemetrySession(path)
        obs = session.campaign("gauss")
        obs.count("encodes", 5)
        session.finish(obs, summary={"n": 1})
        session.close()
        # A late consumer (e.g. a profile event emitted after the
        # campaign block closed the session) reopens the stream lazily —
        # previously in "w" mode, destroying every flushed event.
        session.emit({"event": "profile", "hotspots": []})
        session.close()
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "campaign_start", "campaign_end", "profile",
        ]
        assert events[1]["telemetry"]["counters"]["encodes"] == 5

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "events.jsonl"
        session = TelemetrySession(path)
        session.emit({"event": "profile"})
        session.close()
        session.close()
        assert len(read_events(path)) == 1


class TestReadEvents:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event":"campaign_start"}\n\n{"event":"campaign_end"}\n')
        assert len(read_events(path)) == 2

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError, match="lineno|:1:"):
            read_events(path)

    def test_torn_final_line_flagged_and_dropped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"event":"campaign_start"}\n\n{"event":"snapshot"}\n{"event":"campa'
        )
        events = read_events(path)
        assert [e["event"] for e in events] == ["campaign_start", "snapshot"]
        assert events.torn_line == 4

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event":"campaign_start"}\n{"event":"campaign_end"}')
        events = read_events(path)
        assert len(events) == 2
        assert events.torn_line is None

    def test_clean_stream_has_no_torn_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event":"campaign_start"}\n')
        assert read_events(path).torn_line is None

    def test_unparseable_line_before_the_end_still_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event":"campa\n{"event":"campaign_end"}')
        with pytest.raises(ConfigurationError, match=":1:"):
            read_events(path)

    def test_torn_final_line_that_parses_but_is_not_a_record_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event":"campaign_start"}\n[1, 2]')
        with pytest.raises(ConfigurationError, match=":2:"):
            read_events(path)

    def test_rejects_records_without_event_key(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(json.dumps({"label": "gauss"}) + "\n")
        with pytest.raises(ConfigurationError, match="event"):
            read_events(path)

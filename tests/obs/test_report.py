"""`hdtest report` rendering from JSONL streams and campaigns JSON."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    CampaignTelemetry,
    TelemetrySession,
    load_campaign_records,
    render_report,
)


def _write_stream(path, *, snapshots=0):
    with TelemetrySession(path, snapshot_interval=0.0) as session:
        obs = session.campaign("gauss", oracle="CrossModelOracle", n_inputs=4)
        obs.count("inputs", 4)
        obs.count("encode_requests", 100)
        obs.count("encoded_children", 70)
        obs.count("children_skipped", 10)
        obs.count("encodes", 240)
        obs.count("am_queries", 260)
        obs.record_success(0, (0, 2))
        obs.record_success(3, (2,))
        for _ in range(snapshots):
            obs.heartbeat()
        session.finish(obs, summary={"success_rate": 0.5})


class TestLoadRecords:
    def test_jsonl_grouped_by_campaign(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path, snapshots=2)
        records = load_campaign_records(path)
        assert len(records) == 1
        record = records[0]
        assert record["label"] == "gauss"
        assert record["meta"]["oracle"] == "CrossModelOracle"
        assert record["telemetry"]["counters"]["encodes"] == 240
        assert len(record["snapshots"]) == 2

    def test_single_line_jsonl_not_mistaken_for_campaigns(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"event": "campaign_start", "label": "gauss", "meta": {}})
            + "\n"
        )
        records = load_campaign_records(path)
        assert records[0]["label"] == "gauss"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no telemetry"):
            load_campaign_records(tmp_path / "nope.jsonl")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            load_campaign_records(path)


class TestRenderFromJsonl:
    def test_all_sections_present(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path, snapshots=2)
        report = render_report(path)
        for section in (
            "## Campaigns",
            "## Phase time split",
            "## Yield",
            "## Cumulative discrepancies over iterations",
            "## Per-member disagreements",
            "## Throughput over time",
        ):
            assert section in report
        assert "20.0%" in report  # cache-hit rate: (100 - 70 - 10)/100 requests
        assert "8.33" in report  # 2 discrepancies per 240 encodes * 1000
        table = report.split("## Yield")[1].split("\n## ")[0].splitlines()
        header = next(line for line in table if line.startswith("campaign"))
        row = next(line for line in table if line.startswith("gauss"))
        assert dict(zip(header.split(), row.split()))["skipped"] == "10"

    def test_torn_final_line_rendered_with_notice(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path, snapshots=2)
        text = path.read_text()
        n_lines = text.count("\n")
        path.write_text(text[:-12])  # the end record, cut mid-write
        report = render_report(path)
        notices = [line for line in report.splitlines() if line.startswith("note:")]
        assert notices == [
            f"note: {path}:{n_lines} is a torn final line (no trailing newline, "
            f"not JSON) and was skipped; the {n_lines - 1} complete records "
            "before it are shown"
        ]
        assert "## Campaigns" in report and "gauss" in report

    def test_campaigns_table_shows_peak_rss(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        end = events[-1]
        assert end["event"] == "campaign_end" and end["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in end["telemetry"]

        def campaigns_row():
            section = render_report(path).split("## Campaigns")[1]
            header, _, row = section.strip().splitlines()[:3]
            assert header.split()[-1] == "peak-RSS-MB"
            return row.split()

        assert campaigns_row()[-1] == f"{end['peak_rss_mb']:.1f}"
        # A stream written before the field existed renders "-".
        del end["peak_rss_mb"]
        path.write_text("".join(json.dumps(event) + "\n" for event in events))
        assert campaigns_row()[-1] == "-"

    def test_gather_seconds_of_older_streams_count_as_other(self, tmp_path):
        """Streams that timed a ``gather`` IPC phase still render.

        The phase table has no ``gather`` column any more, so those
        seconds land in ``other`` rather than vanishing from the split.
        """
        path = tmp_path / "t.jsonl"
        _write_stream(path)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        telemetry = events[-1]["telemetry"]
        telemetry["elapsed_seconds"] = 1.5
        telemetry["phase_seconds"].update(encode=0.5, broadcast=0.25, gather=0.75)
        path.write_text("".join(json.dumps(event) + "\n" for event in events))
        assert load_campaign_records(path)[0]["telemetry"]["phase_seconds"][
            "gather"
        ] == 0.75
        section = render_report(path).split("## Phase time split")[1]
        header, _, row = section.strip().splitlines()[:3]
        assert header.split() == [
            "campaign", "encode", "query", "mutate", "fitness", "oracle",
            "broadcast", "other", "ipc-MB",
        ]
        assert row.split()[-2:] == ["0.750s", "-"]

    def test_clean_stream_renders_no_notice(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path)
        assert "note:" not in render_report(path)

    def test_member_attribution_rows(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path)
        report = render_report(path)
        member_section = report.split("## Per-member disagreements")[1]
        lines = [l.split() for l in member_section.strip().splitlines()[2:]]
        assert [l[0] for l in lines] == ["0", "2"]
        assert [l[1] for l in lines] == ["1", "2"]

    def test_iterations_cumulative(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_stream(path)
        report = render_report(path)
        section = report.split("## Cumulative discrepancies over iterations")[1]
        rows = [l.split() for l in section.strip().splitlines()[2:6]]
        # retirements at iterations 0 and 3 -> cumulative 1,1,1,2
        assert [r[1] for r in rows] == ["1", "1", "1", "2"]


class TestRenderFromCampaignsJson:
    def test_v3_instrumented_results(self, trained_model, test_images, tmp_path):
        from repro.fuzz import HDTest, HDTestConfig
        from repro.fuzz.serialization import save_campaigns_json

        result = HDTest(
            trained_model, "gauss", config=HDTestConfig(iter_times=5), rng=0,
            telemetry=CampaignTelemetry(),
        ).fuzz(list(test_images[:4]))
        path = tmp_path / "campaigns.json"
        save_campaigns_json(path, {"gauss": result})
        report = render_report(path)
        assert "## Phase time split" in report
        records = load_campaign_records(path)
        assert records[0]["telemetry"]["counters"]["inputs"] == 4

    def test_pre_v3_records_synthesize_telemetry(self, tmp_path):
        path = tmp_path / "campaigns.json"
        record = {
            "schema_version": 2,
            "strategy": "gauss",
            "guided": True,
            "n_members": 3,
            "elapsed_seconds": 1.5,
            "summary": {"n_inputs": 2, "n_success": 2},
            "outcomes": [
                {
                    "success": True,
                    "iterations": 2,
                    "reference_label": 1,
                    "example": {
                        "reference_label": 1,
                        "adversarial_label": 7,
                        "iterations": 2,
                        "metrics": {},
                        "strategy": "gauss",
                        "true_label": None,
                        "disagreed_members": [0, 1],
                    },
                },
                {"success": False, "iterations": 5, "reference_label": 3},
            ],
        }
        path.write_text(json.dumps({"gauss": record}))
        records = load_campaign_records(path)
        telemetry = records[0]["telemetry"]
        assert telemetry["retired_at"] == [2]
        assert telemetry["by_member"] == {"0": 1, "1": 1}
        report = render_report(path)
        assert "## Per-member disagreements" in report


class TestArmTable:
    def _write_adaptive_stream(self, path):
        with TelemetrySession(path, snapshot_interval=0.0) as session:
            obs = session.campaign("adaptive", schedule="thompson")
            obs.count("encodes", 500)
            obs.record_arm_block("gauss", scheduled=48, retired=24)
            obs.record_arm_block("rand", scheduled=16, retired=1)
            session.finish(obs, summary={})

    def test_arm_section_rendered_with_share_and_yield(self, tmp_path):
        path = tmp_path / "adaptive.jsonl"
        self._write_adaptive_stream(path)
        report = render_report(path)
        assert "## Adaptive allocation by arm" in report
        lines = [line for line in report.splitlines() if " gauss " in line]
        assert len(lines) == 1
        assert "75%" in lines[0]  # 48 of 64 scheduled
        assert "0.500" in lines[0]  # 24 / 48 retired
        rand_line = [line for line in report.splitlines() if " rand " in line][0]
        assert "25%" in rand_line and "0.062" in rand_line

    def test_fixed_campaigns_render_no_arm_section(self, tmp_path):
        path = tmp_path / "fixed.jsonl"
        _write_stream(path)
        assert "Adaptive allocation" not in render_report(path)

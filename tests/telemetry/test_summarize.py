"""Stream read side: per-run summaries and the summary table."""

import json

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryError,
    format_summary_table,
    read_streams,
    summarize_records,
    summarize_streams,
)

SERIES = {
    "storage_mb": 2.5, "traffic_mbit": 1.25,
    "traffic_dag_mbit": 1.0, "traffic_pop_mbit": 0.25,
}


def full_stream_records():
    return [
        {"v": SCHEMA_VERSION, "event": "run-start", "scenario": "demo",
         "backend": "2ldag", "nodes": 9, "slots": 12, "seed": 7},
        {"v": SCHEMA_VERSION, "event": "slot", "slot": 6, "slots_covered": 6,
         "sim_now": 6.0, "series": dict(SERIES), "deltas": dict(SERIES),
         "counters": {"blocks": 54.0}, "counter_deltas": {"blocks": 54.0}},
        {"v": SCHEMA_VERSION, "event": "fault", "slot": 6,
         "kind": "node-crash", "detail": "slot 6: node-crash (nodes=0)"},
        {"v": SCHEMA_VERSION, "event": "fault", "slot": 9,
         "kind": "node-crash", "detail": "slot 9: node-crash (nodes=1)"},
        {"v": SCHEMA_VERSION, "event": "run-end", "slot": 12, "sim_now": 12.0,
         "blocks": 108, "validations": 4, "success_rate": 0.75,
         "events": 900, "trace_sha256": "ab12"},
    ]


def write_stream(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestSummarizeRecords:
    def test_full_stream_summary(self):
        summary = summarize_records(full_stream_records())
        assert summary["scenario"] == "demo"
        assert summary["backend"] == "2ldag"
        assert summary["seed"] == 7
        assert summary["slots"] == 12
        assert summary["slot_records"] == 1
        assert summary["faults"] == 2
        assert summary["fault_kinds"] == {"node-crash": 2}
        assert summary["blocks"] == 108
        assert summary["validations"] == 4
        assert summary["success_rate"] == 0.75
        assert summary["sim_seconds"] == 12.0
        assert summary["events"] == 900
        assert summary["trace_sha256"] == "ab12"
        assert summary["final_series"] == SERIES
        assert summary["final_counters"] == {"blocks": 54.0}

    def test_partial_stream_has_none_totals(self):
        summary = summarize_records(full_stream_records()[:2])
        assert summary["blocks"] is None
        assert summary["trace_sha256"] is None
        assert summary["slot_records"] == 1

    def test_empty_stream(self):
        summary = summarize_records([])
        assert summary["scenario"] is None
        assert summary["faults"] == 0

    def test_last_slot_wins_and_fault_kinds_sort(self):
        records = full_stream_records()
        later = dict(records[1], slot=12, sim_now=12.0,
                     series={**SERIES, "storage_mb": 5.0},
                     counters={"blocks": 108.0})
        partition = {"v": SCHEMA_VERSION, "event": "fault", "slot": 10,
                     "kind": "partition", "detail": "slot 10: partition"}
        summary = summarize_records(
            [records[0], records[1], partition, records[2], later] + records[3:]
        )
        assert summary["slot_records"] == 2
        assert summary["final_series"]["storage_mb"] == 5.0
        assert summary["final_counters"] == {"blocks": 108.0}
        assert summary["faults"] == 3
        assert list(summary["fault_kinds"].items()) == [
            ("node-crash", 2), ("partition", 1),
        ]


class TestStreams:
    def test_read_streams_validates(self, tmp_path):
        write_stream(tmp_path / "good.jsonl", full_stream_records())
        (tmp_path / "bad.jsonl").write_text('{"v": 1, "event": "nope"}\n')
        with pytest.raises(TelemetryError, match="unknown event kind"):
            read_streams([tmp_path], SCHEMA_VERSION)

    def test_summarize_streams_and_table(self, tmp_path):
        write_stream(tmp_path / "run.jsonl", full_stream_records())
        summaries = summarize_streams([tmp_path])
        assert len(summaries) == 1
        table = format_summary_table(summaries)
        assert "demo" in table and "2ldag" in table
        assert "0.750" in table  # success rate formatting
        partial = summarize_records(full_stream_records()[:2])
        assert "-" in format_summary_table([partial])

    def test_one_summary_per_v1_stream_in_path_order(self, tmp_path):
        write_stream(tmp_path / "b.jsonl", full_stream_records())
        write_stream(tmp_path / "a.jsonl", full_stream_records()[:2])
        (tmp_path / "trace-a.jsonl").write_text("not a v1 stream\n")
        summaries = summarize_streams([tmp_path])
        assert [s["path"] for s in summaries] == [
            str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]
        assert [s["blocks"] for s in summaries] == [None, 108]


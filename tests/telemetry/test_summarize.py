"""Stream read side: summaries, metric projection, exposition."""

import json

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryError,
    export_prometheus,
    format_summary_table,
    read_streams,
    registry_from_records,
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
        assert summary["success_rate"] == 0.75
        assert summary["trace_sha256"] == "ab12"
        assert summary["final_series"]["storage_mb"] == 2.5

    def test_partial_stream_has_none_totals(self):
        summary = summarize_records(full_stream_records()[:2])
        assert summary["blocks"] is None
        assert summary["trace_sha256"] is None
        assert summary["slot_records"] == 1

    def test_empty_stream(self):
        summary = summarize_records([])
        assert summary["scenario"] is None
        assert summary["faults"] == 0


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


class TestRegistryProjection:
    def test_catalogue_families_projected(self, tmp_path):
        write_stream(tmp_path / "run.jsonl", full_stream_records())
        registry = registry_from_records(read_streams([tmp_path], SCHEMA_VERSION))
        labels = dict(scenario="demo", backend="2ldag", seed="7")
        assert registry.get("repro_run_blocks_total").value(**labels) == 108
        assert registry.get("repro_run_slots").value(**labels) == 12
        assert registry.get("repro_run_faults_total").value(
            kind="node-crash", **labels
        ) == 2
        assert registry.get("repro_series_value").value(
            series="storage_mb", **labels
        ) == 2.5
        assert registry.get("repro_backend_counter").value(
            name="blocks", **labels
        ) == 54.0
        assert registry.get("repro_slot_records_total").value(**labels) == 1

    def test_export_prometheus_is_deterministic(self, tmp_path):
        write_stream(tmp_path / "run.jsonl", full_stream_records())
        first = export_prometheus([tmp_path])
        assert first == export_prometheus([tmp_path])
        assert "# TYPE repro_run_blocks_total counter" in first
        assert 'repro_run_faults_total{scenario="demo"' in first

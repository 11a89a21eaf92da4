"""Telemetry event streams: recorder, pinned schema, discovery."""

import json

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryError,
    TelemetryRecorder,
    discover_streams,
    parse_stream,
    stream_filename,
    telemetry_dir_from_env,
    validate_record,
    validate_stream,
)


def slot_record(**overrides):
    record = {
        "v": SCHEMA_VERSION,
        "event": "slot",
        "slot": 4,
        "slots_covered": 4,
        "sim_now": 4.0,
        "series": {
            "storage_mb": 1.0, "traffic_mbit": 0.5,
            "traffic_dag_mbit": 0.4, "traffic_pop_mbit": 0.1,
        },
        "deltas": {
            "storage_mb": 1.0, "traffic_mbit": 0.5,
            "traffic_dag_mbit": 0.4, "traffic_pop_mbit": 0.1,
        },
        "counters": {"blocks": 8.0},
        "counter_deltas": {"blocks": 8.0},
    }
    record.update(overrides)
    return record


class TestValidateRecord:
    def test_valid_slot_record_passes(self):
        validate_record(slot_record())

    def test_non_object_rejected(self):
        with pytest.raises(TelemetryError, match="JSON object"):
            validate_record([1, 2])

    def test_wrong_version_rejected(self):
        with pytest.raises(TelemetryError, match="schema version"):
            validate_record(slot_record(v=99))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_record({"v": SCHEMA_VERSION, "event": "checkpoint"})

    def test_missing_field_rejected(self):
        record = slot_record()
        del record["sim_now"]
        with pytest.raises(TelemetryError, match="lacks field 'sim_now'"):
            validate_record(record)

    def test_unknown_field_rejected(self):
        with pytest.raises(TelemetryError, match="unknown field"):
            validate_record(slot_record(wall_clock=12.0))

    def test_bool_is_not_numeric(self):
        with pytest.raises(TelemetryError, match="sim_now"):
            validate_record(slot_record(sim_now=True))

    def test_series_keys_pinned(self):
        bad = slot_record()
        bad["series"] = {"storage_mb": 1.0}
        with pytest.raises(TelemetryError, match="exactly"):
            validate_record(bad)

    def test_counters_and_deltas_must_agree(self):
        bad = slot_record(counter_deltas={"other": 1.0})
        with pytest.raises(TelemetryError, match="same keys"):
            validate_record(bad)

    def test_non_numeric_counter_rejected(self):
        bad = slot_record(counters={"blocks": "8"},
                          counter_deltas={"blocks": 1.0})
        with pytest.raises(TelemetryError, match="numeric"):
            validate_record(bad)


class TestStreamValidation:
    def test_validate_stream_collects_every_defect(self):
        text = "\n".join([
            json.dumps(slot_record()),
            "not json",
            json.dumps({"v": SCHEMA_VERSION, "event": "nope"}),
            "",
        ])
        errors = validate_stream(text, source="s.jsonl")
        assert len(errors) == 2
        assert all(message.startswith("s.jsonl:") for message in errors)

    def test_parse_stream_raises_on_first_defect(self):
        text = json.dumps(slot_record()) + "\n{broken\n"
        with pytest.raises(TelemetryError, match="line 2"):
            parse_stream(text)

    def test_parse_stream_skips_blank_lines(self):
        text = "\n" + json.dumps(slot_record()) + "\n\n"
        assert len(parse_stream(text)) == 1


class TestRecorder:
    def test_hooks_before_run_started_raise(self, tmp_path):
        recorder = TelemetryRecorder(tmp_path)
        with pytest.raises(TelemetryError, match="run_started"):
            recorder.run_finished(1, 1.0, 1, 0, 1.0, 1, "deadbeef")

    def test_run_writes_validated_jsonl(self, tmp_path):
        from repro.scenario import get_scenario

        spec = get_scenario("quickstart")
        recorder = TelemetryRecorder(tmp_path)
        recorder.run_started(spec)
        recorder.slot_advanced(
            4, 4, 4.0,
            {"storage_mb": 1.0, "traffic_mbit": 0.5,
             "traffic_dag_mbit": 0.4, "traffic_pop_mbit": 0.1},
            {"blocks": 8},
        )
        recorder.slot_advanced(
            8, 4, 8.0,
            {"storage_mb": 3.0, "traffic_mbit": 1.0,
             "traffic_dag_mbit": 0.8, "traffic_pop_mbit": 0.2},
            {"blocks": 20},
        )
        recorder.run_finished(8, 8.0, 20, 0, 1.0, 100, "cafe")

        assert recorder.path == tmp_path / stream_filename(
            SCHEMA_VERSION, spec.name, spec.backend, spec.seed
        )
        records = parse_stream(recorder.path.read_text())
        assert [r["event"] for r in records] == [
            "run-start", "slot", "slot", "run-end"
        ]
        assert recorder.records_written == len(records)
        # deltas are computed against the previous slot record
        assert records[2]["deltas"]["storage_mb"] == pytest.approx(2.0)
        assert records[2]["counter_deltas"]["blocks"] == pytest.approx(12.0)

    def test_restart_truncates_previous_stream(self, tmp_path):
        from repro.scenario import get_scenario

        spec = get_scenario("quickstart")
        recorder = TelemetryRecorder(tmp_path)
        recorder.run_started(spec)
        recorder.run_finished(1, 1.0, 1, 0, 1.0, 1, "aa")
        first = recorder.path.read_text()
        recorder.run_started(spec)
        recorder.run_finished(1, 1.0, 1, 0, 1.0, 1, "aa")
        assert recorder.path.read_text() == first


class TestDiscovery:
    def test_filenames_are_sanitised(self):
        assert stream_filename(1, "a b/c", "pbft", 3) == "run-a-b-c-pbft-seed3.jsonl"
        assert stream_filename(1, "", "iota", 0) == "run-scenario-iota-seed0.jsonl"

    def test_directories_glob_and_files_pass_through(self, tmp_path):
        (tmp_path / "b.jsonl").write_text("")
        (tmp_path / "a.jsonl").write_text("")
        (tmp_path / "ignored.txt").write_text("")
        found = discover_streams([tmp_path, tmp_path / "a.jsonl"])
        assert [p.name for p in found] == ["a.jsonl", "b.jsonl"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="no such telemetry"):
            discover_streams([tmp_path / "absent"])

    def test_env_var_controls_default_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_dir_from_env() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "  ")
        assert telemetry_dir_from_env() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "/tmp/t")
        assert telemetry_dir_from_env() == "/tmp/t"

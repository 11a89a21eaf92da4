"""The telemetry no-op contract: recording never perturbs a run.

This is the layer the CI gate leans on: enabling ``--telemetry`` must
leave seeded trace digests byte-identical across every backend, with
and without fault timelines, and the streams themselves must fit the
pinned schema with slot-time (never wall-clock) timestamps.
"""

import hashlib

import pytest

from repro.faults import build_fault_preset
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.telemetry import TelemetryRecorder, parse_stream

BACKENDS = ("2ldag", "pbft", "iota")

#: SHA-256 of the whole v1 ``run-*.jsonl`` file of the tiny workload
#: below, per (backend, stress faults on).  What makes "same bytes"
#: checked rather than assumed when the writer or the canonical line
#: changes; a change here means the v1 schema or an emission site moved
#: — update deliberately, with the SCHEMA_VERSION bump if shapes moved.
PINNED_STREAM_SHA256 = {
    ("2ldag", False): "82dbc591a5baca4616848416055b1651970d810b8f68d73ad4fbd1cc1d71e56c",
    ("2ldag", True): "bb60bc35ada43996055c375f2acb41991776a5461adba326acbcb2d9fe9a4e22",
    ("pbft", False): "6832424163ed99fc36c26f492010cef8813c60b246a66f0e7d693f0ff2e7720d",
    ("pbft", True): "eb8ba63a7630272b761d129ba5bc617a5d47f466ed742c80673b673d65b5a8ef",
    ("iota", False): "fae3fc0e9b978c03b67fdd308a2ad6833b3e51cdf392d1a30d1dc4cd8ff78a9c",
    ("iota", True): "90ad00ccb10b3aebda6f6ebba6eff41e94c8a76a589b17e324b72dc27b95d95d",
}


def tiny_spec(backend="2ldag", with_faults=False, **overrides):
    workload = dict(
        slots=16, validate=True, validation_min_age_slots=6,
        sample_slots=(8, 16),
    )
    if with_faults:
        workload["faults"] = build_fault_preset("stress", 9, 16)
    defaults = dict(
        name="tel-tiny",
        backend=backend,
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(**workload),
        seed=4,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestNoOpContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_identical_with_and_without_telemetry(self, backend, tmp_path):
        bare = run_scenario(tiny_spec(backend))
        recorder = TelemetryRecorder(tmp_path)
        observed = run_scenario(tiny_spec(backend), telemetry=recorder)
        assert bare.trace_sha256 == observed.trace_sha256
        assert bare.total_blocks == observed.total_blocks

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_identical_under_faults(self, backend, tmp_path):
        bare = run_scenario(tiny_spec(backend, with_faults=True))
        recorder = TelemetryRecorder(tmp_path)
        observed = run_scenario(
            tiny_spec(backend, with_faults=True), telemetry=recorder
        )
        assert bare.trace_sha256 == observed.trace_sha256

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("with_faults", (False, True))
    def test_stream_bytes_are_pinned(self, backend, with_faults, tmp_path):
        recorder = TelemetryRecorder(tmp_path)
        run_scenario(
            tiny_spec(backend, with_faults=with_faults), telemetry=recorder
        )
        digest = hashlib.sha256(recorder.path.read_bytes()).hexdigest()
        assert digest == PINNED_STREAM_SHA256[(backend, with_faults)]

    def test_repeat_recording_is_byte_identical(self, tmp_path):
        first = TelemetryRecorder(tmp_path / "a")
        second = TelemetryRecorder(tmp_path / "b")
        run_scenario(tiny_spec(with_faults=True), telemetry=first)
        run_scenario(tiny_spec(with_faults=True), telemetry=second)
        assert first.path.read_bytes() == second.path.read_bytes()


class TestStreamContents:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_fits_schema_and_mirrors_result(self, backend, tmp_path):
        recorder = TelemetryRecorder(tmp_path)
        result = run_scenario(tiny_spec(backend), telemetry=recorder)
        records = parse_stream(recorder.path.read_text())

        kinds = [r["event"] for r in records]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert kinds.count("run-start") == 1 and kinds.count("run-end") == 1

        start = records[0]
        assert start["backend"] == backend
        assert start["nodes"] == 9
        assert start["seed"] == 4

        end = records[-1]
        assert end["trace_sha256"] == result.trace_sha256
        assert end["blocks"] == result.total_blocks

        slots = [r for r in records if r["event"] == "slot"]
        assert sum(r["slots_covered"] for r in slots) == 16
        assert [r["slot"] for r in slots] == sorted(r["slot"] for r in slots)

    def test_fault_records_follow_the_applied_timeline(self, tmp_path):
        recorder = TelemetryRecorder(tmp_path)
        runner = ScenarioRunner(
            tiny_spec(with_faults=True), telemetry=recorder
        )
        runner.run()
        records = parse_stream(recorder.path.read_text())
        faults = [r for r in records if r["event"] == "fault"]
        applied = runner.fault_engine.applied
        assert applied, "the stress preset must actually fire"
        assert [f["kind"] for f in faults] == [e.kind for e in applied]

    def test_timestamps_are_slot_time(self, tmp_path):
        """sim_now is the simulated clock — machine-speed independent."""
        recorder = TelemetryRecorder(tmp_path)
        result = run_scenario(tiny_spec(), telemetry=recorder)
        records = parse_stream(recorder.path.read_text())
        stamps = [r["sim_now"] for r in records if "sim_now" in r]
        assert stamps == sorted(stamps)
        assert stamps[-1] == pytest.approx(result.sim_now)

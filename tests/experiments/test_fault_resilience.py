"""The fault-resilience grid: cells, payloads, preset."""

import pytest

from repro.campaign import get_campaign
from repro.campaign.cells import execute_cell
from repro.experiments.fault_resilience import (
    DEFAULT_BACKENDS,
    DEFAULT_INTENSITIES,
    fault_grid_cells,
    fault_grid_scenario,
    fault_schedule_for,
)
from repro.scenario import ScenarioResult, ScenarioRunner
from repro.telemetry import TELEMETRY_ENV_VAR, TRACE_SAMPLE_ENV_VAR
from repro.telemetry.monitors import MONITOR_PASS, evaluate_monitors
from repro.telemetry.stream import discover_streams, read_streams


class TestGridConstruction:
    def test_cells_cover_the_grid(self):
        cells = fault_grid_cells()
        assert len(cells) == 3 * 3 * 2
        assert {c.kind for c in cells} == {"scenario"}
        assert [c.scenario.name for c in cells[:3]] == [
            f"fault-grid[backend=2ldag,intensity={intensity},seed={seed}]"
            for intensity, seed in (("none", 0), ("none", 1), ("crash", 0))
        ]
        assert len({c.scenario.name for c in cells}) == len(cells)
        assert len({c.digest() for c in cells}) == len(cells)

    def test_intensity_none_is_fault_free(self):
        assert fault_schedule_for("none", 10, 10) is None
        spec = fault_grid_scenario("pbft", "none", 0)
        assert spec.workload.faults is None

    def test_unknown_intensity_rejected(self):
        with pytest.raises(ValueError, match="unknown fault intensity"):
            fault_schedule_for("apocalypse", 10, 10)

    def test_scenarios_validate_on_every_backend(self):
        for backend in DEFAULT_BACKENDS:
            for intensity in DEFAULT_INTENSITIES:
                spec = fault_grid_scenario(backend, intensity, 0)
                assert spec.backend == backend
                assert spec.node_count == 10

    def test_only_2ldag_validates_pop(self):
        assert fault_grid_scenario("2ldag", "crash", 0).workload.validate
        assert not fault_grid_scenario("iota", "crash", 0).workload.validate


class TestCellPayload:
    def test_cell_payload_shape(self):
        cell = fault_grid_cells(("2ldag",), ("crash",), (0,))[0]
        payload = execute_cell(cell)
        result = ScenarioResult.from_dict(payload, cell.scenario)
        assert result.spec.backend == "2ldag"
        assert payload["total_blocks"] > 0
        assert payload["validations"] > 0
        assert payload["mean_consensus_s"] > 0
        assert len(payload["trace_sha256"]) == 64

    def test_mean_consensus_is_the_mean_successful_validation_time(self):
        runner = ScenarioRunner(fault_grid_scenario("2ldag", "crash", 0))
        result = runner.run()
        durations = [
            record.outcome.finished_at - record.outcome.started_at
            for record in runner.workload.validations
            if record.outcome.success
        ]
        assert durations
        assert result.mean_consensus_s == sum(durations) / len(durations)

    def test_baseline_has_no_pop_metrics(self):
        # Backends without PoP report None, never a success-rate
        # default — a baseline must not read as "perfect consensus
        # success".
        payload = execute_cell(fault_grid_cells(("iota",), ("crash",), (0,))[0])
        assert payload["validations"] == 0
        assert payload["mean_consensus_s"] is None

    def test_uniform_chunking_across_intensities(self):
        # Every cell pauses at the same slots (the union of all fault
        # boundaries): the baseline backends settle per driven chunk,
        # so unequal boundary sets would gift faulted cells extra drain
        # time vs their control and confound the progress ratios.
        specs = [
            fault_grid_scenario("pbft", intensity, 0)
            for intensity in DEFAULT_INTENSITIES
        ]
        axes = {spec.workload.sample_slots for spec in specs}
        assert len(axes) == 1
        (axis,) = axes
        for spec in specs:
            schedule = spec.workload.faults
            if schedule is not None:
                assert set(schedule.boundary_slots) <= set(axis)


class TestCellTelemetry:
    """A grid cell records the streams the environment asks for, and
    recording changes nothing in its payload."""

    @staticmethod
    def crash_cell(backend):
        return fault_grid_cells((backend,), ("crash",), (0,))[0]

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
    def test_cell_writes_its_stream_and_keeps_its_payload(
        self, backend, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        monkeypatch.delenv(TRACE_SAMPLE_ENV_VAR, raising=False)
        plain = execute_cell(self.crash_cell(backend))
        monkeypatch.setenv(TELEMETRY_ENV_VAR, str(tmp_path))
        observed = execute_cell(self.crash_cell(backend))
        assert observed == plain
        assert len(discover_streams([tmp_path])) == 1
        ((_, records),) = read_streams([tmp_path], 1)
        assert records[-1]["event"] == "run-end"
        assert records[-1]["trace_sha256"] == plain["trace_sha256"]

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS)
    def test_traced_cell_passes_the_monitors(self, backend, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, str(tmp_path))
        monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, "1.0")
        execute_cell(self.crash_cell(backend))
        document = evaluate_monitors([tmp_path])
        (run,) = document["runs"]
        assert len(run["streams"]) == 2
        assert document["status"] == MONITOR_PASS
        assert document["counts"] == {"pass": 4, "fail": 0, "skip": 0}


class TestProgress:
    @pytest.mark.parametrize("backend", ["2ldag", "iota"])
    def test_a_crash_costs_progress_against_the_control(self, backend):
        control, crashed = (
            execute_cell(cell)["total_blocks"]
            for cell in fault_grid_cells((backend,), ("none", "crash"), (0,))
        )
        assert 0 < crashed < control


class TestCampaignPreset:
    def test_fault_grid_preset_expands(self):
        campaign = get_campaign("fault-grid")
        assert len(campaign.cells) == 18
        assert all(cell.kind == "scenario" for cell in campaign.cells)
        assert campaign.cells == fault_grid_cells()

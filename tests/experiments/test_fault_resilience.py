"""The fault-resilience grid: cells, payloads, aggregation, preset."""

import pytest

from repro.campaign import get_campaign
from repro.campaign.cells import KIND_HOME_MODULES, execute_cell, resolve_cell_kind
from repro.experiments.fault_resilience import (
    DEFAULT_BACKENDS,
    DEFAULT_INTENSITIES,
    fault_grid_cells,
    fault_grid_scenario,
    fault_schedule_for,
    run_fault_resilience,
)
from repro.telemetry import TELEMETRY_ENV_VAR, TRACE_SAMPLE_ENV_VAR
from repro.telemetry.monitors import MONITOR_PASS, evaluate_monitors
from repro.telemetry.stream import discover_streams, read_streams


class TestGridConstruction:
    def test_cells_cover_the_grid(self):
        cells = fault_grid_cells()
        assert len(cells) == 3 * 3 * 2
        coords = {
            (c.scenario.backend, c.params["intensity"], c.scenario.seed)
            for c in cells
        }
        assert len(coords) == len(cells)
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


class TestCellKind:
    def test_kind_registered_with_home_module(self):
        assert (KIND_HOME_MODULES["fault-grid-point"]
                == "repro.experiments.fault_resilience")
        assert resolve_cell_kind("fault-grid-point") is not None

    def test_cell_payload_shape(self):
        cell = fault_grid_cells(("2ldag",), ("crash",), (0,))[0]
        payload = execute_cell(cell)
        assert payload["backend"] == "2ldag"
        assert payload["intensity"] == "crash"
        assert payload["blocks"] > 0
        assert payload["validations"] > 0
        assert payload["mean_consensus_s"] > 0
        assert len(payload["trace_sha256"]) == 64

    def test_baseline_cell_has_no_pop_metrics(self):
        # Backends without PoP report None, never the 1.0 default —
        # a baseline must not read as "perfect consensus success".
        cell = fault_grid_cells(("iota",), ("crash",), (0,))[0]
        payload = execute_cell(cell)
        assert payload["mean_consensus_s"] is None
        assert payload["success_rate"] is None

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


class TestSweep:
    def test_aggregation_and_table(self):
        result = run_fault_resilience(
            backends=("2ldag", "iota"), intensities=("none", "crash"), seeds=(0,)
        )
        assert len(result.points) == 4
        control = result.point("2ldag", "none")
        assert control.progress_ratio == 1.0
        degraded = result.point("2ldag", "crash")
        assert degraded.progress_ratio < 1.0
        table = result.to_table()
        assert "progress" in table and "2ldag" in table and "iota" in table

    def test_sweep_without_control_reports_no_ratio(self):
        result = run_fault_resilience(
            backends=("iota",), intensities=("crash",), seeds=(0,)
        )
        assert result.point("iota", "crash").progress_ratio is None
        assert "-" in result.to_table()

    def test_control_found_regardless_of_intensity_order(self):
        result = run_fault_resilience(
            backends=("iota",), intensities=("crash", "none"), seeds=(0,)
        )
        assert result.point("iota", "none").progress_ratio == 1.0
        assert result.point("iota", "crash").progress_ratio < 1.0

    def test_unknown_point_raises(self):
        result = run_fault_resilience(
            backends=("iota",), intensities=("none",), seeds=(0,)
        )
        with pytest.raises(KeyError):
            result.point("pbft", "none")


class TestCampaignPreset:
    def test_fault_grid_preset_expands(self):
        campaign = get_campaign("fault-grid")
        assert len(campaign.cells) == 18
        assert all(cell.kind == "fault-grid-point" for cell in campaign.cells)

"""Cell-kind registry and scenario payload round-trip tests."""

from dataclasses import replace

import pytest

from repro.campaign.cells import (
    cell_kind_names,
    execute_cell,
    register_cell_kind,
    resolve_cell_kind,
    run_scenario_cells,
)
from repro.campaign.spec import CampaignError, CellSpec
from repro.scenario import ScenarioResult, ScenarioRunner, get_scenario


@pytest.fixture(scope="module")
def tiny():
    return get_scenario("quickstart").with_workload(slots=5)


class TestRegistry:
    def test_scenario_kind_is_builtin(self):
        assert "scenario" in cell_kind_names()
        assert resolve_cell_kind("scenario") is not None

    def test_four_kinds(self):
        # In a fresh interpreter: tests here register kinds of their own.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        code = "from repro.campaign.cells import cell_kind_names as k; print(k())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.strip() == str(
            ["attack-audit", "fig9-series", "scenario", "sweep-point"]
        )

    def test_consumer_kinds_resolve_via_home_module(self):
        # Resolution imports the experiments module on demand.
        assert resolve_cell_kind("sweep-point") is not None
        assert resolve_cell_kind("fig9-series") is not None
        assert resolve_cell_kind("attack-audit") is not None

    def test_unknown_kind_raises_with_roster(self):
        with pytest.raises(CampaignError, match="scenario"):
            resolve_cell_kind("warp-drive")

    def test_duplicate_registration_rejected(self):
        @register_cell_kind("test-dup-kind")
        def first(cell):
            return {}

        with pytest.raises(ValueError, match="already registered"):
            @register_cell_kind("test-dup-kind")
            def second(cell):
                return {}

    def test_registration_records_home_module_for_workers(self):
        from repro.campaign.cells import KIND_HOME_MODULES

        @register_cell_kind("test-home-kind")
        def homed(cell):
            return {}

        # A spawn-started worker resolves this kind by importing the
        # module that registered it.
        assert KIND_HOME_MODULES["test-home-kind"] == __name__


class TestScenarioCell:
    def test_payload_round_trips_to_scenario_result(self, tiny):
        payload = execute_cell(CellSpec(scenario=tiny))
        rebuilt = ScenarioResult.from_dict(payload, tiny)
        direct = ScenarioRunner(tiny).run()
        assert rebuilt == direct

    def test_payload_carries_no_label(self, tiny):
        # Runs that differ only in the spec's labels share one payload.
        payload = execute_cell(CellSpec(scenario=tiny))
        assert "spec" not in payload
        relabelled = replace(tiny, name="elsewhere", description="another use")
        assert execute_cell(CellSpec(scenario=relabelled)) == payload

    def test_payload_is_pure_json(self, tiny):
        import json

        payload = execute_cell(CellSpec(scenario=tiny))
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_payload_field_rejected(self, tiny):
        payload = execute_cell(CellSpec(scenario=tiny))
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioResult.from_dict(payload, tiny)


class TestRunScenarioCells:
    def test_matches_direct_runner(self, tiny):
        (result,) = run_scenario_cells([tiny])
        assert result == ScenarioRunner(tiny).run()

    def test_preserves_spec_order(self, tiny):
        specs = [
            tiny,
            get_scenario("quickstart").with_workload(slots=6),
        ]
        results = run_scenario_cells(specs)
        assert [r.spec.workload.slots for r in results] == [5, 6]

    def test_a_run_under_several_labels_is_submitted_once(self, tiny, monkeypatch):
        from repro.campaign.executor import CampaignExecutor

        submitted = []
        run = CampaignExecutor.run

        def recording_run(self, campaign, **kwargs):
            submitted.extend(cell.scenario.name for cell in campaign.cells)
            return run(self, campaign, **kwargs)

        monkeypatch.setattr(CampaignExecutor, "run", recording_run)
        other = get_scenario("quickstart").with_workload(slots=6)
        specs = [tiny, other, replace(tiny, name="again"), tiny]
        results = run_scenario_cells(specs)
        assert submitted == [tiny.name, other.name]
        # one result per spec, in order, each carrying the spec it was
        # submitted under
        assert [r.spec for r in results] == specs
        assert results[0].trace_sha256 == results[2].trace_sha256 == results[3].trace_sha256
        assert results[1].trace_sha256 != results[0].trace_sha256

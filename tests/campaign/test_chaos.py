"""Chaos harness tests: spec, plan determinism, and convergence.

The headline guarantee pinned here is the chaos gate's: a
campaign run under a seeded :class:`ChaosSpec` — injected exceptions,
a killed worker, a hung cell hitting the cell timeout — converges,
after bounded retries, to payloads byte-identical to a clean serial
run.
"""

import json
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.chaos import (
    CHAOS_EXCEPTION,
    CHAOS_HANG,
    CHAOS_KILL,
    ChaosError,
    ChaosSpec,
    chaos_from_env,
    seeded_backoff,
)
from repro.campaign.executor import CampaignExecutor
from repro.campaign.presets import get_campaign
from repro.campaign.spec import CampaignSpec, CellSpec, replicate_seeds
from repro.scenario import get_scenario


def tiny_spec():
    """Seed-sensitive (PoP validation on) and fast (~tens of ms)."""
    return get_scenario("ledger-comparison").with_workload(
        slots=8, validation_min_age_slots=4
    )


@pytest.fixture
def campaign():
    return CampaignSpec(name="grid", cells=replicate_seeds(tiny_spec(), (0, 1, 2)))


class TestChaosSpec:
    def test_rejects_negative_counts(self):
        with pytest.raises(ChaosError, match="exceptions"):
            ChaosSpec(exceptions=-1)
        with pytest.raises(ChaosError, match="kills"):
            ChaosSpec(kills=-2)

    @pytest.mark.parametrize("hang_s", [0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_hang_that_is_not_positive_and_finite(self, hang_s):
        with pytest.raises(ChaosError, match="hang_s"):
            ChaosSpec(hangs=1, hang_s=hang_s)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ChaosError, match="warp"):
            ChaosSpec.from_dict({"exceptions": 1, "warp": True})

    def test_round_trips_through_dict(self):
        spec = ChaosSpec(seed=7, exceptions=2, kills=1, hangs=1, hang_s=3.5)
        assert ChaosSpec.from_dict(spec.to_dict()) == spec

    def test_plan_is_a_pure_function_of_seed_and_position_set(self):
        positions = list(range(8))
        spec = ChaosSpec(seed=3, exceptions=2, kills=1, hangs=1)
        plan = spec.plan(positions)
        assert plan == spec.plan(reversed(positions))  # order-independent
        assert sorted(plan.values()).count(CHAOS_EXCEPTION) == 2
        assert sorted(plan.values()).count(CHAOS_KILL) == 1
        assert sorted(plan.values()).count(CHAOS_HANG) == 1
        assert set(plan) <= set(positions)
        # a different seed afflicts a different selection here — and
        # always deterministically
        other = ChaosSpec(seed=4, exceptions=2, kills=1, hangs=1)
        assert other.plan(positions) != plan
        assert other.plan(positions) == other.plan(positions)

    def test_plan_truncates_when_cells_run_out(self):
        spec = ChaosSpec(exceptions=5, kills=5)
        plan = spec.plan(range(3))
        assert len(plan) == 3

    @pytest.mark.parametrize("field, value, shown", [
        ("hang_s", float("nan"), "nan"),
        ("hang_s", float("inf"), "inf"),
        ("hang_s", "5", "'5'"),
        ("seed", "x", "'x'"),
        ("seed", 1.5, "1.5"),
        ("max_attempt", True, "True"),
        ("kills", [1], "[1]"),
    ])
    def test_each_field_is_a_typed_leaf(self, field, value, shown):
        with pytest.raises(ChaosError) as raised:
            ChaosSpec.from_dict({field: value})
        assert str(raised.value).startswith(f"chaos.{field} must be ")
        assert str(raised.value).endswith(f", got {shown}")

    def test_rejects_a_document_that_is_not_an_object(self):
        with pytest.raises(ChaosError, match="chaos must be a JSON object"):
            ChaosSpec.from_dict([1])

    def test_from_env_inline_file_and_off(self, tmp_path):
        assert chaos_from_env({}) is None
        assert chaos_from_env({"REPRO_CHAOS": "  "}) is None
        spec = ChaosSpec(seed=1, exceptions=2)
        inline = chaos_from_env({"REPRO_CHAOS": json.dumps(spec.to_dict())})
        assert inline == spec
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert chaos_from_env({"REPRO_CHAOS": str(path)}) == spec

    def test_from_env_rejects_garbage_loudly(self, tmp_path):
        with pytest.raises(ChaosError, match="not valid JSON"):
            chaos_from_env({"REPRO_CHAOS": "{nope"})
        with pytest.raises(ChaosError, match="cannot read"):
            chaos_from_env({"REPRO_CHAOS": str(tmp_path / "missing.json")})

    def test_executor_picks_up_env_chaos(self, monkeypatch):
        spec = ChaosSpec(seed=9, exceptions=1)
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(spec.to_dict()))
        assert CampaignExecutor().chaos == spec
        monkeypatch.delenv("REPRO_CHAOS")
        assert CampaignExecutor().chaos is None


class TestSeededBackoff:
    def test_deterministic_and_exponential(self):
        digest = "ab" * 32
        first = seeded_backoff(0.1, digest, 1)
        assert first == seeded_backoff(0.1, digest, 1)
        assert 0.05 <= first < 0.15  # base x [0.5, 1.5) jitter
        assert 0.1 <= seeded_backoff(0.1, digest, 2) < 0.3
        assert seeded_backoff(0.1, digest, 1) != seeded_backoff(0.1, "cd" * 32, 1)

    def test_zero_base_means_no_wait(self):
        assert seeded_backoff(0.0, "ab" * 32, 3) == 0.0


class TestChaosConvergence:
    """Chaos-ridden runs converge byte-identical to clean serial runs."""

    def clean_payloads(self, campaign):
        return CampaignExecutor().run(campaign).payloads()

    def test_serial_chaos_converges(self, campaign):
        chaos = ChaosSpec(seed=11, exceptions=2, kills=1)  # every cell afflicted
        result = CampaignExecutor(chaos=chaos).run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok and result.quarantined_count == 0
        assert result.flaky_count == 0
        assert [cell.attempts for cell in result.cells] == [2, 2, 2]
        kinds = {f.kind for cell in result.cells for f in cell.failures}
        assert kinds == {"chaos"}

    def test_parallel_chaos_with_real_worker_kill_converges(
        self, campaign, tmp_path
    ):
        chaos = ChaosSpec(seed=11, exceptions=1, kills=1)
        result = CampaignExecutor(
            workers=2, cache_dir=tmp_path, chaos=chaos
        ).run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok and result.flaky_count == 0

        events = ResultCache(tmp_path).read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert events[0]["chaos"] == chaos.to_dict()
        assert "pool-respawn" in kinds  # the SIGKILL'd worker
        failed = [event for event in events if event["event"] == "cell-failed"]
        assert {event["kind"] for event in failed} <= {"chaos", "worker-crash"}
        assert "worker-crash" in {event["kind"] for event in failed}
        assert kinds.count("cell") == 3  # every cell eventually landed

    def test_parallel_hang_is_killed_at_timeout_and_converges(
        self, campaign, tmp_path
    ):
        chaos = ChaosSpec(seed=5, hangs=1, hang_s=30.0)
        result = CampaignExecutor(
            workers=2, cache_dir=tmp_path, chaos=chaos, cell_timeout=1.5
        ).run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok
        events = ResultCache(tmp_path).read_journal(campaign.digest())
        respawns = [e for e in events if e["event"] == "pool-respawn"]
        assert any(e.get("timed_out") for e in respawns)
        failed = [e for e in events if e["event"] == "cell-failed"]
        assert "timeout" in {e["kind"] for e in failed}

    def test_chaos_spares_attempts_above_max_attempt(self, campaign):
        # with max_attempt=0 (default) the second attempt is chaos-free:
        # exceptions on every cell still converge with retries=1
        chaos = ChaosSpec(seed=2, exceptions=3)
        result = CampaignExecutor(
            chaos=chaos, retries=1
        ).run(campaign)
        assert result.ok
        assert all(cell.attempts == 2 for cell in result.cells)


def ci_schedules():
    """The ``$REPRO_CHAOS`` schedules of the chaos rows of
    ``tests/integration/test_execution_modes.py``: in a pool, in process."""
    modes = runpy.run_path(
        str(Path(__file__).parents[1] / "integration" / "test_execution_modes.py")
    )
    return [
        ChaosSpec.from_dict(modes[name]) for name in ("POOL_CHAOS", "IN_PROCESS_CHAOS")
    ]


class TestCiSchedule:
    """The fault-grid chaos gates: one seed, and a placement that charges
    each fault on its own."""

    def test_one_seed_for_every_chaos_gate(self):
        schedules = ci_schedules()
        assert len(schedules) == 2
        # the in-process gate shortens only the hang
        assert len({replace(spec, hang_s=1.0) for spec in schedules}) == 1

    def test_kill_in_the_first_window_and_the_hang_after_the_respawn(self):
        # Two workers take positions 0 and 1 first.  A killed worker
        # charges its neighbour a worker-crash too, so every other fault
        # must wait for the respawn, or it would be charged twice (a
        # hang) or not at all (an exception).
        spec = ci_schedules()[0]
        plan = spec.plan(range(len(get_campaign("fault-grid").cells)))
        first_window = {position for position, kind in plan.items() if position < 2}
        assert [plan[p] for p in first_window] == [CHAOS_KILL]
        assert sorted(plan.values()) == sorted(
            [CHAOS_KILL, CHAOS_HANG, CHAOS_EXCEPTION, CHAOS_EXCEPTION]
        )

    def test_fault_grid_plan_survives_a_code_version_bump(self, monkeypatch):
        import repro.campaign.executor as executor_module
        import repro.campaign.spec as spec_module

        def first_attempt_directives(version):
            monkeypatch.setattr(spec_module, "CAMPAIGN_CODE_VERSION", version)
            directives = {}

            def recording_worker(cell_payload, chaos=None):
                label = CellSpec.from_dict(cell_payload).label
                directives.setdefault(label, chaos and chaos["kind"])
                return {}, 0.0

            monkeypatch.setattr(executor_module, "_cell_worker", recording_worker)
            campaign = get_campaign("fault-grid")
            CampaignExecutor(chaos=ci_schedules()[0]).run(campaign)
            return campaign.digest(), directives

        before, plan_before = first_attempt_directives(2)
        after, plan_after = first_attempt_directives(3)
        assert before != after
        assert plan_before == plan_after
        assert sorted(kind for kind in plan_after.values() if kind) == sorted(
            [CHAOS_KILL, CHAOS_HANG, CHAOS_EXCEPTION, CHAOS_EXCEPTION]
        )

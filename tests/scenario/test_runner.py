"""ScenarioRunner: construction, determinism, churn, adversaries, results."""

import json

import pytest

from repro.attacks.behaviors import SilentResponder
from repro.faults import NODE_CRASH, NODE_REJOIN, FaultEvent, FaultScheduleSpec
from repro.scenario import (
    AdversarySpec,
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_topology,
    get_scenario,
)
from repro.sim.rng import RandomStreams


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=12),
        seed=4,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestTopologies:
    @pytest.mark.parametrize("spec,expected_nodes", [
        (TopologySpec(kind="grid", rows=3, cols=4), 12),
        (TopologySpec(kind="sequential-geometric", node_count=15), 15),
    ])
    def test_kinds_build_connected(self, spec, expected_nodes):
        topology = build_topology(spec, RandomStreams(1))
        assert topology.node_count == expected_nodes
        assert topology.is_connected()


class TestRunner:
    def test_run_produces_expected_blocks(self):
        result = ScenarioRunner(tiny_spec()).run()
        assert result.total_blocks == 9 * 12
        assert result.trace_sha256
        assert result.sample_slots == [12]
        assert len(result.per_node_storage_mb) == 9

    def test_same_spec_same_trace(self):
        first = ScenarioRunner(tiny_spec()).run()
        second = ScenarioRunner(tiny_spec()).run()
        assert first.trace_sha256 == second.trace_sha256

    def test_different_seed_different_trace(self):
        # Validation target picks draw from the seeded workload stream,
        # so the seed must reach the observable trace.  (A pure
        # generation workload on a deterministic grid is legitimately
        # seed-independent.)
        workload = WorkloadSpec(
            slots=14, validate=True, validation_min_age_slots=9,
            run_until_quiet=True,
        )
        first = ScenarioRunner(tiny_spec(workload=workload)).run()
        second = ScenarioRunner(tiny_spec(workload=workload, seed=5)).run()
        assert first.trace_sha256 != second.trace_sha256

    def test_sampled_series_lengths(self):
        spec = tiny_spec(workload=WorkloadSpec(slots=12, sample_slots=(4, 8, 12)))
        result = ScenarioRunner(spec).run()
        assert result.sample_slots == [4, 8, 12]
        for series in result.series.values():
            assert len(series) == 3
        assert result.storage_mb == sorted(result.storage_mb)

    def test_sample_axis_not_ending_at_final_slot(self):
        # The declared sample axis is authoritative: no phantom
        # final-slot point is appended (run_fig7/8 align these series
        # with equally-long cost-model series).
        spec = tiny_spec(workload=WorkloadSpec(slots=12, sample_slots=(4, 8)))
        result = ScenarioRunner(spec).run()
        assert result.sample_slots == [4, 8]
        for series in result.series.values():
            assert len(series) == 2

    def test_advance_beyond_workload_rejected(self):
        runner = ScenarioRunner(tiny_spec())
        with pytest.raises(ValueError, match="cannot advance"):
            runner.advance_to(99)

    def test_advance_backwards_rejected(self):
        runner = ScenarioRunner(tiny_spec()).build()
        runner.advance_to(8)
        with pytest.raises(ValueError, match="already simulated"):
            runner.advance_to(5)

    def test_advance_to_current_slot_is_a_noop(self):
        spec = tiny_spec(workload=WorkloadSpec(slots=12, sample_slots=(8,)))
        runner = ScenarioRunner(spec).build()
        runner.advance_to(8)
        sampled_then = dict(runner._sampled[8])
        runner.advance_to(8)  # must not re-record the slot-8 sample
        assert runner._sampled[8] == sampled_then

    def test_incremental_advance_equals_one_shot(self):
        runner = ScenarioRunner(tiny_spec()).build()
        runner.advance_to(5)
        runner.advance_to(12)
        split = runner.finish()
        whole = ScenarioRunner(tiny_spec()).run()
        assert split.trace_sha256 == whole.trace_sha256

    def test_validation_workload(self):
        spec = tiny_spec(
            workload=WorkloadSpec(
                slots=14, validate=True, validation_min_age_slots=9,
                run_until_quiet=True,
            )
        )
        result = ScenarioRunner(spec).run()
        assert result.validations > 0
        assert result.success_rate == 1.0

    def test_result_serializes_through_persistence(self):
        result = ScenarioRunner(tiny_spec()).run()
        assert json.dumps(result.to_dict()).count("trace_sha256") == 1

    def test_result_table_renders(self):
        result = ScenarioRunner(tiny_spec()).run()
        table = result.to_table()
        assert "storage_mb" in table and "slots" in table


def timeline(*events) -> FaultScheduleSpec:
    """A fault timeline of ``(kind, slot, nodes)`` events."""
    return FaultScheduleSpec(events=tuple(
        FaultEvent(kind=kind, slot=slot, nodes=nodes) for kind, slot, nodes in events
    ))


class TestChurn:
    def test_offline_nodes_stop_generating(self):
        spec = tiny_spec(
            workload=WorkloadSpec(
                slots=10, faults=timeline((NODE_CRASH, 5, (0, 1))),
            )
        )
        runner = ScenarioRunner(spec)
        result = runner.run()
        # 9 nodes x 5 slots, then 7 nodes x 5 slots.
        assert result.total_blocks == 9 * 5 + 7 * 5
        assert not runner.deployment.node(0).online

    def test_rejoin_restores_generation(self):
        spec = tiny_spec(
            workload=WorkloadSpec(
                slots=12,
                faults=timeline((NODE_CRASH, 4, (2,)), (NODE_REJOIN, 8, (2,))),
            )
        )
        runner = ScenarioRunner(spec)
        result = runner.run()
        assert runner.deployment.node(2).online
        assert result.total_blocks == 9 * 12 - 4
        assert len(runner.deployment.node(2).store) == 8


class TestAdversaries:
    def test_silent_coalition_installed(self):
        spec = tiny_spec(
            adversaries=(AdversarySpec(kind="silent", count=2, protect=(0,)),)
        )
        runner = ScenarioRunner(spec).build()
        assert len(runner.behaviors) == 2
        assert 0 not in runner.behaviors
        assert all(isinstance(b, SilentResponder) for b in runner.behaviors.values())
        assert set(runner.deployment.honest_ids) == (
            set(runner.deployment.node_ids) - set(runner.behaviors)
        )

    def test_two_coalitions_do_not_overlap(self):
        spec = ScenarioSpec(
            name="mixed",
            protocol=ProtocolSpec(body_bits=8_000, gamma=2),
            topology=TopologySpec(node_count=16),
            workload=WorkloadSpec(slots=5),
            adversaries=(
                AdversarySpec(kind="silent", count=3, stream_name="silent"),
                AdversarySpec(kind="corrupt", count=3, stream_name="corrupt"),
            ),
            seed=9,
        )
        runner = ScenarioRunner(spec).build()
        assert len(runner.behaviors) == 6

    def test_sybil_identities_exposed_and_rejected(self):
        spec = tiny_spec(
            adversaries=(AdversarySpec(kind="sybil", attacker=3, count=4),)
        )
        runner = ScenarioRunner(spec).build()
        assert len(runner.sybil_identities) == 4
        runner.advance_to(2)
        template = next(iter(runner.deployment.node(3).store)).header
        forged = runner.sybil_identities[0].forge_header(template)
        registry = runner.deployment.registry
        assert not registry.is_registered(forged.origin)

    def test_eclipse_rule_blocks_victim_pop(self):
        spec = get_scenario("attack-eclipse")
        runner = ScenarioRunner(spec).build()
        runner.advance_to(spec.workload.slots)
        deployment, workload = runner.deployment, runner.workload
        victim = deployment.node(4)
        target = workload.blocks_by_slot[2][0]
        process = victim.verify_block(target.origin, target, fetch_body=False)
        deployment.sim.run()
        assert not process.value.success

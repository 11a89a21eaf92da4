"""FaultEngine + backend fault hooks: dispatch, determinism, equivalence.

The contracts pinned here:

* the engine fires events in timeline order, exactly once, at the
  boundary before their slot is scheduled;
* every registered backend honours the same crash+rejoin schedule and
  yields the identical canonical trace for one (seed, schedule) pair;
* a crash+rejoin timeline runs byte-identically to the retired
  ``workload.churn`` shorthand it replaced (pinned digests per backend,
  and the pinned churn block counts);
* fault-free specs serialize and replay exactly as before (spec JSON
  and campaign cell digests untouched);
* a backend without a wired deployment refuses a fault with a clear
  error.
"""

import pytest

from repro.campaign.spec import CellSpec
from repro.faults import FaultEngine, FaultEvent, FaultScheduleSpec
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

ALL_BACKENDS = ("2ldag", "pbft", "iota")


def grid_spec(backend="2ldag", slots=8, **workload_overrides):
    return ScenarioSpec(
        name="fault-test",
        backend=backend,
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=slots, **workload_overrides),
        seed=4,
    )


def crash_rejoin(crash_slot=3, rejoin_slot=6, nodes=(0, 1)):
    return FaultScheduleSpec(events=(
        FaultEvent(kind="node-crash", slot=crash_slot, nodes=nodes),
        FaultEvent(kind="node-rejoin", slot=rejoin_slot, nodes=nodes),
    ))


class RecordingBackend:
    """A fake backend capturing apply_fault order."""

    name = "recording"

    def __init__(self):
        self.applied = []

    def apply_fault(self, event):
        self.applied.append(event)


class TestEngine:
    def test_events_fire_in_order_once(self):
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="link-degrade", slot=2, loss=0.1),
            FaultEvent(kind="node-crash", slot=2, nodes=(1,)),
            FaultEvent(kind="node-rejoin", slot=5, nodes=(1,)),
        ))
        backend = RecordingBackend()
        engine = FaultEngine(schedule, backend)
        assert engine.boundary_slots == (2, 5)
        engine.apply_due(0)
        assert backend.applied == []
        engine.apply_due(2)
        assert [e.kind for e in backend.applied] == ["link-degrade", "node-crash"]
        engine.apply_due(2)  # idempotent at the same boundary
        assert len(backend.applied) == 2
        engine.apply_due(7)
        assert [e.kind for e in backend.applied] == [
            "link-degrade", "node-crash", "node-rejoin"
        ]
        assert engine.pending == 0

    def test_late_boundary_applies_all_due(self):
        backend = RecordingBackend()
        engine = FaultEngine(crash_rejoin(), backend)
        engine.apply_due(10)
        assert len(backend.applied) == 2


class TestDispatch:
    def test_link_capable_backend_without_network_reports_clearly(self):
        from repro.faults import FaultError
        from repro.scenario.backends import LedgerBackend

        class NetlessBackend(LedgerBackend):
            name = "netless"

            def build(self): ...
            def advance_slots(self, start_slot, count): ...
            def crash_nodes(self, node_ids): ...
            def rejoin_nodes(self, node_ids, forgive): ...
            def total_blocks(self): return 0
            def trace_lines(self): return []

        backend = NetlessBackend(grid_spec())
        backend.streams = object()  # degrade_links only reads it on loss > 0
        with pytest.raises(FaultError, match="netless backend has no wired deployment"):
            backend.apply_fault(
                FaultEvent(kind="link-degrade", slot=1, extra_latency=0.01)
            )


class TestRunnerIntegration:
    def test_crash_stops_generation_and_rejoin_restores(self):
        spec = grid_spec(slots=10, faults=crash_rejoin(5, 8, nodes=(0, 1)))
        runner = ScenarioRunner(spec)
        result = runner.run()
        # 9 nodes for 5 slots, 7 for 3 slots, 9 again for 2 slots.
        assert result.total_blocks == 9 * 5 + 7 * 3 + 9 * 2
        assert runner.deployment.node(0).online
        assert len(runner.fault_engine.applied) == 2

    def test_incremental_advance_matches_one_shot(self):
        spec = grid_spec(slots=10, faults=crash_rejoin(4, 7))
        split = ScenarioRunner(spec).build()
        split.advance_to(5)
        split.advance_to(10)
        assert split.finish().trace_sha256 == ScenarioRunner(spec).run().trace_sha256

    def test_partition_blocks_cross_group_delivery(self):
        # 3x3 grid: isolate the left column; PoP from the right side
        # cannot hear them while partitioned.
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="partition", slot=3, groups=((0, 3, 6),)),
        ))
        runner = ScenarioRunner(grid_spec(slots=8, faults=schedule))
        result = runner.run()
        clean = ScenarioRunner(grid_spec(slots=8)).run()
        assert result.trace_sha256 != clean.trace_sha256
        # Partitioned nodes keep generating locally (crash ≠ partition).
        assert result.total_blocks == clean.total_blocks
        # Node 0's A_i went stale at the cut: its last block embeds
        # node 1's slot-2 digest, not a current one.
        last = runner.deployment.node(0).store.latest
        cross_digest = last.header.digests[1]
        neighbor_store = runner.deployment.node(1).store
        stale = list(neighbor_store)[2].digest()
        assert cross_digest == stale
        assert cross_digest != neighbor_store.latest.digest()

    def test_heal_restores_delivery(self):
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="partition", slot=3, groups=((0, 3, 6),)),
            FaultEvent(kind="heal", slot=5),
        ))
        runner = ScenarioRunner(grid_spec(slots=10, faults=schedule))
        runner.run()
        assert runner.backend._partition_rule is None

    def test_link_degrade_changes_latency_and_restores(self):
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="link-degrade", slot=2, loss=0.0, extra_latency=0.004),
            FaultEvent(kind="link-degrade", slot=6),
        ))
        runner = ScenarioRunner(grid_spec(slots=8, faults=schedule)).build()
        base_latency = runner.deployment.network.per_hop_latency
        runner.advance_to(4)
        assert runner.deployment.network.per_hop_latency == base_latency + 0.004
        result = runner.finish()
        assert runner.deployment.network.per_hop_latency == base_latency
        assert result.trace_sha256  # run completed

    def test_lossy_links_perturb_pop(self):
        workload = dict(validate=True, validation_min_age_slots=6,
                        run_until_quiet=True)
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="link-degrade", slot=2, loss=0.4),
        ))
        lossy = ScenarioRunner(grid_spec(slots=12, faults=schedule, **workload)).run()
        clean = ScenarioRunner(grid_spec(slots=12, **workload)).run()
        assert lossy.trace_sha256 != clean.trace_sha256
        assert lossy.success_rate <= clean.success_rate


class TestDeterminismPerBackend:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_same_seed_same_schedule_same_trace(self, backend):
        spec = grid_spec(backend=backend, faults=crash_rejoin())
        first, second = ScenarioRunner(spec).run(), ScenarioRunner(spec).run()
        assert first.trace_sha256 == second.trace_sha256
        assert first.series == second.series
        assert first.events == second.events

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_faults_reach_the_trace(self, backend):
        faulted = ScenarioRunner(grid_spec(backend=backend, faults=crash_rejoin())).run()
        clean = ScenarioRunner(grid_spec(backend=backend)).run()
        assert faulted.trace_sha256 != clean.trace_sha256

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_compound_schedule_deterministic(self, backend):
        from repro.faults import build_fault_preset

        spec = grid_spec(backend=backend, faults=build_fault_preset("stress", 9, 8))
        assert (ScenarioRunner(spec).run().trace_sha256
                == ScenarioRunner(spec).run().trace_sha256)

    def test_pbft_crash_exercises_view_change(self):
        # Crashing replica 0 (the view-0 primary) must push live
        # replicas into a later view once their timers expire.
        spec = grid_spec(backend="pbft", slots=8,
                         faults=crash_rejoin(2, 6, nodes=(0,)))
        runner = ScenarioRunner(spec)
        runner.run()
        cluster = runner.backend.cluster
        assert max(r.view for r in cluster.replicas.values()) > 0
        # Consensus survived the crash.
        assert min(r.chain.height for r in cluster.live_replicas()) > 0

    def test_iota_crashed_node_misses_gossip(self):
        spec = grid_spec(backend="iota", slots=8,
                         faults=crash_rejoin(3, 6, nodes=(4,)))
        runner = ScenarioRunner(spec)
        runner.run()
        network = runner.backend.network
        assert len(network.nodes[4].tangle) < max(
            len(n.tangle) for n in network.nodes.values()
        )


#: Per backend, the trace digest and block count of ``grid_spec`` with
#: nodes 0 and 1 crashed at slot 3 and rejoining at slot 6, recorded
#: when that run was declared through the retired ``workload.churn``
#: shorthand (``offline_nodes=(0, 1), offline_slot=3, rejoin_slot=6``).
CHURN_GOLDENS = {
    "2ldag": ("9a8ab5243d0ac11524eba4031a3bee48ef54dcb7b6efb797f76da606f89eaf5c", 66),
    "pbft": ("4d5651aac507f51fa3cfcaf7cbd06b6c4f618f8ece17db273d122b37f473ff6d", 74),
    "iota": ("ea923dc1f4c5895a22056b883bd78ebde750edfd7273d4ef1de6f602666454b2", 66),
}


class TestChurnEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_crash_rejoin_timeline_matches_the_churn_golden(self, backend):
        result = ScenarioRunner(grid_spec(backend=backend, faults=crash_rejoin())).run()
        assert (result.trace_sha256, result.total_blocks) == CHURN_GOLDENS[backend]

    def test_churn_golden_block_counts_unchanged(self):
        # The pre-fault-engine churn behaviour, pinned by the original
        # runner tests: 9 nodes x 5 slots, then 7 x 5 with no rejoin.
        crash = FaultEvent(kind="node-crash", slot=5, nodes=(0, 1))
        result = ScenarioRunner(
            grid_spec(slots=10, faults=FaultScheduleSpec(events=(crash,)))
        ).run()
        assert result.total_blocks == 9 * 5 + 7 * 5


class TestSpecIntegration:
    def test_fault_free_spec_serializes_without_faults_key(self):
        assert "faults" not in grid_spec().to_dict()["workload"]

    def test_fault_free_cell_digest_unchanged(self):
        # The campaign cache key of a fault-free cell must not move.
        with_field = CellSpec(scenario=grid_spec())
        assert "faults" not in with_field.scenario.to_dict()["workload"]

    def test_faulted_spec_round_trips(self):
        spec = grid_spec(faults=crash_rejoin())
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.workload.faults == spec.workload.faults

    def test_fault_digest_differs_from_fault_free(self):
        assert (CellSpec(scenario=grid_spec()).digest()
                != CellSpec(scenario=grid_spec(faults=crash_rejoin())).digest())

    def test_event_past_workload_rejected(self):
        from repro.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="past the"):
            grid_spec(slots=5, faults=crash_rejoin(3, 6))

    def test_unknown_topology_node_rejected(self):
        from repro.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="not among the 9"):
            grid_spec(faults=crash_rejoin(nodes=(0, 12)))

    def test_bad_embedded_schedule_reports_fault_error(self):
        from repro.scenario import ScenarioError

        payload = grid_spec(faults=crash_rejoin()).to_dict()
        payload["workload"]["faults"]["events"][0]["kind"] = "meteor"
        with pytest.raises(ScenarioError, match="invalid fault schedule"):
            ScenarioSpec.from_dict(payload)

"""Unit tests for the slot-driven workload driver."""

import pytest

from repro.analysis.bounds import prop1_total_blocks
from repro.core.dag import LogicalDag
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.faults import NODE_CRASH, NODE_REJOIN, FaultEvent, FaultScheduleSpec
from repro.scenario import (
    AdversarySpec,
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


class TestSlotWorkload:
    def test_one_block_per_node_per_slot(self, small_deployment):
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(5)
        assert workload.total_blocks() == 5 * 9

    def test_period_two_halves_output(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(deployment, generation_period=2)
        workload.run(10)
        assert workload.total_blocks() == 5 * 9  # slots 0,2,4,6,8

    def test_random_periods_drawn_from_1_2(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(deployment, generation_period="random-1-2")
        assert set(workload.period.values()) <= {1, 2}

    def test_invalid_period_rejected(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        with pytest.raises(ValueError):
            SlotSimulation(deployment, generation_period=0)

    def test_rerunning_same_slot_rejected(self, small_deployment):
        workload = SlotSimulation(small_deployment)
        workload.run(3)
        with pytest.raises(ValueError):
            workload.run(1, start_slot=2)

    def test_block_count_matches_prop1(self, small_config, grid9):
        """Proposition 1 with C=1, rates in blocks/slot."""
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(deployment, generation_period=1)
        slots = 7
        workload.run(slots)
        rates = {n: 1.0 for n in deployment.node_ids}
        # Slots 0..6 inclusive produce 7 generation instants.
        assert workload.total_blocks() == prop1_total_blocks(rates, 1.0, slots)


class _CreationOrder:
    """A span-collector stand-in that keeps the order blocks were created in."""

    def __init__(self, created):
        self._created = created

    def created(self, node, block):
        self._created.append(str(block.block_id))

    def gossiped(self, node, block):
        pass

    def received(self, node, sender, digest):
        pass

    def validated(self, record):
        pass


class TestDagView:
    """``TwoLayerDagNetwork.dag`` is a view over the stores, built on read.

    The reference is a ``LogicalDag`` fed every generated header in the
    order a stub span collector on the network saw the blocks created.
    """

    def spec(self):
        return ScenarioSpec(
            name="dag-view",
            protocol=ProtocolSpec.paper(gamma=3, body_mb=0.05, reply_timeout=0.05),
            topology=TopologySpec(kind="grid", rows=4, cols=4, spacing=40.0, comm_range=90.0),
            workload=WorkloadSpec(
                slots=24,
                validate=True,
                validation_min_age_slots=4,
                faults=FaultScheduleSpec(events=(
                    FaultEvent(kind=NODE_CRASH, slot=8, nodes=(1, 6)),
                    FaultEvent(kind=NODE_REJOIN, slot=14, nodes=(1, 6)),
                )),
            ),
            adversaries=(AdversarySpec(kind="corrupt", count=3),),
            seed=5,
        )

    def test_view_equals_the_dag_built_in_generation_order(self):
        runner = ScenarioRunner(self.spec()).build()
        deployment = runner.deployment
        generated = []
        deployment.network.spans = _CreationOrder(generated)
        for slot in range(1, runner.spec.workload.slots + 1):
            runner.advance_to(slot)
            view = deployment.dag
            assert deployment.dag is view  # no slot between: the memo
            assert len(view) == runner.workload.total_blocks()
        runner.finish()

        headers = {
            str(block.block_id): block.header
            for node in deployment.nodes.values()
            for block in node.store
        }
        assert sorted(generated) == sorted(headers)
        reference = LogicalDag(deployment.config.hash_bits)
        for block in generated:
            reference.add_header(headers[block])
        view = deployment.dag
        assert view.block_ids() == reference.block_ids()
        for block in reference.block_ids():
            assert view.parents(block) == reference.parents(block)
            assert view.children(block) == reference.children(block)
        assert view.edge_count() == reference.edge_count() > 0
        assert view.is_acyclic()


class TestEligiblePool:
    """The incremental validation-target pool mirrors the live scan."""

    def _pool_matches_live_scan(self, workload):
        merged = workload._eligible_merged_slot
        if merged is None:
            return workload._eligible_sorted == []
        expected = sorted(
            block
            for slot, blocks in workload.blocks_by_slot.items()
            if slot <= merged
            for block in blocks
        )
        return workload._eligible_sorted == expected

    def test_pool_is_exact_snapshot(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=3
        )
        workload.run(10)
        workload.run_until_quiet()
        assert workload._eligible_merged_slot is not None
        assert self._pool_matches_live_scan(workload)

    def test_pool_exact_with_large_jitter(self, small_config, grid9):
        # intra_slot_jitter >= 1 pushes some slot-s generators past slot
        # s's run window; their blocks must still join the pool even
        # though their slot was folded in before they fired.
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=3)
        # min age 1 makes a slot get folded during its successor's window,
        # i.e. *before* the late generators of that slot have fired.
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=1,
            intra_slot_jitter=1.5,
        )
        workload.run(12)
        workload.run_until_quiet()
        assert workload.total_blocks() == 12 * 9
        assert self._pool_matches_live_scan(workload)


class TestValidationWorkload:
    def test_validations_start_after_min_age(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=9
        )
        workload.run(9)
        assert len(workload.validations) + workload.pending_validations == 0
        workload.run(3, start_slot=9)
        workload.run_until_quiet()
        assert len(workload.validations) > 0

    def test_validation_targets_are_old_enough(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=9
        )
        workload.run(15)
        workload.run_until_quiet()
        slot_of_block = {
            b: s for s, blocks in workload.blocks_by_slot.items() for b in blocks
        }
        for record in workload.validations:
            assert slot_of_block[record.block_id] <= record.slot_started - 9

    def test_all_validations_succeed_with_no_adversaries(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=9
        )
        workload.run(20)
        workload.run_until_quiet()
        assert workload.success_rate() == 1.0

    def test_validator_never_validates_own_block(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(
            deployment, validate=True, validation_min_age_slots=9
        )
        workload.run(15)
        workload.run_until_quiet()
        for record in workload.validations:
            assert record.validator != record.block_id.origin


class TestDeterminism:
    def test_same_seed_same_dag(self, small_config, grid9):
        def run_once():
            deployment = TwoLayerDagNetwork(
                config=small_config, topology=grid9, seed=42
            )
            workload = SlotSimulation(deployment)
            workload.run(6)
            return sorted(str(b) for b in deployment.dag.block_ids())

        assert run_once() == run_once()

    def test_different_seed_different_jitter(self, small_config, grid9):
        def digests(seed):
            deployment = TwoLayerDagNetwork(
                config=small_config, topology=grid9, seed=seed
            )
            workload = SlotSimulation(deployment)
            workload.run(4)
            return [
                deployment.dag.header(b).time for b in deployment.dag.block_ids()
            ]

        assert digests(1) != digests(2)

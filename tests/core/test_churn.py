"""Tests for dynamic join/leave (§VII future work)."""


from repro.core.protocol import SlotSimulation


class TestChurn:
    def test_offline_node_stops_generating(self, small_deployment):
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(3)
        small_deployment.node(4).go_offline()
        workload.run(3, start_slot=3)
        # Node 4 generated only in the first three slots.
        assert len(small_deployment.node(4).store) == 3
        # Everyone else kept going.
        assert len(small_deployment.node(0).store) == 6

    def test_offline_node_silent_to_pop(self, small_deployment):
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(10)
        target = workload.blocks_by_slot[0][0]
        verifier = target.origin
        small_deployment.node(verifier).go_offline()
        process = small_deployment.node(8 if verifier != 8 else 7).verify_block(
            verifier, target
        )
        small_deployment.sim.run()
        assert not process.value.success
        assert process.value.error == "verifier-timeout"

    def test_rejoin_resumes_generation_and_service(self, small_deployment):
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(3)
        node = small_deployment.node(4)
        node.go_offline()
        workload.run(3, start_slot=3)
        node.come_online()
        workload.run(4, start_slot=6)
        # Generated in slots 0-2 and 6-9: 7 blocks.
        assert len(node.store) == 7
        # Its chain continuity is preserved: block 3 references block 2.
        digest_prev = node.store.by_index(2).digest()
        assert node.store.by_index(3).header.digests[4] == digest_prev

    def test_rejoining_node_clears_stale_digests(self, small_deployment):
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(3)
        node = small_deployment.node(4)
        node.go_offline()
        workload.run(3, start_slot=3)
        node.come_online()
        assert node.neighbor_digests == {}
        workload.run(2, start_slot=6)
        # Fresh digests repopulate within a slot of rejoining.
        assert len(node.neighbor_digests) == len(node.neighbors)

    def test_network_verifies_across_churn(self, small_deployment):
        """Blocks remain verifiable even after their author briefly left
        (descendants at other nodes vouch for them)."""
        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(10)
        node = small_deployment.node(4)
        node.go_offline()
        workload.run(3, start_slot=10)
        node.come_online()
        workload.run(3, start_slot=13)
        target = workload.blocks_by_slot[0][0]
        validator = 8 if target.origin != 8 else 7
        process = small_deployment.node(validator).verify_block(
            target.origin, target
        )
        small_deployment.sim.run()
        assert process.value.success


class TestHopAwareValidator:
    def test_hop_aware_succeeds_and_spends_fewer_bytes(self, small_deployment, finished):
        from repro.core.protocol import SlotSimulation

        workload = SlotSimulation(small_deployment, generation_period=1)
        workload.run(12)
        target = workload.blocks_by_slot[0][0]
        validator = 8 if target.origin != 8 else 7
        node = small_deployment.node(validator)

        outcome = finished(
            small_deployment.sim, node.validator(hop_aware=True).run(target.origin, target)
        )
        assert outcome.success
        assert len(outcome.consensus_set) >= (
            small_deployment.config.consensus_quorum()
        )

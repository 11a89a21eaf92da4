"""The baselines' shared slot loop against the loops it replaced.

``WiredDeployment._run_slots`` schedules ``(fn, *args)`` submissions;
``PbftCluster.run_slots`` and ``IotaNetwork.run_slots`` each used to
carry their own copy of the loop and schedule one closure per
submission.  The two reference loops below are those copies, kept here
so the property can hold the shared loop to them: same clock, same
event count, same ledgers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.iota.node import IotaNetwork
from repro.baselines.pbft.cluster import PbftCluster
from repro.baselines.pbft.messages import Request
from repro.net.topology import grid_topology


def reference_pbft_slots(cluster, slots, settle_time):
    for _ in range(slots):
        cluster.current_slot += 1
        slot = cluster.current_slot
        slot_time = max(float(slot), cluster.sim.now)
        for node_id, replica in cluster.replicas.items():
            if replica.crashed:
                continue
            request = Request(
                client=node_id,
                payload_seed=f"blk:{node_id}:{slot}".encode(),
                payload_bits=cluster.payload_bits,
                timestamp=float(slot),
            )
            cluster.sim.call_at(slot_time, lambda r=replica, q=request: r.submit(q))
        cluster.sim.run(until=slot_time + 1)
    cluster.sim.run(until=cluster.sim.now + settle_time)


def reference_iota_slots(network, slots, settle_time):
    for _ in range(slots):
        network.current_slot += 1
        slot_time = max(float(network.current_slot), network.sim.now)
        for node in network.nodes.values():
            if not node.online:
                continue
            network.sim.call_at(
                slot_time, lambda n=node: n.issue(network.payload_bits)
            )
        network.sim.run(until=slot_time + 1)
    network.sim.run(until=network.sim.now + settle_time)


def observable(deployment, ledgers):
    return (
        deployment.sim.now,
        deployment.sim.processed_count,
        deployment.current_slot,
        ledgers,
        deployment.traffic.snapshot_tx(),
        deployment.traffic.message_counts(),
    )


def pbft_state(cluster):
    return observable(
        cluster, [r.chain.height for r in cluster.replicas.values()]
    )


def iota_state(network):
    return observable(network, [len(n.tangle) for n in network.nodes.values()])


#: rows, cols, slots before and after the crash set changes, who crashes.
_CASE = st.tuples(
    st.integers(2, 3), st.integers(2, 3), st.integers(1, 3), st.integers(0, 2),
    st.sets(st.integers(0, 8), max_size=3),
)


class TestSharedSlotLoop:
    @given(_CASE, st.sampled_from([0.5, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_pbft_matches_the_closure_loop(self, case, settle_time):
        rows, cols, first, second, down = case
        down = {n for n in down if n < rows * cols}

        def drive(run_slots):
            cluster = PbftCluster(
                topology=grid_topology(rows, cols), payload_bits=8_000, seed=3
            )
            run_slots(cluster, first, settle_time)
            cluster.crash(down)
            # The settle pushed the clock past the next slot boundary.
            run_slots(cluster, second, settle_time)
            return pbft_state(cluster)

        assert drive(PbftCluster.run_slots) == drive(reference_pbft_slots)

    @given(_CASE, st.sampled_from([0.5, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_iota_matches_the_closure_loop(self, case, settle_time):
        rows, cols, first, second, down = case
        down = {n for n in down if n < rows * cols}

        def drive(run_slots):
            network = IotaNetwork(
                topology=grid_topology(rows, cols), payload_bits=8_000, seed=3
            )
            run_slots(network, first, settle_time)
            for node_id in down:
                network.nodes[node_id].online = False
            run_slots(network, second, settle_time)
            return iota_state(network)

        assert drive(IotaNetwork.run_slots) == drive(reference_iota_slots)

"""Property-based tests on PoP validator invariants.

Randomized topologies, workloads and adversary placements; the
invariants must hold in every case:

* a successful outcome's path is a genuine parent->child chain anchored
  at the target, traversing ≥ γ+1 distinct origins, every header
  authentic;
* success implies the omniscient oracle agrees a path existed;
* the validator terminates (driven implicitly — the simulator drains).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.behaviors import CorruptResponder, SilentResponder
from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


def build_attacked_system(seed, node_count, slots, gamma, malicious, corrupt):
    streams = RandomStreams(seed)
    topology = sequential_geometric_topology(
        node_count=node_count, area_side=300.0, comm_range=70.0, streams=streams
    )
    ids = topology.node_ids
    behaviors = {}
    pool = streams.shuffled("adversaries", ids)
    for node_id in pool[:malicious]:
        behaviors[node_id] = SilentResponder()
    for node_id in pool[malicious:malicious + corrupt]:
        behaviors[node_id] = CorruptResponder()
    config = ProtocolConfig(body_bits=8_000, gamma=gamma, reply_timeout=0.05)
    deployment = TwoLayerDagNetwork(
        config=config, topology=topology, seed=seed, behaviors=behaviors
    )
    workload = SlotSimulation(deployment, validate=False)
    workload.run(slots)
    return deployment, workload, behaviors


@st.composite
def scenario(draw):
    node_count = draw(st.integers(min_value=6, max_value=14))
    return {
        "seed": draw(st.integers(min_value=0, max_value=100_000)),
        "node_count": node_count,
        "slots": draw(st.integers(min_value=8, max_value=16)),
        "gamma": draw(st.integers(min_value=1, max_value=max(1, node_count // 3))),
        "malicious": draw(st.integers(min_value=0, max_value=max(0, node_count // 4))),
        "corrupt": draw(st.integers(min_value=0, max_value=1)),
    }


class TestValidatorInvariants:
    @given(scenario())
    @settings(max_examples=15, deadline=None)
    def test_success_implies_valid_path(self, references, consensus_feasible, params):
        deployment, workload, behaviors = build_attacked_system(**params)
        config = deployment.config
        honest = [n for n in deployment.node_ids if n not in behaviors]
        if len(honest) < 2:
            return
        target = next(
            (b for b in workload.blocks_by_slot[0] if b.origin in honest), None
        )
        if target is None:
            return
        validator_id = next(n for n in honest if n != target.origin)
        process = deployment.node(validator_id).verify_block(
            target.origin, target, fetch_body=False
        )
        deployment.sim.run()
        outcome = process.value

        if not outcome.success:
            return  # failure is acceptable; validity is what we check
        # Anchored at the target.
        assert outcome.path[0].block_id == target
        # Quorum of distinct origins.
        assert len({h.origin for h in outcome.path}) >= config.consensus_quorum()
        assert outcome.consensus_set == {h.origin for h in outcome.path}
        # Line 39: the whole path is in H_i afterwards, whether a header
        # arrived over the network or was already there.
        cache = deployment.node(validator_id).cache
        assert all(cache.get(h.block_id) == h for h in outcome.path)
        # Genuine chain: each element references its predecessor.
        for parent, child in zip(outcome.path, outcome.path[1:]):
            assert references(child, parent.digest(config.hash_bits))
        # Every header authentic under the registered key.
        for header in outcome.path:
            public = deployment.registry.public_key(header.origin)
            assert header.verify_signature(public)
        # The omniscient oracle agrees a path existed.
        assert consensus_feasible(deployment.dag, target, config.gamma)

    @given(scenario())
    @settings(max_examples=10, deadline=None)
    def test_no_adversary_zero_gamma_always_succeeds(self, params):
        """With γ=1 and no adversaries, any ≥2-slot-old block verifies
        (its author's next block plus one neighbour block suffice)."""
        params = dict(params, malicious=0, corrupt=0, gamma=1)
        deployment, workload, _ = build_attacked_system(**params)
        target = workload.blocks_by_slot[0][0]
        validator_id = next(
            n for n in deployment.node_ids if n != target.origin
        )
        process = deployment.node(validator_id).verify_block(
            target.origin, target, fetch_body=False
        )
        deployment.sim.run()
        assert process.value.success

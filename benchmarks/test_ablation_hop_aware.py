"""Ablation: hop-aware responder selection (§VII future work).

Compares standard WPS against hop-aware tie-breaking on the same
deployment: message *counts* should match (same algorithm up to ties),
while transmitted *bytes* should not increase — nearer responders mean
shorter routes for RPY_CHILD headers.
"""

from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


def _run(finished, hop_aware: bool, seed: int = 51):
    streams = RandomStreams(seed)
    topology = sequential_geometric_topology(node_count=25, streams=streams)
    config = ProtocolConfig(body_bits=80_000, gamma=7, reply_timeout=0.05)
    deployment = TwoLayerDagNetwork(config=config, topology=topology, seed=seed)
    workload = SlotSimulation(deployment, generation_period=1)
    workload.run(30)

    validator_node = deployment.node(0)
    targets = [
        b for s in range(4) for b in workload.blocks_by_slot[s] if b.origin != 0
    ][:10]
    outcomes = []
    for target in targets:
        outcomes.append(finished(
            deployment.sim,
            validator_node.validator(hop_aware=hop_aware, use_tps=False).run(
                target.origin, target, fetch_body=False
            ),
        ))
    pop_bits = deployment.traffic.tx_bits(0, ["pop"]) + sum(
        deployment.traffic.tx_bits(n, ["pop"]) for n in deployment.node_ids if n != 0
    )
    return outcomes, pop_bits


def test_ablation_hop_aware(benchmark, finished):
    def run_both():
        baseline, baseline_bits = _run(finished, hop_aware=False)
        aware, aware_bits = _run(finished, hop_aware=True)
        return baseline, baseline_bits, aware, aware_bits

    baseline, baseline_bits, aware, aware_bits = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print(f"\nPoP bytes, standard WPS: {baseline_bits / 8e6:.2f} MB; "
          f"hop-aware: {aware_bits / 8e6:.2f} MB "
          f"({(1 - aware_bits / baseline_bits) * 100:+.1f}% change)")
    assert all(o.success for o in baseline)
    assert all(o.success for o in aware)
    # Hop-awareness must not blow up traffic; it usually trims it.
    assert aware_bits <= baseline_bits * 1.15

"""Ablation benchmarks for the design choices docs/performance.md
("Substitution record") calls out.

* WPS vs random next-responder choice — headers retrieved per
  verification (WPS should need no more, usually fewer).
* TPS cache on vs off — repeat-verification message cost (TPS should
  collapse it toward zero; Prop. 4 lower-bounds the cold case).
* Responder oldest-child rule (Eq. 11) vs the cache's behaviour on
  micro-loops (path lengths stay bounded by Prop. 5).
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import sequential_geometric_topology
from repro.sim.rng import RandomStreams


def build_system(seed, node_count=20, slots=30, gamma=6):
    streams = RandomStreams(seed)
    topology = sequential_geometric_topology(node_count=node_count, streams=streams)
    config = ProtocolConfig(body_bits=80_000, gamma=gamma, reply_timeout=0.1)
    deployment = TwoLayerDagNetwork(config=config, topology=topology, seed=seed)
    workload = SlotSimulation(deployment, validate=False)
    workload.run(slots)
    return deployment, workload


def run_validations(finished, deployment, workload, validator_id, use_tps, use_wps, count=10):
    """Run `count` verifications of distinct old blocks; return outcomes."""
    targets = [
        b for s in range(0, 5) for b in workload.blocks_by_slot[s]
        if b.origin != validator_id
    ][:count]
    outcomes = []
    node = deployment.node(validator_id)
    for target in targets:
        outcomes.append(finished(
            deployment.sim,
            node.validator(use_tps=use_tps, use_wps=use_wps).run(
                target.origin, target, fetch_body=False
            ),
        ))
    return outcomes


def test_ablation_wps_vs_random(benchmark, finished):
    """WPS should not retrieve more headers than random selection."""

    def run_both():
        d1, w1 = build_system(seed=31)
        wps = run_validations(finished, d1, w1, validator_id=0, use_tps=False, use_wps=True)
        d2, w2 = build_system(seed=31)
        rnd = run_validations(finished, d2, w2, validator_id=0, use_tps=False, use_wps=False)
        return wps, rnd

    wps, rnd = benchmark.pedantic(run_both, rounds=1, iterations=1)
    wps_headers = sum(o.headers_retrieved for o in wps) / len(wps)
    rnd_headers = sum(o.headers_retrieved for o in rnd) / len(rnd)
    print(f"\nheaders retrieved per verification: WPS={wps_headers:.1f} random={rnd_headers:.1f}")
    assert all(o.success for o in wps)
    assert wps_headers <= rnd_headers * 1.5  # WPS is at least competitive


def test_ablation_tps_cache(benchmark, finished):
    """With TPS, repeat verifications cost almost no messages."""

    def run_both():
        d1, w1 = build_system(seed=32)
        with_tps = run_validations(finished, d1, w1, validator_id=0, use_tps=True, use_wps=True)
        d2, w2 = build_system(seed=32)
        without = run_validations(finished, d2, w2, validator_id=0, use_tps=False, use_wps=True)
        return with_tps, without

    with_tps, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    tps_messages = sum(o.message_total for o in with_tps)
    raw_messages = sum(o.message_total for o in without)
    print(f"\ntotal PoP messages over 10 verifications: TPS={tps_messages} no-TPS={raw_messages}")
    assert tps_messages < raw_messages
    # Prop. 4: the *first* (cold) verification still needs 2(γ+1).
    assert with_tps[0].message_total >= 2 * (6 + 1)


def test_ablation_micro_loop_paths(benchmark, finished):
    """Heterogeneous rates create micro-loops; path lengths must stay
    bounded (Prop. 5) and verifications must still succeed."""

    def run():
        streams = RandomStreams(33)
        topology = sequential_geometric_topology(node_count=15, streams=streams)
        config = ProtocolConfig(body_bits=80_000, gamma=4, reply_timeout=0.1)
        deployment = TwoLayerDagNetwork(config=config, topology=topology, seed=33)
        periods = {n: (1 if n % 3 else 4) for n in deployment.node_ids}
        workload = SlotSimulation(deployment, generation_period=periods)
        workload.run(24)
        return run_validations(finished, deployment, workload, validator_id=0,
                               use_tps=True, use_wps=True, count=8)

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    lengths = [len(o.path) for o in outcomes if o.success]
    print(f"\npath lengths under 4:1 rate skew: {lengths}")
    assert lengths
    # Path may exceed the quorum (5) due to micro-loops, but must stay
    # within the Prop. 5-style envelope for a 4:1 rate ratio.
    assert max(lengths) <= 5 + 4 * 10

#!/usr/bin/env python
"""Ledger comparison: 2LDAG vs PBFT vs IOTA on identical workloads.

Runs all three ledger backends live (every message actually simulated)
on the same topology, seed and per-slot data production by swapping the
``backend`` field of the ``ledger-comparison`` scenario preset — a
miniature of Figs. 7-8 driven entirely through the spec → runner
pipeline.  The closed-form cost models are printed alongside as a
cross-check on the measured baselines.

Run:  python examples/ledger_comparison.py
"""

# Closed-form cost models only — live cluster/tangle objects are
# reached through repro.scenario.create_backend.
from repro.baselines.iota.costmodel import IotaCostModel
from repro.baselines.pbft.costmodel import PbftCostModel
from repro.scenario import ScenarioRunner, build_topology, get_scenario
from repro.sim.rng import RandomStreams

BACKENDS = ("2ldag", "pbft", "iota")


def main() -> None:
    spec = get_scenario("ledger-comparison")
    slots = spec.workload.slots
    body_bits = spec.protocol.body_bits

    results, runners = {}, {}
    for backend in BACKENDS:
        runner = ScenarioRunner(spec.with_backend(backend))
        results[backend] = runner.run()
        runners[backend] = runner

    # The analytic cross-check: rebuild the shared topology from the
    # spec's named streams (identical across backends by construction).
    topology = build_topology(spec.topology, RandomStreams(spec.seed))
    models = {
        "pbft": PbftCostModel(topology, body_bits),
        "iota": IotaCostModel(topology, body_bits),
    }

    print(f"{slots} slots x {spec.node_count} nodes, "
          f"{body_bits // 8000} kB blocks, all protocols fully simulated\n")
    print(f"{'system':8} | {'storage/node (MB)':>18} | "
          f"{'transmit/node (Mbit)':>21} | {'model transmit':>14}")
    print("-" * 72)
    for backend in BACKENDS:
        result = results[backend]
        model = models.get(backend)
        model_col = (
            f"{model.mean_tx_bits_per_node(slots) / 1e6:14.2f}"
            if model is not None else f"{'—':>14}"
        )
        print(f"{backend:8} | {result.storage_mb[-1]:18.2f} | "
              f"{result.traffic_mbit[-1]:21.2f} | {model_col}")

    ldag_storage = results["2ldag"].storage_mb[-1]
    print(f"\nstorage advantage: "
          f"{results['pbft'].storage_mb[-1] / ldag_storage:.0f}x vs PBFT, "
          f"{results['iota'].storage_mb[-1] / ldag_storage:.0f}x vs IOTA")
    for backend in BACKENDS:
        print(f"trace [{backend}]: {results[backend].trace_sha256[:16]}…")

    # Consistency checks: the baselines really did replicate fully, and
    # the 2LDAG run reached consensus on every validation.
    assert runners["pbft"].backend.cluster.chains_consistent()
    assert runners["iota"].backend.network.tangles_consistent()
    assert results["2ldag"].success_rate == 1.0


if __name__ == "__main__":
    main()

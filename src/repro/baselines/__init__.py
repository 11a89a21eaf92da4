"""Comparison systems from the paper's evaluation (§VI).

The paper benchmarks 2LDAG against:

* **PBFT blockchain** — Castro-Liskov practical byzantine fault
  tolerance replicating one chain at every node
  (:mod:`repro.baselines.pbft`);
* **IOTA / Tangle** — the tokenless DAG ledger where every node stores
  the whole tangle and gossips every transaction
  (:mod:`repro.baselines.iota`).

Each baseline ships two faces:

1. a **real protocol implementation** driven by the shared simulation
   kernel (three-phase PBFT state machine; tangle with tip selection
   and gossip flooding) — used by the test suite and small-scale runs;
2. a **closed-form cost model** producing the exact storage and
   communication figures the protocol would accrue on the paper's
   50-node, 200-slot workload — used by the Fig. 7/8 experiment sweeps
   where simulating ~10^7 individual PBFT messages would be pointless.
   The test suite cross-validates the cost models against the real
   protocols on small configurations.
"""

"""Determinism regression guard for the performance layer.

The hot-path caches (header identity, WPS table, kernel fast path,
validation-target pool) must never change *what* a seeded simulation
does — only how fast it does it.  Two locks:

* repeat-identity — the same seed twice gives byte-identical canonical
  traces;
* two golden trace digests recorded on the pre-optimisation seed tree
  (commit ``aab4203``) for the ``bench-fast`` and ``bench-full``
  presets, proving the optimised code replays the original behaviour
  exactly.

The trace lines are :meth:`TwoLayerDagBackend.trace_lines`; a run is
driven the way every entry point drives one, through
:class:`~repro.scenario.ScenarioRunner`.
"""

import dataclasses

from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    TopologySpec,
    bench_scenario,
)

#: Trace digest of the ``bench-fast`` preset, computed on the seed tree
#: *before* any hot-path optimisation existed.  If this changes, an
#: optimisation altered observable behaviour — fix the code, never the
#: constant (unless a PR deliberately changes protocol behaviour and
#: says so).
GOLDEN_FAST_TRACE = (
    "f771573a042635d68d402acf3d37e2bfe5e0bd58911bd5ff72a88c66dc837b9a"
)
GOLDEN_FAST_EVENTS = 4746
GOLDEN_FAST_BLOCKS = 300
GOLDEN_FAST_VALIDATIONS = 156

#: The same for ``bench-full`` (20 nodes x 100 slots, gamma 4): the
#: digest every perf PR since the seed tree has cited as unchanged.
GOLDEN_FULL_TRACE = (
    "1332029e3bca55f0d0b98ed604d240ee78901fbfe57569c2bb06af33486ef0cd"
)
GOLDEN_FULL_VALIDATIONS = 1600


def run_fast_workload(seed: int = 7, nodes: int = 12, slots: int = 25, gamma: int = 3):
    """The finished 2LDAG backend of a ``bench-fast``-shaped run."""
    spec = dataclasses.replace(
        bench_scenario(fast=True),
        protocol=ProtocolSpec.paper(gamma=gamma, body_mb=0.1),
        topology=TopologySpec(node_count=nodes),
        seed=seed,
    ).with_workload(slots=slots)
    runner = ScenarioRunner(spec)
    runner.run()
    return runner.backend


class TestGoldenTrace:
    def test_matches_pre_optimisation_seed_code(self):
        backend = run_fast_workload()
        assert backend.spec == bench_scenario(fast=True)
        assert backend.total_blocks() == GOLDEN_FAST_BLOCKS
        assert len(backend.workload.validations) == GOLDEN_FAST_VALIDATIONS
        assert backend.wired.sim.processed_count == GOLDEN_FAST_EVENTS
        assert backend.trace_digest() == GOLDEN_FAST_TRACE

    def test_full_scale_matches_pre_optimisation_seed_code(self):
        result = ScenarioRunner(bench_scenario(fast=False)).run()
        assert result.validations == GOLDEN_FULL_VALIDATIONS
        assert result.trace_sha256 == GOLDEN_FULL_TRACE


class TestRepeatIdentity:
    def test_same_seed_same_trace(self):
        first = run_fast_workload(seed=13, nodes=10, slots=20, gamma=3)
        second = run_fast_workload(seed=13, nodes=10, slots=20, gamma=3)
        assert first.trace_lines() == second.trace_lines()

    def test_different_seed_different_trace(self):
        first = run_fast_workload(seed=1, nodes=10, slots=20, gamma=3)
        second = run_fast_workload(seed=2, nodes=10, slots=20, gamma=3)
        assert first.trace_digest() != second.trace_digest()

    def test_trace_covers_pop_outcomes(self):
        backend = run_fast_workload(seed=13, nodes=10, slots=20, gamma=3)
        lines = backend.trace_lines()
        pop_lines = [line for line in lines if line.startswith("pop ")]
        assert len(pop_lines) == len(backend.workload.validations)
        assert any("consensus=[" in line for line in pop_lines)

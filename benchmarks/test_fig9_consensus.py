"""Fig. 9 — consensus-time benchmarks.

Each target regenerates one panel: consensus failure probability versus
DAG age for a tolerance γ and a sweep of actually-malicious node
counts.  γ and the sweeps are scaled to the bench node count when not
running at full paper scale.  Expected shape: failure decays to zero;
slots-to-consensus grow with γ and explode only near the 49% limit.
"""

import pytest

from repro.experiments.fig9_consensus import PAPER_PANELS, paper_panel, run_fig9


@pytest.mark.parametrize("panel", ["a", "b", "c", "d"])
def test_fig9_panel(benchmark, scale, probes, panel):
    gamma, malicious = paper_panel(panel, scale.node_count)

    result = benchmark.pedantic(
        run_fig9,
        args=(gamma, malicious, scale),
        kwargs={"probes": probes},
        rounds=1,
        iterations=1,
    )
    print(
        f"\n=== Fig. 9({panel})  gamma={gamma} "
        f"(scaled from {PAPER_PANELS[panel]['gamma']}/50 nodes)  "
        f"failure probability ==="
    )
    print(result.to_table())
    for m in malicious:
        slot = result.consensus_slot(m)
        print(f"consensus slot with {m} malicious: {slot}")

    # Shape assertions: failure decays with DAG age for every sweep.
    for m in malicious:
        series = result.failure_probability[m]
        assert series[-1] <= series[0]
    # The honest run must reach consensus within the sampled window.
    assert result.consensus_slot(malicious[0]) is not None


def test_fig9_gamma_scaling(benchmark, scale, probes):
    """Cross-panel claim: larger γ (panel c vs a) never speeds consensus up."""

    def run_pair():
        small_gamma, _ = paper_panel("a", scale.node_count)
        large_gamma, _ = paper_panel("c", scale.node_count)
        small = run_fig9(small_gamma, [0], scale, probes=probes)
        large = run_fig9(large_gamma, [0], scale, probes=probes)
        return small, large

    small, large = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    s_slot = small.consensus_slot(0)
    l_slot = large.consensus_slot(0)
    print(f"\nconsensus slot gamma={small.gamma}: {s_slot}; gamma={large.gamma}: {l_slot}")
    assert s_slot is not None
    if l_slot is not None:
        assert l_slot >= s_slot

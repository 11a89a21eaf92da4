"""Fig. 7's body size C is storage accounting, not simulated dynamics.

Eq. (2) stores ``f_c + f_H·|Δ| + C`` per block, and no message, timer
or random draw of the simulation reads C.  So the three Fig. 7 body
sizes and Fig. 8's 33% run (the C = 0.5 MB run under other labels) are
one simulation, and each node's storage moves by its own-block count
times the change in body bits.  A projection of Fig. 7 from one run
would rest on exactly these two facts.
"""

import pytest

from repro.scenario import QUICK_SCALE, ScenarioRunner, fig7_scenario, fig8_scenario

BODIES = (0.1, 0.5, 1.0)


def finished(spec):
    runner = ScenarioRunner(spec)
    result = runner.run()
    return runner, result


@pytest.fixture(scope="module")
def runs():
    return {body_mb: finished(fig7_scenario(body_mb, QUICK_SCALE)) for body_mb in BODIES}


def test_every_body_size_and_fig8_33pct_share_one_trace(runs):
    _, fig8_33 = finished(fig8_scenario(0.33, QUICK_SCALE))
    traces = {result.trace_sha256 for _runner, result in runs.values()}
    assert traces == {fig8_33.trace_sha256}


@pytest.mark.parametrize("body_mb", [0.5, 1.0])
def test_storage_moves_by_own_blocks_times_the_body_bits(runs, body_mb):
    small, _ = runs[0.1]
    large, _ = runs[body_mb]
    extra_bits = large.spec.protocol.body_bits - small.spec.protocol.body_bits
    assert extra_bits > 0
    small_nodes = small.deployment.nodes
    for node_id, node in large.deployment.nodes.items():
        base = small_nodes[node_id]
        assert len(node.store) == len(base.store) > 0
        assert node.storage_bits() == base.storage_bits() + len(base.store) * extra_bits

"""The zero-jitter cliff, pinned as it stands (no fix yet).

When every node generates at the same instant of a slot and a hop
takes longer than the generation spread, nodes build their blocks
before their neighbours' same-slot digests arrive, and some honest
validations run far past Proposition 6's no-malicious ceiling on
messages.  This is the smallest deployment found that shows it.

The pinned values are today's behaviour, not the paper's: they are
the negative control for a monitor that judges runs against Prop. 6.
A fix flips the zero-jitter assertion in its own change.
"""

import pytest

from repro.analysis.bounds import prop6_message_upper_bound
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

ROWS, COLS, GAMMA = 3, 5, 5

#: Prop. 6 with equal rates: (|V| + γ) · (γ + γ + 1) = 20 · 11 = 220 messages.
CEILING = prop6_message_upper_bound([1.0] * ROWS * COLS, GAMMA, ROWS * COLS)


def message_totals(jitter):
    spec = ScenarioSpec(
        protocol=ProtocolSpec.paper(gamma=GAMMA, body_mb=0.5),
        topology=TopologySpec(
            kind="grid", rows=ROWS, cols=COLS, spacing=40.0, comm_range=90.0
        ),
        workload=WorkloadSpec(slots=30, validate=True, intra_slot_jitter=jitter),
        per_hop_latency=1e-4,
        seed=7,
    )
    runner = ScenarioRunner(spec)
    runner.run()
    outcomes = runner.workload.completed_outcomes()
    assert len(outcomes) == 225
    totals = [outcome.message_total for outcome in outcomes]
    exhausted = sum(outcome.error == "exhausted" for outcome in outcomes)
    return totals, exhausted


@pytest.mark.parametrize(
    "jitter, over, worst, exhausted",
    [
        (0.0, 3, 4378, 3),  # the cliff: honest validations break Prop. 6
        (0.01, 0, 48, 0),  # the control: ten hops of spread, well under
    ],
)
def test_zero_jitter_breaks_prop6(jitter, over, worst, exhausted):
    totals, ended_exhausted = message_totals(jitter)
    assert sum(total > CEILING for total in totals) == over
    assert max(totals) == worst
    assert ended_exhausted == exhausted

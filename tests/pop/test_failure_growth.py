"""What a failing validation costs, pinned as it grows with the DAG.

The deployment is the quick Fig. 9(d) cell with γ = 14 and m = 14: 30
nodes, 14 of them silent, four probes per sample slot.  Most probes end
``exhausted``, and a failing walk visits every descendant block it can
reach, so its request count grows with the DAG's age.  No Section V
proposition bounds it yet.

The pinned values are today's behaviour, not the paper's.  They are the
negative control for a monitor that judges runs against Prop. 6, and a
change that alters how a "no" is reached must move them in its own
change.  A change that only makes a check cheaper must leave them be.

The probes follow the cell's own schedule, every γ/2 = 7 slots.  Probes
every 14 slots instead draw other targets and warm other caches: the
worst at slot 28 is then 3,026 requests, not 2,758.
"""

from repro.core.node import IoTNode
from repro.experiments.fig9_consensus import _probe_batch, fig9_cells, paper_panel
from repro.scenario import QUICK_SCALE, ScenarioRunner

MALICIOUS, PROBES = 14, 4


def worst_requests_by_sample(monkeypatch, samples):
    """The sample slots' largest ``requests_sent`` and that probe's error."""
    runs = []
    verify_block = IoTNode.verify_block

    def recording(self, *args, **kwargs):
        runs.append(verify_block(self, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(IoTNode, "verify_block", recording)
    gamma, sweep = paper_panel("d", QUICK_SCALE.node_count)
    assert (gamma, sweep[-1]) == (14, MALICIOUS)
    # The series run_fig9 samples: γ, then every γ/2 slots up to 5γ.
    sample_slots = [gamma + k * (gamma // 2) for k in range(9)]
    (cell,) = fig9_cells(gamma, [MALICIOUS], sample_slots, QUICK_SCALE, PROBES)
    runner = ScenarioRunner(cell.scenario).build()
    probe_rng = runner.streams.get("probes")
    worst = {}
    for sample in sample_slots[: sample_slots.index(max(samples)) + 1]:
        runner.advance_to(sample)
        del runs[:]
        _probe_batch(runner.deployment, runner.workload, gamma, PROBES, probe_rng)
        outcome = max((run.value for run in runs), key=lambda o: o.requests_sent)
        worst[sample] = (outcome.requests_sent, outcome.error)
    return {sample: worst[sample] for sample in samples}


def test_failing_validation_cost_grows_with_the_dag(monkeypatch):
    assert worst_requests_by_sample(monkeypatch, (14, 28)) == {
        14: (1367, "exhausted"),
        28: (2758, "exhausted"),
    }

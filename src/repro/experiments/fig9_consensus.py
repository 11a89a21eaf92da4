"""Fig. 9 — time for consensus under malicious coalitions.

For tolerance γ ∈ {10, 15, 20, 24} and varying numbers of actually
malicious (PoP-silent) nodes, the experiment measures the *consensus
failure probability* of verifying a block generated in the first γ
slots, as the DAG ages: at each sampled slot, several PoP probes are
launched from random honest validators against random early honest
blocks; the failure fraction is the plotted probability.  Consensus is
"reached" at the first sampled slot where no probe fails.

Probes run *inside* the simulation (scheduled at their sample slot), so
they contend with ongoing block generation exactly like the paper's
generation-time validations do.

Workload per the paper: each node generates one block per one or two
slots (drawn per node), so micro-loops occur (§V, Fig. 6).

Each (γ, malicious-count) series is a campaign cell of kind
``fig9-series``: the grow-probe-grow-probe loop runs entirely inside
the cell, so a panel's malicious sweep fans out across workers (and
memoises) when the caller provides a configured
:class:`~repro.campaign.executor.CampaignExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cells import register_cell_kind
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.metrics.reporting import format_series_table
from repro.scenario import ScenarioRunner, ScenarioSpec, fig9_scenario


@dataclass
class Fig9Result:
    """Failure-probability series for one γ panel."""

    gamma: int
    malicious_counts: List[int]
    sample_slots: List[int]
    failure_probability: Dict[int, List[float]]  # malicious count -> series

    def consensus_slot(self, malicious: int) -> Optional[int]:
        """First sampled slot with zero failures, or ``None``."""
        for slot, probability in zip(self.sample_slots, self.failure_probability[malicious]):
            if probability == 0.0:
                return slot
        return None

    def to_table(self) -> str:
        """Failure probability rows per sampled slot."""
        series = {
            f"{m} malicious": probs for m, probs in self.failure_probability.items()
        }
        return format_series_table("slots", self.sample_slots, series)


def _probe_batch(
    deployment: TwoLayerDagNetwork,
    workload: SlotSimulation,
    gamma: int,
    probes: int,
    rng,
) -> float:
    """Run a probe batch against the current DAG; return failure fraction.

    Probes are driven to completion synchronously (the workload driver
    tolerates the resulting clock advance), so every batch measures the
    DAG exactly as of its sample slot.
    """
    honest = deployment.honest_ids
    targets = [
        b
        for slot in range(0, gamma)
        for b in workload.blocks_by_slot.get(slot, [])
        if b.origin in set(honest)
    ]
    if not targets:
        return 1.0
    processes = []
    for _ in range(probes):
        target = rng.choice(targets)
        validator_id = rng.choice([n for n in honest if n != target.origin])
        node = deployment.node(validator_id)
        processes.append(node.verify_block(target.origin, target, fetch_body=False))
    deployment.sim.run()  # drain the probes (no future slots are queued)
    failures = sum(
        1 for p in processes if not p.triggered or not p.value.success
    )
    return failures / probes


@register_cell_kind("fig9-series")
def run_fig9_series_cell(cell: CellSpec) -> Dict[str, Any]:
    """One malicious-count series: grow the DAG, probe at each sample.

    The probe RNG comes from the cell scenario's own ``probes`` stream,
    so the series is identical whether this runs inline or in a worker.
    """
    spec = cell.scenario
    gamma = int(cell.params["gamma"])
    probes = int(cell.params["probes"])
    sample_slots = [int(slot) for slot in cell.params["sample_slots"]]
    runner = ScenarioRunner(spec).build()
    probe_rng = runner.streams.get("probes")
    series: List[float] = []
    for sample in sample_slots:
        runner.advance_to(sample)
        series.append(
            _probe_batch(runner.deployment, runner.workload, gamma, probes, probe_rng)
        )
    return {
        "malicious": cell.params["malicious"],
        "sample_slots": sample_slots,
        "failure_probability": series,
    }


#: Verification probes per sampled slot at paper size.
PAPER_PROBES = 8


def fig9_cells(
    gamma: int,
    malicious_counts: Sequence[int],
    sample_slots: Sequence[int],
    base: ScenarioSpec,
    probes: int,
) -> Tuple[CellSpec, ...]:
    """One ``fig9-series`` cell per malicious count."""
    sample_slots = sorted(int(slot) for slot in sample_slots)
    return tuple(
        CellSpec(
            scenario=fig9_scenario(
                gamma=gamma, malicious=malicious, slots=sample_slots[-1], base=base
            ),
            kind="fig9-series",
            params={
                "gamma": gamma,
                "malicious": malicious,
                "probes": probes,
                "sample_slots": list(sample_slots),
            },
        )
        for malicious in malicious_counts
    )


def run_fig9(
    gamma: int,
    malicious_counts: List[int],
    base: ScenarioSpec,
    sample_slots: Optional[List[int]] = None,
    executor=None,
    probes: int = PAPER_PROBES,
) -> Fig9Result:
    """Produce one Fig. 9 panel.

    Parameters
    ----------
    gamma:
        Malicious tolerance; quorum is γ+1 distinct path nodes.
    malicious_counts:
        Numbers of PoP-silent nodes to sweep (paper: up to γ).
    base:
        Sizes the runs: its node count and seed are read (see
        :func:`repro.scenario.fig9_scenario`).
    sample_slots:
        Slots at which failure probability is measured; defaults to a
        range bracketing the expected consensus time (γ .. ~5γ).
    executor:
        Optional campaign executor; the malicious-count series run
        concurrently (and cache) through it.
    probes:
        Verification probes launched at each sampled slot.
    """
    from repro.campaign.executor import run_campaign

    if sample_slots is None:
        step = max(2, gamma // 2)
        sample_slots = sorted({gamma + k * step for k in range(0, 9)})
    sample_slots = sorted(sample_slots)

    campaign = CampaignSpec(
        name=f"fig9-g{gamma}",
        cells=fig9_cells(gamma, malicious_counts, sample_slots, base, probes),
    )
    failure: Dict[int, List[float]] = {}
    for payload in run_campaign(campaign, executor).payloads():
        failure[int(payload["malicious"])] = [
            float(point) for point in payload["failure_probability"]
        ]

    return Fig9Result(
        gamma=gamma,
        malicious_counts=list(malicious_counts),
        sample_slots=sample_slots,
        failure_probability=failure,
    )


#: The paper's four panels: γ and the malicious sweeps of Fig. 9(a)-(d).
PAPER_PANELS: Dict[str, Dict] = {
    "a": {"gamma": 10, "malicious_counts": [0, 5, 8, 10]},
    "b": {"gamma": 15, "malicious_counts": [0, 5, 10, 15]},
    "c": {"gamma": 20, "malicious_counts": [0, 5, 18, 20]},
    "d": {"gamma": 24, "malicious_counts": [0, 5, 10, 20, 22, 24]},
}


def paper_panel(panel: str, node_count: int) -> Tuple[int, List[int]]:
    """``(γ, malicious sweep)`` of a paper panel on ``node_count`` nodes.

    The paper's values are defined for 50 nodes and scale linearly; the
    sweep is deduplicated and capped at γ (the tolerable bound).
    """
    paper = PAPER_PANELS[panel]
    gamma = max(2, round(paper["gamma"] * node_count / 50))
    counts = {round(m * node_count / 50) for m in paper["malicious_counts"]}
    return gamma, sorted(m for m in counts if m <= gamma)

"""Fig. 8 — communication overhead.

Panels: (a) overall per-node traffic (DAG construction + consensus) for
2LDAG at 33% and 49% malicious tolerance versus PBFT and IOTA; (b) DAG
construction only (digest pushes); (c) consensus only (PoP headers);
(d) the CDF of per-node total traffic at the final slot.

The 2LDAG runs are live scenario-pipeline simulations with
generation-time validation (header-only fetches, matching the paper's
header accounting); the baselines use their cost models.  "33%/49%
malicious" select the tolerance γ — consensus paths of ⌈0.33|V|⌉+1 and
⌈0.49|V|⌉+1 nodes — as in the paper's §VI-B;
:func:`repro.scenario.fig8_scenario` declares each run.  The 33% run
is the Fig. 7 C = 0.5 MB run under other labels, so the report, which
submits both figures' runs in one call, computes it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

# Closed-form cost models only — live cluster/tangle objects are
# reached through repro.scenario.create_backend.
from repro.baselines.iota.costmodel import IotaCostModel
from repro.baselines.pbft.costmodel import PbftCostModel
from repro.campaign.cells import run_scenario_cells
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.reporting import format_series_table
from repro.scenario import ScenarioSpec, build_topology, fig8_scenario
from repro.scenario.runner import ScenarioResult
from repro.sim.rng import RandomStreams


@dataclass
class Fig8Result:
    """All Fig. 8 series from one pair of 2LDAG runs plus cost models."""

    sample_slots: List[int]
    overall_mbit: Dict[str, List[float]]       # panel (a)
    dag_mbit: Dict[str, List[float]]           # panel (b)
    consensus_mbit: Dict[str, List[float]]     # panel (c)
    per_node_total_mb_final: Dict[str, List[float]] = field(default_factory=dict)

    def cdf(self, label: str) -> EmpiricalCDF:  # repro: allow[test-only-public-name] figure-suite output
        """Panel (d): CDF over final per-node communication (MB)."""
        return EmpiricalCDF(self.per_node_total_mb_final[label])

    def to_table(self, panel: str = "a") -> str:
        """Text rows for a panel: 'a' overall, 'b' dag, 'c' consensus."""
        series = {"a": self.overall_mbit, "b": self.dag_mbit, "c": self.consensus_mbit}[panel]
        return format_series_table("slots", self.sample_slots, series)


def fig8_scenarios(base: ScenarioSpec) -> List[ScenarioSpec]:
    """The 33% and 49% tolerance runs at the size ``base`` declares."""
    return [fig8_scenario(0.33, base), fig8_scenario(0.49, base)]


def fig8_series(run33: ScenarioResult, run49: ScenarioResult) -> Fig8Result:
    """All Fig. 8 series of finished :func:`fig8_scenarios` runs."""
    label_33 = "2LDAG-33%"
    label_49 = "2LDAG-49%"
    spec_33 = run33.spec
    # Same named-stream rebuild the runner performs in the worker.
    topology = build_topology(spec_33.topology, RandomStreams(spec_33.seed))
    body_bits = spec_33.protocol.body_bits
    pbft = PbftCostModel(topology, body_bits)
    iota = IotaCostModel(topology, body_bits)
    sample_slots = list(spec_33.workload.sample_slots)

    return Fig8Result(
        sample_slots=sample_slots,
        overall_mbit={
            "PBFT": pbft.comm_series_mbit(sample_slots),
            "IOTA": iota.comm_series_mbit(sample_slots),
            label_33: list(run33.traffic_mbit),
            label_49: list(run49.traffic_mbit),
        },
        dag_mbit={
            label_33: list(run33.traffic_dag_mbit),
            label_49: list(run49.traffic_dag_mbit),
        },
        consensus_mbit={
            label_33: list(run33.traffic_pop_mbit),
            label_49: list(run49.traffic_pop_mbit),
        },
        per_node_total_mb_final={
            label_33: list(run33.per_node_traffic_mb),
            label_49: list(run49.per_node_traffic_mb),
        },
    )


def run_fig8(base: ScenarioSpec) -> Fig8Result:  # repro: allow[test-only-public-name] figure-suite entry point
    """Produce all Fig. 8 series at the size ``base`` declares.

    The 33% and 49% tolerance runs are two campaign cells, run serially
    in-process; ``report`` submits the same cells to its executor.
    """
    return fig8_series(*run_scenario_cells(fig8_scenarios(base), name="fig8"))

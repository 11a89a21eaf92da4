"""Fig. 7 — storage overhead.

Panels (a)-(c): average per-node storage (MB, log scale) versus time
slots for body sizes C ∈ {0.1, 0.5, 1} MB, comparing PBFT, IOTA and
2LDAG.  Panel (d): the CDF of per-node storage at the final slot for
C = 0.5 MB.

2LDAG is simulated live through the scenario pipeline
(:func:`repro.scenario.fig7_scenario` declares the workload, the
runner samples the storage series); the baselines use their validated
closed-form cost models (every node stores every block — see
:mod:`repro.baselines`).

A panel is one ``scenario`` campaign cell plus a pure projection of
its result (:func:`fig7_panel`), so the report can submit every
figure's runs in one call — the three body sizes run concurrently
under a configured :class:`~repro.campaign.executor.CampaignExecutor`,
and a run another figure shares is computed once.  The body size only
enters the storage accounting (Eq. (2)), never the simulated dynamics,
so every panel shares one trace digest.  The cost-model topology is
rebuilt deterministically from the spec's seed — named random streams
guarantee it matches the worker-side deployment exactly.
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
from repro.scenario import ScenarioSpec, build_topology, fig7_scenario
from repro.scenario.runner import ScenarioResult
from repro.sim.rng import RandomStreams


@dataclass
class Fig7Result:
    """Series for one Fig. 7 panel."""

    body_mb: float
    sample_slots: List[int]
    series_mb: Dict[str, List[float]]
    per_node_mb_final: List[float] = field(default_factory=list)

    def cdf(self) -> EmpiricalCDF:  # repro: allow[test-only-public-name] figure-suite output
        """The Fig. 7(d) CDF over final per-node storage."""
        return EmpiricalCDF(self.per_node_mb_final)

    def to_table(self) -> str:
        """The rows the paper plots (storage in MB per sampled slot)."""
        return format_series_table("slots", self.sample_slots, self.series_mb)


def fig7_panel(body_mb: float, measured: ScenarioResult) -> Fig7Result:
    """The Fig. 7 panel of a finished ``fig7_scenario(body_mb, base)`` run.

    Every node generates one block per slot (``C/r_i = 1``, the
    caption's workload); 2LDAG nodes additionally validate one old
    block per generation when ``base.workload.validate`` is set, which
    grows their header caches — the realistic storage figure.
    """
    spec = measured.spec
    # The cell ran in a worker; rebuild the cost-model topology from
    # the spec's own named stream — identical draws by construction.
    topology = build_topology(spec.topology, RandomStreams(spec.seed))
    pbft = PbftCostModel(topology, spec.protocol.body_bits)
    iota = IotaCostModel(topology, spec.protocol.body_bits)
    sample_slots = list(spec.workload.sample_slots)
    return Fig7Result(
        body_mb=body_mb,
        sample_slots=sample_slots,
        series_mb={
            "PBFT": pbft.storage_series_mb(sample_slots),
            "IOTA": iota.storage_series_mb(sample_slots),
            "2LDAG": list(measured.storage_mb),
        },
        per_node_mb_final=list(measured.per_node_storage_mb),
    )


def run_fig7(body_mb: float, base: ScenarioSpec) -> Fig7Result:  # repro: allow[test-only-public-name] figure-suite entry point
    """Produce one Fig. 7 panel for body size ``body_mb``.

    ``base`` sizes the run (see :func:`repro.scenario.fig7_scenario`).
    """
    (measured,) = run_scenario_cells([fig7_scenario(body_mb, base)], name="fig7")
    return fig7_panel(body_mb, measured)

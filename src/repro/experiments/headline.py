"""The abstract's headline claims, as a single reproducible report.

Claims: "2LDAG has storage and communication cost that is respectively
two and three orders of magnitude lower than traditional blockchain and
also blockchains that use a DAG structure" and "achieves consensus even
when 49% of nodes are malicious".

Two evidence layers back the ratios:

* **measured** — the three ledger backends (2LDAG, PBFT, IOTA) run the
  same comparison workload live through the scenario pipeline; the
  ratios at that gate scale come from fully simulated message traffic.
* **analytic** — the closed-form cost models extrapolate the baselines
  to the paper's 50-node × 200-slot scale, where simulating PBFT would
  mean ~10^7 routed control messages.

The measured runs double as a *sanity gate* on the analytic layer:
:func:`check_model_agreement` asserts the simulated PBFT/IOTA storage and
traffic agree with the cost models within
:data:`MODEL_AGREEMENT_TOLERANCE`, so the two layers cannot silently
drift apart (e.g. a protocol tweak that the models no longer describe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

# Closed-form cost models only — live cluster/tangle objects are
# reached through repro.scenario.create_backend.
from repro.baselines.iota.costmodel import IotaCostModel
from repro.baselines.pbft.costmodel import PbftCostModel
from repro.campaign.cells import run_scenario_cells
from repro.experiments.fig7_storage import Fig7Result
from repro.experiments.fig8_comm import Fig8Result
from repro.metrics.units import bits_to_mb
from repro.scenario import ScenarioSpec, build_topology, get_scenario
from repro.sim.rng import RandomStreams

#: Maximum relative deviation tolerated between a measured baseline
#: series and its closed-form cost model.  Storage is exact by
#: construction (every replica stores every block); traffic carries a
#: few percent of modelling slack (PBFT primary self-delivery, IOTA
#: flood edge effects), matching the tolerance the model-validation
#: tests use (``tests/baselines/test_costmodels.py``).
MODEL_AGREEMENT_TOLERANCE = 0.05


class HeadlineDriftError(AssertionError):
    """A measured baseline drifted from its closed-form cost model."""


@dataclass
class BaselineAgreement:
    """Measured-vs-model comparison for one baseline backend."""

    backend: str
    storage_measured_mb: float
    storage_model_mb: float
    traffic_measured_mbit: float
    traffic_model_mbit: float

    @staticmethod
    def _relative(measured: float, model: float) -> float:
        if model == 0:
            # A zero model prediction against a non-zero measurement is
            # infinite drift, not agreement — the gate must trip.
            return 0.0 if measured == 0 else math.inf
        return abs(measured - model) / model

    @property
    def storage_error(self) -> float:
        """Relative storage deviation (0 is perfect agreement)."""
        return self._relative(self.storage_measured_mb, self.storage_model_mb)

    @property
    def traffic_error(self) -> float:
        """Relative traffic deviation (0 is perfect agreement)."""
        return self._relative(self.traffic_measured_mbit, self.traffic_model_mbit)

    @property
    def within(self) -> bool:
        """Both deviations inside :data:`MODEL_AGREEMENT_TOLERANCE`."""
        return (
            self.storage_error <= MODEL_AGREEMENT_TOLERANCE
            and self.traffic_error <= MODEL_AGREEMENT_TOLERANCE
        )


def gate_scenario(backend: str) -> ScenarioSpec:
    """The measured cross-backend workload the sanity gate runs.

    The ``ledger-comparison`` preset on the named backend: small enough
    that fully simulating PBFT/IOTA is cheap, identical topology/seed
    across backends by the named-stream construction.
    """
    return get_scenario("ledger-comparison").with_backend(backend)


def check_model_agreement(executor=None) -> List[BaselineAgreement]:
    """Run the measured PBFT/IOTA gate and compare against the models.

    Raises :class:`HeadlineDriftError` when a measured series deviates
    from its closed-form model by more than
    :data:`MODEL_AGREEMENT_TOLERANCE`.

    The gate always *measures*: a caching ``executor`` is replaced by a
    cache-free one (same worker count), because a stale cached cell
    recorded before a baseline-simulation change would satisfy exactly
    the drift this gate exists to catch.
    """
    if executor is not None and getattr(executor, "cache", None) is not None:
        from repro.campaign.executor import CampaignExecutor

        executor = CampaignExecutor(workers=executor.workers)
    specs = [gate_scenario("pbft"), gate_scenario("iota")]
    results = run_scenario_cells(specs, executor, name="headline-gate")

    agreements: List[BaselineAgreement] = []
    for spec, result in zip(specs, results):
        topology = build_topology(spec.topology, RandomStreams(spec.seed))
        model_cls = PbftCostModel if spec.backend == "pbft" else IotaCostModel
        model = model_cls(topology, spec.protocol.body_bits)
        slots = spec.workload.slots
        agreement = BaselineAgreement(
            backend=spec.backend,
            storage_measured_mb=result.storage_mb[-1],
            storage_model_mb=bits_to_mb(model.storage_bits_per_node(slots)),
            traffic_measured_mbit=result.traffic_mbit[-1],
            traffic_model_mbit=model.mean_tx_bits_per_node(slots) / 1e6,
        )
        if not agreement.within:
            raise HeadlineDriftError(
                f"measured {spec.backend} baseline drifted from its cost "
                f"model beyond {MODEL_AGREEMENT_TOLERANCE:.0%}: storage "
                f"{agreement.storage_measured_mb:.4f} vs "
                f"{agreement.storage_model_mb:.4f} MB "
                f"({agreement.storage_error:.1%}), traffic "
                f"{agreement.traffic_measured_mbit:.4f} vs "
                f"{agreement.traffic_model_mbit:.4f} Mbit "
                f"({agreement.traffic_error:.1%})"
            )
        agreements.append(agreement)
    return agreements


@dataclass
class HeadlineResult:
    """Measured ratios against the baselines at the final sampled slot."""

    storage_ratio_pbft: float
    storage_ratio_iota: float
    comm_ratio_pbft: float
    comm_ratio_iota: float
    agreements: List[BaselineAgreement] = field(default_factory=list)

    @property
    def storage_orders_pbft(self) -> float:
        """log10 of the PBFT/2LDAG storage ratio (paper claims ~2)."""
        return math.log10(self.storage_ratio_pbft)

    @property
    def comm_orders_pbft(self) -> float:
        """log10 of the PBFT/2LDAG communication ratio (paper claims ~3)."""
        return math.log10(self.comm_ratio_pbft)

    def summary(self) -> str:
        """Human-readable report."""
        lines = [
            f"storage: PBFT/2LDAG = {self.storage_ratio_pbft:.0f}x "
            f"({self.storage_orders_pbft:.1f} orders), "
            f"IOTA/2LDAG = {self.storage_ratio_iota:.0f}x",
            f"communication: PBFT/2LDAG = {self.comm_ratio_pbft:.0f}x "
            f"({self.comm_orders_pbft:.1f} orders), "
            f"IOTA/2LDAG = {self.comm_ratio_iota:.0f}x",
        ]
        for agreement in self.agreements:
            lines.append(
                f"model gate [{agreement.backend}]: storage "
                f"{agreement.storage_error:.1%}, traffic "
                f"{agreement.traffic_error:.1%} from the cost model "
                f"(tolerance {MODEL_AGREEMENT_TOLERANCE:.0%})"
            )
        return "\n".join(lines)


def headline_ratios(
    fig7_half_mb: Fig7Result,
    fig8: Fig8Result,
    agreements: List[BaselineAgreement],
) -> HeadlineResult:
    """The headline ratios of finished C = 0.5 MB Fig. 7 and Fig. 8 runs."""
    final = -1
    ldag_storage = fig7_half_mb.series_mb["2LDAG"][final]
    ldag_comm = fig8.overall_mbit["2LDAG-33%"][final]
    return HeadlineResult(
        storage_ratio_pbft=fig7_half_mb.series_mb["PBFT"][final] / ldag_storage,
        storage_ratio_iota=fig7_half_mb.series_mb["IOTA"][final] / ldag_storage,
        comm_ratio_pbft=fig8.overall_mbit["PBFT"][final] / ldag_comm,
        comm_ratio_iota=fig8.overall_mbit["IOTA"][final] / ldag_comm,
        agreements=agreements,
    )


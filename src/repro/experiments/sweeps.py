"""Parameter sweeps beyond the paper's figures.

Two sweeps that probe the design space the paper's analysis (§V) maps
out but does not plot:

* :func:`gamma_sweep` — PoP message cost versus the tolerance γ.
  Proposition 4 lower-bounds it at ``2(γ+1)``; Proposition 6
  upper-bounds it; the sweep shows where reality falls.
* :func:`density_sweep` — communication cost versus radio range.
  Denser networks mean more digests per block (bigger Δ) but shorter
  PoP paths; the sweep exposes the trade-off.

Each sweep point is a campaign cell (kinds ``gamma-sweep-point`` /
``density-sweep-point``): the whole run-then-probe recipe executes
inside the cell, so points fan out across workers and memoise in the
result cache when the caller passes a configured
:class:`~repro.campaign.executor.CampaignExecutor`.  Without one, the
points run serially in-process exactly as they always have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.bounds import prop4_message_lower_bound, prop6_message_upper_bound
from repro.campaign.cells import register_cell_kind
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


@dataclass
class GammaSweepPoint:
    """Measured PoP cost at one γ."""

    gamma: int
    mean_messages: float
    prop4_lower: int
    prop6_upper: float
    success_rate: float


def _run_cold_validations(deployment, workload, count: int, rng) -> List:
    """Cold-cache verifications of old blocks from distinct validators."""
    outcomes = []
    targets = [b for s in range(4) for b in workload.blocks_by_slot[s]]
    validators = deployment.node_ids
    for i in range(count):
        target = targets[i % len(targets)]
        validator_id = rng.choice([n for n in validators if n != target.origin])
        node = deployment.node(validator_id)
        run = node.validator(use_tps=False).run(target.origin, target, fetch_body=False)
        deployment.sim.run()
        outcomes.append(run.value)
    return outcomes


def _gamma_sweep_spec(gamma: int, node_count: int, slots: int, seed: int) -> ScenarioSpec:
    # §V's analysis assumes slot-synchronous generation (every
    # neighbour embeds the previous slot's digest); zero jitter
    # matches that model so Props. 4/6 bracket the measurements.
    return ScenarioSpec(
        name=f"gamma-sweep-{gamma}",
        protocol=ProtocolSpec(body_bits=80_000, gamma=gamma, reply_timeout=0.05),
        topology=TopologySpec(node_count=node_count),
        workload=WorkloadSpec(
            slots=slots, generation_period=1, intra_slot_jitter=0.0
        ),
        seed=seed + gamma,
    )


@register_cell_kind("gamma-sweep-point")
def run_gamma_sweep_cell(cell: CellSpec) -> Dict[str, Any]:
    """Grow the DAG, run cold validations, report message costs."""
    spec = cell.scenario
    validations = int(cell.params.get("validations", 8))
    runner = ScenarioRunner(spec).advance_to(spec.workload.slots)
    deployment, workload = runner.deployment, runner.workload
    outcomes = _run_cold_validations(
        deployment, workload, validations, runner.streams.get("sweep")
    )
    successes = [o for o in outcomes if o.success]
    gamma = spec.protocol.gamma
    node_count = spec.node_count
    rates = sorted((1.0 for _ in range(node_count)), reverse=True)
    return {
        "gamma": gamma,
        "mean_messages": (
            sum(o.message_total for o in successes) / len(successes)
            if successes
            else None
        ),
        "prop4_lower": prop4_message_lower_bound(gamma),
        "prop6_upper": prop6_message_upper_bound(rates, gamma, node_count),
        "success_rate": len(successes) / len(outcomes) if outcomes else 0.0,
    }


def gamma_sweep_cells(
    gammas: Sequence[int],
    node_count: int = 20,
    slots: int = 30,
    validations: int = 8,
    seed: int = 0,
) -> Tuple[CellSpec, ...]:
    """One ``gamma-sweep-point`` cell per γ."""
    return tuple(
        CellSpec(
            scenario=_gamma_sweep_spec(gamma, node_count, slots, seed),
            kind="gamma-sweep-point",
            params={"validations": validations},
        )
        for gamma in gammas
    )


def gamma_sweep(
    gammas: Sequence[int],
    node_count: int = 20,
    slots: int = 30,
    validations: int = 8,
    seed: int = 0,
    executor=None,
) -> List[GammaSweepPoint]:
    """Measure cold-cache PoP message cost across tolerances."""
    from repro.campaign.executor import run_campaign

    campaign = CampaignSpec(
        name="gamma-sweep",
        cells=gamma_sweep_cells(gammas, node_count, slots, validations, seed),
    )
    points = []
    for payload in run_campaign(campaign, executor).payloads():
        mean_messages = payload["mean_messages"]
        points.append(
            GammaSweepPoint(
                gamma=int(payload["gamma"]),
                mean_messages=(
                    float("nan") if mean_messages is None else float(mean_messages)
                ),
                prop4_lower=int(payload["prop4_lower"]),
                prop6_upper=float(payload["prop6_upper"]),
                success_rate=float(payload["success_rate"]),
            )
        )
    return points


@dataclass
class DensitySweepPoint:
    """Measured costs at one radio range."""

    comm_range: float
    mean_degree: float
    digest_bits_per_slot: float
    mean_pop_messages: float
    success_rate: float


def _density_sweep_spec(
    comm_range: float, node_count: int, slots: int, gamma: int, seed: int
) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"density-sweep-{comm_range}",
        protocol=ProtocolSpec(body_bits=80_000, gamma=gamma, reply_timeout=0.05),
        topology=TopologySpec(
            node_count=node_count, area_side=400.0, comm_range=comm_range
        ),
        workload=WorkloadSpec(slots=slots, generation_period=1),
        seed=seed,
    )


@register_cell_kind("density-sweep-point")
def run_density_sweep_cell(cell: CellSpec) -> Dict[str, Any]:
    """Grow the DAG at one density, probe it, report the trade-off."""
    spec = cell.scenario
    validations = int(cell.params.get("validations", 6))
    slots = spec.workload.slots
    runner = ScenarioRunner(spec).advance_to(slots)
    deployment, workload = runner.deployment, runner.workload
    outcomes = _run_cold_validations(
        deployment, workload, validations, runner.streams.get("sweep")
    )
    successes = [o for o in outcomes if o.success]
    nodes = deployment.node_ids
    topology = deployment.topology
    return {
        "comm_range": spec.topology.comm_range,
        "mean_degree": sum(topology.degree(n) for n in nodes) / len(nodes),
        "digest_bits_per_slot": (
            deployment.traffic.mean_tx_bits(nodes, ["dag"]) / slots
        ),
        "mean_pop_messages": (
            sum(o.message_total for o in successes) / len(successes)
            if successes
            else None
        ),
        "success_rate": len(successes) / len(outcomes) if outcomes else 0.0,
    }


def density_sweep_cells(
    comm_ranges: Sequence[float],
    node_count: int = 20,
    slots: int = 25,
    validations: int = 6,
    gamma: int = 5,
    seed: int = 0,
) -> Tuple[CellSpec, ...]:
    """One ``density-sweep-point`` cell per radio range."""
    return tuple(
        CellSpec(
            scenario=_density_sweep_spec(comm_range, node_count, slots, gamma, seed),
            kind="density-sweep-point",
            params={"validations": validations},
        )
        for comm_range in comm_ranges
    )


def density_sweep(
    comm_ranges: Sequence[float],
    node_count: int = 20,
    slots: int = 25,
    validations: int = 6,
    gamma: int = 5,
    seed: int = 0,
    executor=None,
) -> List[DensitySweepPoint]:
    """Measure digest overhead vs PoP cost across network densities."""
    from repro.campaign.executor import run_campaign

    campaign = CampaignSpec(
        name="density-sweep",
        cells=density_sweep_cells(
            comm_ranges, node_count, slots, validations, gamma, seed
        ),
    )
    points = []
    for payload in run_campaign(campaign, executor).payloads():
        mean_pop = payload["mean_pop_messages"]
        points.append(
            DensitySweepPoint(
                comm_range=float(payload["comm_range"]),
                mean_degree=float(payload["mean_degree"]),
                digest_bits_per_slot=float(payload["digest_bits_per_slot"]),
                mean_pop_messages=(
                    float("nan") if mean_pop is None else float(mean_pop)
                ),
                success_rate=float(payload["success_rate"]),
            )
        )
    return points

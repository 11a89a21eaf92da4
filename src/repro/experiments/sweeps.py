"""Parameter sweeps beyond the paper's figures.

Two sweeps that probe the design space the paper's analysis (§V) maps
out but does not plot:

* :func:`gamma_sweep_cells` — PoP message cost versus the tolerance γ.
  Proposition 4 lower-bounds it at ``2(γ+1)``; Proposition 6
  upper-bounds it; the sweep shows where reality falls.
* :func:`density_sweep_cells` — communication cost versus radio range.
  Denser networks mean more digests per block (bigger Δ) but shorter
  PoP paths; the sweep exposes the trade-off.

Each point of either sweep is a campaign cell of one kind,
``sweep-point``: the whole run-then-probe recipe executes inside the
cell and returns every column of both sweeps as its payload.  The
``gamma-sweep`` and ``density-sweep`` campaign presets run them, so
points fan out across workers and memoise in the result cache.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.bounds import prop4_message_lower_bound, prop6_message_upper_bound
from repro.campaign.cells import register_cell_kind
from repro.campaign.spec import CellSpec
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


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


@register_cell_kind("sweep-point")
def run_sweep_cell(cell: CellSpec) -> Dict[str, Any]:
    """Grow the DAG, run cold validations, report every sweep column."""
    spec = cell.scenario
    validations = int(cell.params.get("validations", 8))
    slots = spec.workload.slots
    runner = ScenarioRunner(spec).advance_to(slots)
    deployment, workload = runner.deployment, runner.workload
    outcomes = _run_cold_validations(
        deployment, workload, validations, runner.streams.get("sweep")
    )
    successes = [o for o in outcomes if o.success]
    gamma = spec.protocol.gamma
    nodes = deployment.node_ids
    topology = deployment.topology
    return {
        "gamma": gamma,
        "comm_range": spec.topology.comm_range,
        "mean_messages": (
            sum(o.message_total for o in successes) / len(successes)
            if successes
            else None
        ),
        "prop4_lower": prop4_message_lower_bound(gamma),
        "prop6_upper": prop6_message_upper_bound(
            [1.0] * spec.node_count, gamma, spec.node_count
        ),
        "mean_degree": sum(topology.degree(n) for n in nodes) / len(nodes),
        "digest_bits_per_slot": (
            deployment.traffic.mean_tx_bits(nodes, ["dag"]) / slots
        ),
        "success_rate": len(successes) / len(outcomes) if outcomes else 0.0,
    }


def gamma_sweep_cells(
    gammas: Sequence[int],
    node_count: int = 20,
    slots: int = 30,
    validations: int = 8,
    seed: int = 0,
) -> Tuple[CellSpec, ...]:
    """One ``sweep-point`` cell per γ."""
    return tuple(
        CellSpec(
            scenario=_gamma_sweep_spec(gamma, node_count, slots, seed),
            kind="sweep-point",
            params={"validations": validations},
        )
        for gamma in gammas
    )


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


def density_sweep_cells(
    comm_ranges: Sequence[float],
    node_count: int = 20,
    slots: int = 25,
    validations: int = 6,
    gamma: int = 5,
    seed: int = 0,
) -> Tuple[CellSpec, ...]:
    """One ``sweep-point`` cell per radio range."""
    return tuple(
        CellSpec(
            scenario=_density_sweep_spec(comm_range, node_count, slots, gamma, seed),
            kind="sweep-point",
            params={"validations": validations},
        )
        for comm_range in comm_ranges
    )


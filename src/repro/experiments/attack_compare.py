"""Attack comparison: one PoP audit scoreboard across the adversary roster.

Each cell grows a scenario's DAG to its full workload, then runs a
batch of cold PoP audits of early honest blocks from a single
validator's viewpoint and reports the success rate, message cost, and
how many malicious encounters (timeouts + rejected forgeries) the
path-selection routed around.  Comparing the clean baseline with the
``attack-*`` presets — including the eclipse victim's own viewpoint,
which *should* fail — reproduces the §IV-D resilience story as one
campaign instead of three ad-hoc demos.

Every row is a campaign cell of kind ``attack-audit``, so the roster
fans out across workers and caches through a configured
:class:`~repro.campaign.executor.CampaignExecutor`; the ``attack-roster``
campaign preset exposes it on the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.campaign.cells import register_cell_kind
from repro.campaign.spec import CellSpec
from repro.scenario import ScenarioRunner, get_scenario

#: The default comparison roster: clean baseline plus every attack preset.
DEFAULT_ROSTER: Tuple[str, ...] = (
    "quickstart",
    "attack-majority",
    "attack-eclipse",
    "attack-sybil",
)


#: Audited blocks come from the first this-many slots.
_TARGET_SLOTS = 5


@register_cell_kind("attack-audit")
def run_attack_audit_cell(cell: CellSpec) -> Dict[str, Any]:
    """Grow the scenario, audit early honest blocks from one validator."""
    spec = cell.scenario
    audits = int(cell.params.get("audits", 8))
    runner = ScenarioRunner(spec).build()
    runner.advance_to(spec.workload.slots)
    deployment, workload = runner.deployment, runner.workload
    behaviors = runner.behaviors

    eclipse_victims = {
        adversary.victim
        for adversary in spec.adversaries
        if adversary.kind == "eclipse"
    }
    validator_id = cell.params.get("validator")
    if validator_id is None:
        validator_id = min(
            node_id
            for node_id in deployment.node_ids
            if node_id not in behaviors and node_id not in eclipse_victims
        )
    validator_id = int(validator_id)

    # Audit blocks of honest, reachable origins: captured nodes' blocks
    # are not the point, and an eclipse victim's blocks are unverifiable
    # by construction (the origin is the PoP verifier and its PoP
    # traffic is dropped) — the victim-view cell covers that failure.
    targets = [
        block
        for slot in range(_TARGET_SLOTS)
        for block in workload.blocks_by_slot.get(slot, [])
        if block.origin not in behaviors
        and block.origin != validator_id
        and block.origin not in eclipse_victims
    ][:audits]

    validator = deployment.node(validator_id)
    successes = 0
    messages = 0
    encounters = 0
    for target in targets:
        process = validator.verify_block(target.origin, target, fetch_body=False)
        deployment.sim.run()
        outcome = process.value
        successes += 1 if outcome.success else 0
        messages += outcome.message_total
        encounters += outcome.timeouts + outcome.invalid_replies
    return {
        "validator": validator_id,
        "eclipsed": validator_id in eclipse_victims,
        "audits": len(targets),
        "successes": successes,
        "success_rate": successes / len(targets) if targets else 0.0,
        "mean_messages": messages / len(targets) if targets else 0.0,
        "malicious_encounters": encounters,
        "sybil_identities": len(runner.sybil_identities),
    }


def attack_roster_cells(
    roster: Sequence[str] = DEFAULT_ROSTER,
    audits: int = 8,
    include_victim_view: bool = True,
) -> Tuple[CellSpec, ...]:
    """One ``attack-audit`` cell per roster entry.

    Eclipse scenarios contribute a second cell auditing from the
    victim itself when ``include_victim_view`` is set — the row whose
    expected success rate is zero.
    """
    cells: List[CellSpec] = []
    for name in roster:
        spec = get_scenario(name)
        cells.append(
            CellSpec(scenario=spec, kind="attack-audit", params={"audits": audits})
        )
        if include_victim_view:
            for adversary in spec.adversaries:
                if adversary.kind == "eclipse":
                    cells.append(
                        CellSpec(
                            scenario=spec,
                            kind="attack-audit",
                            params={"audits": audits, "validator": adversary.victim},
                        )
                    )
    return tuple(cells)


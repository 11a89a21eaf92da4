#!/usr/bin/env python
"""Dynamic membership: devices leaving and rejoining the network.

The paper's §VII names dynamic scenarios as future work; this example
exercises the implementation through the ``churn`` scenario preset: a
third of the sensors go offline mid-run (battery swap, duty cycling),
the network keeps operating, and their historical data remains
verifiable throughout — descendants at other nodes keep vouching for
it.  The offline/rejoin choreography is the spec's fault timeline: a
``node-crash`` event and a ``node-rejoin`` event (with §IV-D-6
blacklist forgiveness); the runner applies each before its slot.

Run:  python examples/network_churn.py
(REPRO_EXAMPLE_QUICK=1 trims the workload for smoke tests.)
"""

import os
from dataclasses import replace

from repro.faults import FaultScheduleSpec
from repro.scenario import ScenarioRunner, get_scenario


def verify_batch(deployment, workload, validator_id, targets):
    """Verify each target from the given validator; return successes."""
    successes = 0
    for target in targets:
        process = deployment.node(validator_id).verify_block(
            target.origin, target, fetch_body=False
        )
        deployment.sim.run()
        successes += process.value.success
    return successes


def main() -> None:
    spec = get_scenario("churn")
    if os.environ.get("REPRO_EXAMPLE_QUICK") == "1":
        crash, rejoin = spec.workload.faults.events
        spec = spec.with_workload(slots=26, faults=FaultScheduleSpec(events=(
            replace(crash, slot=12), replace(rejoin, slot=19),
        )))
    crash, rejoin = spec.workload.faults.events
    sleepers = list(crash.nodes)
    runner = ScenarioRunner(spec).build()
    deployment, workload = runner.deployment, runner.workload

    # Phase 1: everyone online until the crash event.
    runner.advance_to(crash.slot)
    print(f"phase 1: {workload.total_blocks()} blocks "
          f"from {spec.node_count} sensors")

    # Phase 2: the crash event takes the sleepers offline (duty
    # cycling); the rest keep generating.
    runner.advance_to(rejoin.slot)
    print(f"phase 2: sensors {sleepers} offline; "
          f"total blocks now {workload.total_blocks()}")

    # Their *old* data is still verifiable while they sleep — as long
    # as the author itself is awake to serve the block, PoP vouching
    # comes from descendants at other nodes.
    awake_authors = [
        b for b in workload.blocks_by_slot[2] if b.origin not in sleepers
    ][:5]
    ok = verify_batch(deployment, workload, validator_id=0, targets=awake_authors)
    print(f"verified {ok}/{len(awake_authors)} slot-2 blocks during the outage")

    # Phase 3: the sleepers rejoin (the runner also applies the
    # §IV-D-6 forgiveness the rejoin event declares); their chains resume.
    runner.finish()
    resumed = deployment.node(sleepers[0])
    expected_chain = crash.slot + (spec.workload.slots - rejoin.slot)
    print(f"phase 3: sensor {sleepers[0]} resumed; chain length "
          f"{len(resumed.store)} ({crash.slot} pre-outage + "
          f"{spec.workload.slots - rejoin.slot} post-rejoin)")

    # And the sleepers' pre-outage blocks are verifiable again.
    sleeper_blocks = [
        b for b in workload.blocks_by_slot[2] if b.origin in sleepers
    ][:5]
    ok = verify_batch(deployment, workload, validator_id=0, targets=sleeper_blocks)
    print(f"verified {ok}/{len(sleeper_blocks)} sleeper blocks after rejoin")

    assert ok == len(sleeper_blocks)
    assert len(resumed.store) == expected_chain


if __name__ == "__main__":
    main()

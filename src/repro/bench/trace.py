"""Canonical trace digests for determinism checks.

A *trace digest* is a SHA-256 over everything observable about a
finished :class:`~repro.core.protocol.SlotSimulation`: which blocks
were generated in which slot, every PoP outcome (success, consensus
set, path, message counts), the number of kernel events processed and
the final simulated clock.  Two runs with the same seed must produce
the same digest — this is the invariant every hot-path optimisation in
this codebase is held to (see ``docs/performance.md``).

The encoding is a plain line-oriented text format (stable across
Python versions — no ``repr`` of floats beyond ``!r`` of values the
simulation itself quantises, no dict iteration order dependence).
"""

from __future__ import annotations

from typing import List

from repro.canonical import sha256_lines
from repro.core.protocol import SlotSimulation


def slot_simulation_trace_lines(workload: SlotSimulation) -> List[str]:
    """The canonical text lines describing a finished workload."""
    deployment = workload.deployment
    lines: List[str] = []
    for slot in sorted(workload.blocks_by_slot):
        blocks = ",".join(str(b) for b in sorted(workload.blocks_by_slot[slot]))
        lines.append(f"slot {slot}: {blocks}")
    for record in workload.validations:
        outcome = record.outcome
        consensus = ",".join(str(n) for n in sorted(outcome.consensus_set))
        path = ",".join(str(h.block_id) for h in outcome.path)
        lines.append(
            f"pop validator={record.validator} verifier={record.verifier} "
            f"target={record.block_id} slot={record.slot_started} "
            f"success={outcome.success} error={outcome.error} "
            f"consensus=[{consensus}] path=[{path}] "
            f"req={outcome.requests_sent} rpy={outcome.replies_received} "
            f"timeouts={outcome.timeouts} invalid={outcome.invalid_replies} "
            f"tps={outcome.tps_steps} rollbacks={outcome.rollbacks}"
        )
    lines.append(f"events {deployment.sim.processed_count}")
    lines.append(f"now {deployment.sim.now!r}")
    lines.append(f"blocks {workload.total_blocks()}")
    return lines


def slot_simulation_trace_digest(workload: SlotSimulation) -> str:
    """Hex SHA-256 of the canonical trace of a finished workload."""
    return sha256_lines(slot_simulation_trace_lines(workload))

"""Declarative fault injection: timelines of typed fault events.

A :class:`FaultScheduleSpec` is an ordered timeline of
:class:`FaultEvent` entries — node crashes, rejoins, network
partitions, heals and link degradation — validated on construction and
round-tripping through JSON exactly like the rest of the spec tree.
The :class:`FaultEngine` applies due events at slot boundaries by
dispatching through the fault hooks every
:class:`~repro.scenario.backends.LedgerBackend` implements, so one
schedule runs identically on the paper's two-layer DAG, the PBFT
cluster (crashed replicas exercise view changes) and the IOTA tangle.

A duty-cycled node (§VII dynamic membership) is a ``node-crash`` event
followed by a ``node-rejoin``; the ``churn`` scenario preset declares
exactly that pair.

Named schedule builders parameterized on the scenario's shape live in
:mod:`repro.faults.presets` (``mid-crash``, ``partition-heal``,
``lossy-links``, ``stress``) and back the CLI's ``--faults PRESET``
flag and the ``fault-grid`` campaign.
"""

from repro.faults.engine import FaultEngine
from repro.faults.presets import build_fault_preset, fault_preset_names
from repro.faults.spec import (
    FAULT_KINDS,
    HEAL,
    LINK_DEGRADE,
    NODE_CRASH,
    NODE_REJOIN,
    PARTITION,
    FaultError,
    FaultEvent,
    FaultScheduleSpec,
)

__all__ = [
    "FAULT_KINDS",
    "HEAL",
    "LINK_DEGRADE",
    "NODE_CRASH",
    "NODE_REJOIN",
    "PARTITION",
    "FaultEngine",
    "FaultError",
    "FaultEvent",
    "FaultScheduleSpec",
    "build_fault_preset",
    "fault_preset_names",
]

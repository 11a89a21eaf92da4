"""Run a :class:`~repro.scenario.spec.ScenarioSpec` end to end.

:class:`ScenarioRunner` is the only place in the codebase that wires a
deployment from declarative input — every entry point (CLI, paper
experiments, examples, attack demos, the repo benchmark) goes through
it, so scenario construction is defined exactly once and seeded traces
stay byte-identical across callers.

The runner does not construct ledgers itself: it dispatches through
the backend registry (:mod:`repro.scenario.backends`) on
``spec.backend`` — ``"2ldag"`` (the paper's protocol, the default),
``"pbft"`` or ``"iota"`` — and owns only the schedule: slot
boundaries, fault-timeline application (via the
:class:`~repro.faults.engine.FaultEngine`), series sampling and result
assembly.  The same spec therefore runs on any registered ledger, and
every result carries the same series/digest shape.

The 2LDAG construction recipe is deliberately frozen: one
:class:`~repro.sim.rng.RandomStreams` per scenario seeds the topology
and the adversary coalitions, and the same seed masters the
deployment's internal streams.  Any change to this ordering changes
seeded traces, which the golden-trace determinism test pins.

Typical use::

    runner = ScenarioRunner(get_scenario("quickstart"))
    result = runner.run()          # -> ScenarioResult (pure data)
    runner.deployment              # the live network, for follow-up audits
    runner.workload                # the finished SlotSimulation

Long-form use (probes or audits between slots)::

    runner = ScenarioRunner(spec).build()
    runner.advance_to(15)
    ...  # interact with runner.deployment mid-run
    result = runner.finish()
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.engine import FaultEngine
from repro.metrics.reporting import format_series_table
from repro.scenario.backends import LedgerBackend, create_backend
from repro.scenario.spec import ScenarioSpec

#: The series every backend samples, in canonical order.
SERIES_KEYS = (
    "storage_mb", "traffic_mbit", "traffic_dag_mbit", "traffic_pop_mbit"
)


@dataclass
class ScenarioResult:
    """Everything measurable about one finished scenario — pure data.

    Serializes through :meth:`to_dict` (every leaf is a JSON primitive)
    and renders through
    :func:`repro.metrics.reporting.format_series_table` via
    :meth:`to_table`.
    """

    spec: ScenarioSpec
    sample_slots: List[int]
    total_blocks: int
    validations: int
    success_rate: float
    storage_mb: List[float]
    traffic_mbit: List[float]
    traffic_dag_mbit: List[float]
    traffic_pop_mbit: List[float]
    per_node_storage_mb: List[float] = field(default_factory=list)
    per_node_traffic_mb: List[float] = field(default_factory=list)
    events: int = 0
    sim_now: float = 0.0
    trace_sha256: str = ""
    mean_consensus_s: Optional[float] = None

    @property
    def series(self) -> Dict[str, List[float]]:
        """The sampled series keyed by metric name."""
        return {
            "storage_mb": self.storage_mb,
            "traffic_mbit": self.traffic_mbit,
            "traffic_dag_mbit": self.traffic_dag_mbit,
            "traffic_pop_mbit": self.traffic_pop_mbit,
        }

    def to_table(self) -> str:
        """The sampled series as an aligned text table."""
        return format_series_table("slots", self.sample_slots, self.series)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`).

        This is the payload format campaign cells of kind ``scenario``
        return: every leaf is a JSON primitive, so results can cross
        process boundaries and live in the on-disk result cache.  The
        spec is not echoed: runs that differ only in the spec's labels
        share one payload, and the caller knows which spec it submitted.
        """
        return {
            "sample_slots": list(self.sample_slots),
            "total_blocks": self.total_blocks,
            "validations": self.validations,
            "success_rate": self.success_rate,
            "storage_mb": list(self.storage_mb),
            "traffic_mbit": list(self.traffic_mbit),
            "traffic_dag_mbit": list(self.traffic_dag_mbit),
            "traffic_pop_mbit": list(self.traffic_pop_mbit),
            "per_node_storage_mb": list(self.per_node_storage_mb),
            "per_node_traffic_mb": list(self.per_node_traffic_mb),
            "events": self.events,
            "sim_now": self.sim_now,
            "trace_sha256": self.trace_sha256,
            "mean_consensus_s": self.mean_consensus_s,
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], spec: ScenarioSpec
    ) -> "ScenarioResult":
        """Rebuild the result of running ``spec`` from :meth:`to_dict` output."""
        known = {f.name for f in dataclasses.fields(cls)} - {"spec"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown ScenarioResult field(s): {', '.join(sorted(unknown))}"
            )
        return cls(spec=spec, **payload)

    def summary(self) -> str:
        """A compact human-readable digest of the run."""
        lines = [
            f"scenario {self.spec.name}: {self.spec.node_count} nodes, "
            f"{self.spec.workload.slots} slots, seed {self.spec.seed}, "
            f"backend {self.spec.backend}",
            f"blocks generated: {self.total_blocks}",
        ]
        if self.validations:
            lines.append(
                f"validations: {self.validations} "
                f"(success rate {self.success_rate:.3f})"
            )
        lines.append(f"mean storage/node: {self.storage_mb[-1]:.2f} MB")
        lines.append(f"mean transmit/node: {self.traffic_mbit[-1]:.3f} Mbit")
        lines.append(f"trace sha256: {self.trace_sha256}")
        return "\n".join(lines)


class ScenarioRunner:
    """spec → backend deployment → result, the shared pipeline.

    After :meth:`build` (or lazily on first use) the live objects are
    exposed for follow-up interaction: ``backend`` (the
    :class:`~repro.scenario.backends.LedgerBackend` instance),
    ``streams`` (the scenario's master random source), and — when the
    2LDAG backend is driving — ``deployment``, ``workload``,
    ``behaviors`` (the adversary roster actually installed) and
    ``sybil_identities``; they stay ``None``/empty on the baseline
    backends.
    """

    def __init__(self, spec: ScenarioSpec, telemetry=None, spans=None) -> None:
        self.spec = spec
        self.backend: Optional[LedgerBackend] = None
        self.deployment = None
        self.workload = None
        self.streams = None
        self.behaviors: Dict[int, object] = {}
        self.sybil_identities: List[object] = []
        self.fault_engine: Optional[FaultEngine] = None
        #: Optional :class:`~repro.telemetry.events.TelemetryRecorder`.
        #: Strictly write-only observation: every value handed to it is
        #: a pure read the runner performs anyway (or an extra pure
        #: read), and it never changes which slot boundaries are driven
        #: — so traces are byte-identical with telemetry on or off.
        self.telemetry = telemetry
        #: Optional :class:`~repro.telemetry.spans.SpanRecorder` — the
        #: block-lifecycle tracing twin, bound by the same no-op
        #: contract (its collector, installed on the deployment's
        #: network, only reads what the emission sites hand it and
        #: never touches simulation state).
        self.spans = spans
        self._next_slot = 0
        self._sampled: Dict[int, Dict[str, float]] = {}

    # -- construction ------------------------------------------------------
    def build(self) -> "ScenarioRunner":
        """Wire the backend's deployment and workload; idempotent."""
        if self.backend is not None:
            return self
        backend = create_backend(self.spec)
        backend.build()
        self.backend = backend
        self.streams = backend.streams
        self.deployment = getattr(backend, "deployment", None)
        self.workload = getattr(backend, "workload", None)
        self.behaviors = getattr(backend, "behaviors", {})
        self.sybil_identities = getattr(backend, "sybil_identities", [])
        # The span recorder goes first: a backend it cannot trace is
        # refused before either recorder has opened a stream file.
        if self.spans is not None:
            self.spans.run_started(self.spec, backend.wired.network)
        if self.telemetry is not None:
            self.telemetry.run_started(self.spec)
        schedule = self.spec.workload.faults
        if schedule is not None:
            self.fault_engine = FaultEngine(
                schedule, backend, observer=self._fault_applied
            )
        return self

    def _fault_applied(self, event, slot: int) -> None:
        """The fault engine's observer: hand the event to each recorder."""
        if self.telemetry is not None:
            self.telemetry.fault_applied(event, slot)
        if self.spans is not None:
            self.spans.fault_applied(event, slot, self.backend.current_time())

    # -- driving -----------------------------------------------------------
    def _boundaries_until(self, target: int) -> List[int]:
        """Slots in (next, target] where the runner must pause."""
        stops = {s for s in self.spec.workload.sample_slots if self._next_slot < s <= target}
        if self.fault_engine is not None:
            for stop in self.fault_engine.boundary_slots:
                if self._next_slot < stop <= target:
                    stops.add(stop)
        stops.add(target)
        return sorted(stops)

    def advance_to(self, slot: int) -> "ScenarioRunner":
        """Simulate up to (and including) slot ``slot - 1``.

        Churn is applied and series are sampled at their declared
        slots; mid-run interaction with ``deployment`` between calls is
        safe (the workload re-anchors behind an advanced clock).
        """
        self.build()
        if slot > self.spec.workload.slots:
            raise ValueError(
                f"cannot advance to slot {slot}: the workload declares "
                f"{self.spec.workload.slots} slots"
            )
        if slot < self._next_slot:
            raise ValueError(
                f"cannot advance to slot {slot}: slot {self._next_slot} "
                f"is already simulated"
            )
        if slot == self._next_slot:
            return self
        for stop in self._boundaries_until(slot):
            if self.fault_engine is not None:
                self.fault_engine.apply_due(self._next_slot)
            advanced = stop - self._next_slot
            if advanced > 0:
                self.backend.advance_slots(self._next_slot, advanced)
                self._next_slot = stop
            if stop in self.spec.workload.sample_slots:
                self._sampled[stop] = self.backend.sample()
            if self.telemetry is not None and advanced > 0:
                # Boundary-granular by design: emitting per individual
                # slot would change the chunking some backends observe
                # (PBFT settles per driven chunk) and break the
                # telemetry-off byte-identity contract.  Every read
                # below is pure.
                series = self._sampled.get(stop)
                if series is None:
                    series = self.backend.sample()
                self.telemetry.slot_advanced(
                    slot=stop,
                    slots_covered=advanced,
                    sim_now=self.backend.current_time(),
                    series=series,
                    counters=self.backend.telemetry_counters(),
                )
        return self

    def finish(self) -> ScenarioResult:
        """Run any remaining slots, drain, and assemble the result."""
        self.build()
        workload_spec = self.spec.workload
        self.advance_to(workload_spec.slots)
        self.backend.finalize()
        if not self._sampled:
            # No declared sample axis: record the final state so the
            # series have one point.  When the spec declares
            # sample_slots, the series stay exactly that length (the
            # experiment tables align them with other sampled series).
            self._sampled[workload_spec.slots] = self.backend.sample()

        sample_slots = sorted(self._sampled)
        series = {
            key: [self._sampled[s][key] for s in sample_slots]
            for key in SERIES_KEYS
        }
        metrics = self.backend.collect()
        result = ScenarioResult(
            spec=self.spec,
            sample_slots=sample_slots,
            total_blocks=metrics.total_blocks,
            validations=metrics.validations,
            success_rate=metrics.success_rate,
            storage_mb=series["storage_mb"],
            traffic_mbit=series["traffic_mbit"],
            traffic_dag_mbit=series["traffic_dag_mbit"],
            traffic_pop_mbit=series["traffic_pop_mbit"],
            per_node_storage_mb=metrics.per_node_storage_mb,
            per_node_traffic_mb=metrics.per_node_traffic_mb,
            events=metrics.events,
            sim_now=metrics.sim_now,
            trace_sha256=self.backend.trace_digest(),
            mean_consensus_s=metrics.mean_consensus_s,
        )
        if self.telemetry is not None:
            self.telemetry.run_finished(
                slot=workload_spec.slots,
                sim_now=result.sim_now,
                blocks=result.total_blocks,
                validations=result.validations,
                success_rate=result.success_rate,
                events=result.events,
                trace_sha256=result.trace_sha256,
            )
        if self.spans is not None:
            self.spans.run_finished()
        return result

    def run(self) -> ScenarioResult:
        """``build()`` + drive the whole workload + ``finish()``."""
        return self.finish()

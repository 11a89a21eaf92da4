"""Opt-in causal block-lifecycle tracing (span streams, schema v2).

Where the v1 event streams (:mod:`repro.telemetry.events`) observe a
run at *slot* granularity, this module records, for a deterministic
sample of blocks, one span tree per block — the causal chain
``created → gossiped → received → validated/committed → confirmed`` —
with **slot-time timestamps only** (the kernel's simulated clock),
never the wall clock.

The moving parts:

* :class:`SpanCollector` subclasses (one per registered ledger
  backend, rostered in :data:`SPAN_COLLECTORS` with their phase order)
  sit on the deployment's ``Network.spans``; the backend's emission
  sites call their lifecycle methods directly and fold each call into
  per-block traces.  Collection is pure observation: no RNG draws from
  existing streams, no event scheduling, no state written back into
  the simulation — which is what keeps a tracing-enabled run
  byte-identical to a disabled one (the determinism no-op contract,
  pinned per backend in tests and diffed in CI).
* Block sampling is seeded from a named ``tracing`` stream:
  :func:`block_sampled` is a pure function of the scenario's master
  seed and the block key, so the sampled set is identical across
  processes, replays and backends that share a key.
* :class:`SpanRecorder` owns the run's collector — it picks it from
  the roster by ``spec.backend``, installs it on the network it is
  handed and drains it at the end — and writes the trace stream as
  JSONL under the telemetry directory, through the
  :class:`~repro.telemetry.stream.StreamWriter` it shares with the v1
  recorder (every record validated against the pinned v2 table in
  :data:`repro.telemetry.stream.SCHEMAS` before it is written).

Stream schema (``v`` = :data:`SPAN_SCHEMA_VERSION`, pinned; adding a
record kind or a field bumps it)::

    trace-start {v, event, scenario, backend, nodes, slots, seed, sample}
    fault       {v, event, slot, kind, time, nodes, detail}
    block-trace {v, event, block, origin, confirmed,
                 spans:  [{phase, node, slot, start, end, detail?}…],
                 faults: [{slot, kind, time, detail}…]}
    trace-end   {v, event, blocks, spans, digest}

``trace-end.digest`` is the SHA-256 over the canonical lines of every
earlier record — a self-certifying checksum
:func:`~repro.telemetry.stream.parse_stream` re-verifies, and the
witness the determinism tests pin per backend.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.canonical import sha256_lines
from repro.sim.rng import derive_seed, derive_unit
from repro.telemetry.events import TelemetryRecorder
from repro.telemetry.stream import (
    BLOCK_TRACE,
    FAULT,
    TRACE_END,
    TRACE_START,
    PathLike,
    StreamWriter,
    TelemetryError,
)

#: The pinned trace-stream schema version (v1 is the per-slot stream).
SPAN_SCHEMA_VERSION = 2

#: Environment override enabling span recording without a CLI flag
#: (a sample rate in (0, 1]; unset/empty/0 disables tracing).
TRACE_SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"

#: Default block sample rate when tracing is enabled without a rate.
DEFAULT_TRACE_SAMPLE = 0.25

#: Cumulative approval weight at which the IOTA collector calls a
#: transaction confirmed (the tangle analogue of a commit quorum).
IOTA_CONFIRM_WEIGHT = 3


def trace_sample_rate(value: Any, source: str) -> Optional[float]:
    """``value`` read as a block-trace sample rate; ``None`` when it is 0.

    Anything but 0 (tracing off) or a finite rate in (0, 1] — a
    negative, NaN, infinite, over-one or non-numeric value — is a
    :class:`TelemetryError` naming ``source`` and the value.
    """
    try:
        rate = float(value)
    except ValueError:
        rate = math.nan
    if rate == 0:
        return None
    if not 0 < rate <= 1:  # also refuses NaN
        raise TelemetryError(
            f"{source} must be 0 (off) or a sample rate in (0, 1], "
            f"got {value!r}"
        )
    return rate


def trace_sample_from_env() -> Optional[float]:
    """The ``$REPRO_TRACE_SAMPLE`` rate, or ``None`` when unset/zero."""
    raw = os.environ.get(TRACE_SAMPLE_ENV_VAR, "").strip()
    return trace_sample_rate(raw, f"${TRACE_SAMPLE_ENV_VAR}") if raw else None


def block_sampled(master_seed: int, block_key: str, sample_rate: float) -> bool:
    """Deterministic membership of one block in the traced sample.

    A pure function of the scenario's master seed and the block key,
    seeded via the named ``tracing`` stream — so the sampled set never
    perturbs existing streams and replays identically everywhere.
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    return derive_unit(derive_seed(master_seed, "tracing"), block_key) < sample_rate


# -- collection ----------------------------------------------------------------

class _BlockTrace:
    """One sampled block's accumulating lifecycle record."""

    __slots__ = ("key", "origin", "events", "confirmed", "faults")

    def __init__(self, key: str, origin: int) -> None:
        self.key = key
        self.origin = origin
        #: (time, phase, node, slot, start, detail) tuples in emission
        #: order; ``start`` is an explicit span start or ``None`` (the
        #: drain infers it from the causal predecessor).
        self.events: List[
            Tuple[float, str, int, int, Optional[float], Dict[str, Any]]
        ] = []
        self.confirmed = False
        self.faults: List[Dict[str, Any]] = []


class SpanCollector:
    """Fold a run's lifecycle calls into per-block span trees.

    :meth:`SpanRecorder.run_started` installs the collector as the
    deployment's ``Network.spans``; the emission sites of its backend
    call the subclass's lifecycle methods with objects they already
    hold.  Everything here is read-side: the collector never touches
    simulation state, never draws from existing random streams, and
    defers all aggregation to :meth:`block_traces` (one pure drain
    after the run).
    """

    backend = ""
    #: Canonical lifecycle phases in causal order.  Phases not listed
    #: (``view-change``) are annotations: they attach to a trace
    #: without claiming a position on the critical path.
    phases: Tuple[str, ...] = ()

    def __init__(self, spec, sample_rate: float, sim) -> None:
        self.master_seed = int(spec.seed)
        self.sample_rate = float(sample_rate)
        #: The run's kernel: lifecycle calls are stamped with its clock.
        self.sim = sim
        self._traces: Dict[str, _BlockTrace] = {}
        self._sampled: Dict[str, bool] = {}

    # -- bookkeeping -------------------------------------------------------
    def sampled(self, key: str) -> bool:
        """Memoized deterministic sample membership for ``key``."""
        hit = self._sampled.get(key)
        if hit is None:
            hit = block_sampled(self.master_seed, key, self.sample_rate)
            self._sampled[key] = hit
        return hit

    def _begin(
        self, key: str, origin: int, time: float, **detail: Any
    ) -> Optional[_BlockTrace]:
        """Open the trace for a newly created block (if sampled)."""
        if not self.sampled(key):
            return None
        trace = self._traces.get(key)
        if trace is None:
            trace = _BlockTrace(key, int(origin))
            self._traces[key] = trace
            trace.events.append(
                (float(time), "created", int(origin), int(time), None, detail)
            )
        return trace

    def _record(
        self,
        key: str,
        phase: str,
        node: int,
        time: float,
        start: Optional[float] = None,
        **detail: Any,
    ) -> None:
        """Append one lifecycle event to an already-open trace."""
        trace = self._traces.get(key)
        if trace is None:
            return
        trace.events.append(
            (float(time), phase, int(node), int(time), start, detail)
        )

    def _confirm(self, key: str, node: int, time: float, **detail: Any) -> None:
        trace = self._traces.get(key)
        if trace is None or trace.confirmed:
            return
        trace.confirmed = True
        self._record(key, "confirmed", node, time, **detail)

    # -- fault annotation (the FaultEngine observer's view) ----------------
    def fault_applied(self, event, slot: int, time: float) -> None:
        """Annotate every open (begun, unconfirmed) trace with a fault."""
        note = {
            "slot": int(slot),
            "kind": event.kind,
            "time": float(time),
            "detail": event.describe(),
        }
        for trace in self._traces.values():
            if not trace.confirmed:
                trace.faults.append(dict(note))

    # -- drain -------------------------------------------------------------
    def block_traces(self) -> List[Dict[str, Any]]:
        """Every sampled block's finished span tree, as schema-v2 data.

        Span starts are inferred causally: a span begins where its
        latest earlier-phase predecessor ended (annotation phases fall
        back to the latest earlier event of any phase).
        """
        order = {phase: rank for rank, phase in enumerate(self.phases)}
        out: List[Dict[str, Any]] = []
        for trace in self._traces.values():
            events = sorted(trace.events, key=lambda item: item[0])
            spans: List[Dict[str, Any]] = []
            for index, (time, phase, node, slot, start, detail) in enumerate(
                events
            ):
                if start is None:
                    rank = order.get(phase, len(order))
                    predecessors = [
                        other_time
                        for other_time, other_phase, *_ in events[:index]
                        if (order.get(other_phase, len(order)) < rank
                            and other_time <= time)
                    ]
                    start = max(predecessors) if predecessors else time
                span = {
                    "phase": phase,
                    "node": node,
                    "slot": slot,
                    "start": min(float(start), float(time)),
                    "end": float(time),
                }
                if detail:
                    span["detail"] = {
                        key: value for key, value in sorted(detail.items())
                    }
                spans.append(span)
            out.append({
                "event": BLOCK_TRACE,
                "block": trace.key,
                "origin": trace.origin,
                "confirmed": trace.confirmed,
                "spans": spans,
                "faults": list(trace.faults),
            })
        out.sort(key=lambda record: record["block"])
        return out


class DagSpanCollector(SpanCollector):
    """2LDAG lifecycle: generate → gossip digests → PoP validation.

    Confirmation is the first *successful* proof-of-presence
    validation of the block (the device-layer analogue of finality in
    this backend's experiments).
    """

    backend = "2ldag"
    phases = ("created", "gossiped", "received", "referenced",
              "validated", "confirmed")

    def __init__(self, spec, sample_rate: float, sim) -> None:
        super().__init__(spec, sample_rate, sim)
        #: raw digest bytes -> block key, for *sampled* blocks only, so
        #: the per-neighbour receipt flood (the sim's most frequent
        #: event) costs one lookup for the unsampled majority.
        self._digest_to_key: Dict[bytes, str] = {}

    def created(self, node, block) -> None:
        """``node`` generated ``block`` (and referenced its Δ parents)."""
        key = str(block.block_id)
        time = self.sim.now
        if self.sampled(key):
            digest = block.digest(node.config.hash_bits).value
            self._digest_to_key[digest] = key
            self._begin(key, node.node_id, time, digest=digest.hex())
        for parent in block.header.digests.values():
            # Only sampled parents are in the map, so membership here
            # already implies an open trace.
            parent_key = self._digest_to_key.get(parent.value)
            if parent_key is not None:
                self._record(
                    parent_key, "referenced", node.node_id, time, by=key
                )

    def gossiped(self, node, block) -> None:
        """``node`` pushed ``block``'s digest to its neighbours."""
        key = str(block.block_id)
        if key in self._traces:
            self._record(
                key, "gossiped", node.node_id, self.sim.now,
                neighbors=len(node.neighbors),
            )

    def received(self, node, sender: int, digest) -> None:
        """``node`` took ``sender``'s digest into its ``A_i``."""
        key = self._digest_to_key.get(digest.value)
        if key is not None:
            self._record(key, "received", node.node_id, self.sim.now,
                         sender=sender)

    def validated(self, record) -> None:
        """A workload PoP run (a ``ValidationRecord``) finished.

        Stamped with the run's own finish time (the outcome brackets
        it), not the harvest boundary.
        """
        outcome = record.outcome
        key = str(record.block_id)
        self._record(
            key, "validated", record.validator, outcome.finished_at,
            start=outcome.started_at, success=outcome.success,
        )
        if outcome.success:
            self._confirm(key, record.validator, outcome.finished_at)


def _seed_key(item) -> str:
    """A PBFT request's or IOTA transaction's span key: its payload seed."""
    return item.payload_seed.decode("utf-8", "replace")


class PbftSpanCollector(SpanCollector):
    """PBFT lifecycle: request → pre-prepare → prepare → commit → reply.

    A request is confirmed when its ``quorum``-th replica executes it
    — the (2f+1)-th, ``f = ⌊(n − 1) / 3⌋`` of the spec's ``n`` nodes, by
    when a client would hold ``f+1`` matching replies.  View changes
    annotate every in-flight request as ``view-change`` spans.
    """

    backend = "pbft"
    phases = ("created", "pre-prepare", "prepare", "commit", "confirmed")

    def __init__(self, spec, sample_rate: float, sim) -> None:
        super().__init__(spec, sample_rate, sim)
        self.quorum = 2 * ((spec.node_count - 1) // 3) + 1
        self._executions: Dict[str, int] = {}

    def request(self, replica, request) -> None:
        """A client submitted ``request`` at ``replica``."""
        key = _seed_key(request)
        if self.sampled(key):
            self._begin(key, replica.replica_id, self.sim.now)

    def phase(self, replica, phase: str, pre_prepare) -> None:
        """``replica`` reached ``phase`` (pre-prepare, prepare) on a slot."""
        key = _seed_key(pre_prepare.request)
        if key in self._traces:
            self._record(
                key, phase, replica.replica_id, self.sim.now,
                view=pre_prepare.view, seq=pre_prepare.sequence,
            )

    def executed(self, replica, pre_prepare) -> None:
        """``replica`` committed and executed the slot's request."""
        key = _seed_key(pre_prepare.request)
        if key not in self._traces:
            return
        time = self.sim.now
        self._record(
            key, "commit", replica.replica_id, time,
            view=pre_prepare.view, seq=pre_prepare.sequence,
        )
        count = self._executions.get(key, 0) + 1
        self._executions[key] = count
        if count >= self.quorum:
            self._confirm(key, replica.replica_id, time, seq=pre_prepare.sequence)

    def view_change(self, replica, view: int) -> None:
        """``replica`` voted for, or entered, ``view``."""
        time = self.sim.now
        for trace in self._traces.values():
            if not trace.confirmed:
                self._record(
                    trace.key, "view-change", replica.replica_id, time,
                    start=time, view=view,
                )


class IotaSpanCollector(SpanCollector):
    """IOTA lifecycle: attach (tip selection) → gossip → approval weight.

    The collector mirrors the attach-event parent graph and confirms a
    transaction when its cumulative approval weight (number of direct
    and indirect approvers) reaches :data:`IOTA_CONFIRM_WEIGHT` — the
    read-side analogue of the tangle's confirmation rule.
    """

    backend = "iota"
    phases = ("created", "received", "approved", "confirmed")

    def __init__(self, spec, sample_rate: float, sim) -> None:
        super().__init__(spec, sample_rate, sim)
        #: raw digest bytes -> key / parent digests / cumulative weight.
        #: A transaction's memoised digest keeps the per-receive cost
        #: to a dict lookup.
        self._digest_to_key: Dict[bytes, str] = {}
        self._parents: Dict[bytes, Tuple[bytes, ...]] = {}
        self._weights: Dict[bytes, int] = {}

    def attach(self, node, tx) -> None:
        """``node`` issued ``tx`` onto its tangle."""
        time = self.sim.now
        digest = tx.digest().value
        key = _seed_key(tx)
        parents = tuple(tx.parents)
        self._digest_to_key[digest] = key
        self._parents[digest] = parents
        if self.sampled(key):
            self._begin(key, node.node_id, time, digest=digest.hex())
        for parent in parents:
            parent_key = self._digest_to_key.get(parent)
            if parent_key is not None and parent_key in self._traces:
                self._record(parent_key, "approved", node.node_id, time, by=key)
        # Incremental cumulative weight: the new transaction adds one
        # unit to every (transitive) ancestor it approves.
        seen = set()
        frontier = list(parents)
        while frontier:
            ancestor = frontier.pop()
            if ancestor in seen or ancestor not in self._parents:
                continue
            seen.add(ancestor)
            weight = self._weights.get(ancestor, 0) + 1
            self._weights[ancestor] = weight
            frontier.extend(self._parents[ancestor])
            if weight == IOTA_CONFIRM_WEIGHT:
                ancestor_key = self._digest_to_key.get(ancestor)
                if ancestor_key is not None:
                    self._confirm(ancestor_key, node.node_id, time,
                                  weight=weight)

    def received(self, node, tx) -> None:
        """``node`` first took ``tx`` in from gossip."""
        key = self._digest_to_key.get(tx.digest().value)
        if key is not None and key in self._traces:
            self._record(key, "received", node.node_id, self.sim.now)


#: Backend name -> its collector, the roster of backends that can be
#: traced; each collector also carries its backend's phase order.
SPAN_COLLECTORS: Dict[str, Type[SpanCollector]] = {
    collector.backend: collector
    for collector in (DagSpanCollector, PbftSpanCollector, IotaSpanCollector)
}


# -- recording -----------------------------------------------------------------

class SpanRecorder(StreamWriter):
    """Trace one run: own its collector, write its stream.

    The runner-facing twin of
    :class:`~repro.telemetry.events.TelemetryRecorder`: the
    :class:`~repro.scenario.runner.ScenarioRunner` calls
    ``run_started`` / ``fault_applied`` / ``run_finished``; the
    recorder builds the records and keeps the canonical lines of the
    stream's body, which the terminal ``trace-end`` digest certifies.
    """

    version = SPAN_SCHEMA_VERSION

    def __init__(
        self,
        directory: PathLike,
        sample: float = DEFAULT_TRACE_SAMPLE,
    ) -> None:
        super().__init__(directory)
        self.sample = float(sample)
        self.blocks_traced = 0
        self._body: List[str] = []
        self._collector: Optional[SpanCollector] = None

    # -- the runner-facing hooks -------------------------------------------
    def run_started(self, spec, network) -> None:
        """Install the backend's collector, open the stream, emit ``trace-start``.

        ``network`` is the built deployment's transport; the collector
        becomes its ``spans``, which every lifecycle emission site
        reads.  No slot may have been driven yet.  A backend outside
        the roster is refused before a file is touched.
        """
        collector = SPAN_COLLECTORS.get(spec.backend)
        if collector is None:
            raise TelemetryError(
                f"the {spec.backend} backend has no span collector; block "
                f"tracing covers: {', '.join(sorted(SPAN_COLLECTORS))}"
            )
        self._collector = collector(spec, self.sample, network.sim)
        network.spans = self._collector
        header = self._open(spec)
        self._body = self._write(
            {"event": TRACE_START, **header, "sample": self.sample}
        )

    def fault_applied(self, event, slot: int, time: float) -> None:
        """Emit one stream-level ``fault`` record (structured nodes) and
        annotate every open trace with the fault."""
        self._body += self._write({
            "event": FAULT,
            "slot": int(slot),
            "kind": event.kind,
            "time": float(time),
            "nodes": sorted(int(n) for n in event.nodes),
            "detail": event.describe(),
        })
        self._collector.fault_applied(event, slot, time)

    def run_finished(self) -> None:
        """Drain the collector: every ``block-trace``, then ``trace-end``.

        Hundreds of traces land at once, so the body goes out in one
        append; the terminal's digest is taken over the lines written.
        """
        # Never started: nothing to drain, and ``_write`` says so.
        block_traces = self._collector.block_traces() if self._collector else []
        self._body += self._write(*block_traces)
        self.blocks_traced = len(block_traces)
        self._write({
            "event": TRACE_END,
            "blocks": len(block_traces),
            "spans": sum(len(record["spans"]) for record in block_traces),
            "digest": sha256_lines(self._body),
        })


def run_recorders(
    directory: Optional[PathLike], sample: Optional[float]
) -> Tuple[Optional[TelemetryRecorder], Optional[SpanRecorder]]:
    """One run's recorders: ``(telemetry, spans)``.

    Per-slot telemetry is recorded when ``directory`` is set, and block
    traces as well when ``sample`` is; without a directory neither is.
    """
    if not directory:
        return None, None
    spans = SpanRecorder(directory, sample=sample) if sample is not None else None
    return TelemetryRecorder(directory), spans

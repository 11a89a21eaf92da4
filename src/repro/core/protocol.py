"""Network orchestration and the §VI slot-driven simulation.

:class:`TwoLayerDagNetwork` assembles the full stack — simulator,
topology, transport, key registry and one
:class:`~repro.core.node.IoTNode` per topology node (honest or
malicious via behaviour injection); the logical DAG is a view over the
nodes' stores, built only when read.

:class:`SlotSimulation` drives the paper's evaluation workload: time is
divided into slots; each node generates at most one block per slot
(rate 1 block per ``period`` slots); from slot ``|V|`` onward, a node
that generates a block also validates one uniformly random block that
is at least ``|V|`` slots old ("when a node generates a block, it must
verify another block that is generated in the past using PoP").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.block import BlockId
from repro.core.config import ProtocolConfig
from repro.core.dag import LogicalDag
from repro.core.node import IoTNode, NodeBehavior
from repro.core.pop.validator import PopOutcome
from repro.crypto.keys import KeyRegistry
from repro.net.deployment import WiredDeployment
from repro.net.topology import Topology
from repro.sim.tracing import Tracer

#: Traffic categories used by the Fig. 8 breakdown.
CATEGORY_DAG = "dag"        # digest pushes (DAG construction)
CATEGORY_POP = "pop"        # REQ_CHILD / RPY_CHILD / block fetch (consensus)


def _pop_category(kind: str) -> str:
    if kind == "digest":
        return CATEGORY_DAG
    return CATEGORY_POP


class TwoLayerDagNetwork(WiredDeployment):
    """A fully wired 2LDAG deployment inside one simulator.

    Parameters
    ----------
    config:
        Protocol constants; :meth:`ProtocolConfig.paper_defaults` when
        omitted.
    topology:
        Physical graph; the paper's 50-node sequential geometric
        placement when omitted.
    seed:
        Master seed for every random stream (topology, jitter, WPS
        tie-breaks, workload choices).
    behaviors:
        Node id -> :class:`NodeBehavior` for non-honest nodes.
    """

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        topology: Optional[Topology] = None,
        seed: int = 0,
        behaviors: Optional[Mapping[int, NodeBehavior]] = None,
        tracer: Optional[Tracer] = None,
        per_hop_latency: float = 0.001,
    ) -> None:
        super().__init__(topology, seed, per_hop_latency, _pop_category, tracer)
        self.config = config if config is not None else ProtocolConfig.paper_defaults()
        self.registry = KeyRegistry()
        self._dag: Optional[LogicalDag] = None

        behaviors = behaviors or {}
        self.nodes: Dict[int, IoTNode] = {}
        for node_id in self.topology.node_ids:
            self.nodes[node_id] = IoTNode(
                node_id=node_id,
                network=self.network,
                registry=self.registry,
                config=self.config,
                behavior=behaviors.get(node_id),
                key_seed=seed,
                rng=self.streams.get(f"node:{node_id}"),
            )
        self.behavior_overrides: Set[int] = set(behaviors)

    # -- access ------------------------------------------------------------
    def node(self, node_id: int) -> IoTNode:
        """The :class:`IoTNode` with the given id."""
        return self.nodes[node_id]

    @property
    def dag(self) -> LogicalDag:
        """The logical layer ``Ḡ(B, L)`` over every node's stored headers.

        Built on first read and memoised on the stores' total length:
        stores are append-only, so an equal length is an equal view.
        Headers go in oldest first, ``(time, block_id)``, the order
        Eq. (11) breaks ties by.
        """
        stores = [node.store for node in self.nodes.values()]
        dag = self._dag
        if dag is None or len(dag) != sum(map(len, stores)):
            headers = sorted(
                (block.header for store in stores for block in store),
                key=attrgetter("time", "block_id"),
            )
            dag = self._dag = LogicalDag(self.config.hash_bits)
            for header in headers:
                dag.add_header(header)
        return dag

    @property
    def honest_ids(self) -> List[int]:
        """Nodes running the default behaviour."""
        return [n for n in self.node_ids if n not in self.behavior_overrides]

    def storage_bits(self) -> List[int]:
        """Per-node storage (``S_i`` + ``H_i``), Fig. 7's metric."""
        return [node.storage_bits() for node in self.nodes.values()]


_ORIGIN = attrgetter("origin")


class _PoolWithoutOrigin:
    """A sorted block pool minus one origin's blocks, as a lazy sequence.

    The pool is ordered by ``(origin, index)``, so an origin's blocks
    are one contiguous range found by bisection.  ``rng.choice`` needs
    only ``len`` and indexing, so it draws the same number and picks
    the same element as from the filtered list, without building it.
    """

    __slots__ = ("_pool", "_start", "_gap")

    def __init__(self, pool: List[BlockId], origin: int) -> None:
        self._pool = pool
        self._start = bisect_left(pool, origin, key=_ORIGIN)
        self._gap = bisect_right(pool, origin, lo=self._start, key=_ORIGIN) - self._start

    def __len__(self) -> int:
        return len(self._pool) - self._gap

    def __getitem__(self, position: int) -> BlockId:
        return self._pool[position if position < self._start else position + self._gap]


@dataclass
class SlotReport:
    """What happened during one simulated slot."""

    slot: int
    blocks_generated: List[BlockId] = field(default_factory=list)
    validations_started: int = 0


@dataclass
class ValidationRecord:
    """A completed PoP run with its workload context."""

    validator: int
    verifier: int
    block_id: BlockId
    slot_started: int
    outcome: Optional[PopOutcome]


class SlotSimulation:
    """The paper's time-slotted workload driver (§VI).

    Parameters
    ----------
    deployment:
        A wired :class:`TwoLayerDagNetwork`.
    generation_period:
        Slots between blocks per node.  An int applies to all nodes; a
        mapping sets per-node rates; the string ``"random-1-2"``
        reproduces Fig. 9's "one block per one or two time slots"
        (drawn once per node from the seeded stream).
    validate:
        Whether generating nodes also run PoP on an old block.
    fetch_body:
        Whether workload validations retrieve the target's body.  The
        paper's communication accounting counts headers only (Fig. 8),
        so the default is header-only verification.
    validation_min_age_slots:
        Minimum age of validation targets; defaults to ``|V|`` per the
        paper ("PoP can only verify a block that is generated before
        |V| time slots").
    intra_slot_jitter:
        Nodes generate at ``slot + U[0, jitter]`` so same-slot blocks
        can reference each other, as in the Fig. 3 walk-through.
    """

    def __init__(
        self,
        deployment: TwoLayerDagNetwork,
        generation_period=1,
        validate: bool = False,
        validation_min_age_slots: Optional[int] = None,
        intra_slot_jitter: float = 0.3,
        fetch_body: bool = False,
    ) -> None:
        self.deployment = deployment
        self.validate = validate
        self.fetch_body = fetch_body
        self.intra_slot_jitter = intra_slot_jitter
        node_ids = deployment.node_ids
        if validation_min_age_slots is None:
            validation_min_age_slots = len(node_ids)
        self.validation_min_age_slots = validation_min_age_slots

        rng = deployment.streams.get("workload")
        self._rng = rng
        if generation_period == "random-1-2":
            self.period: Dict[int, int] = {n: rng.choice([1, 2]) for n in node_ids}
        elif isinstance(generation_period, int):
            self.period = {n: generation_period for n in node_ids}
        else:
            self.period = {n: int(generation_period[n]) for n in node_ids}
        for node_id, period in self.period.items():
            if period < 1:
                raise ValueError(f"generation period of node {node_id} must be >= 1")

        #: (slot -> block ids generated in that slot)
        self.blocks_by_slot: Dict[int, List[BlockId]] = {}
        self.slot_reports: List[SlotReport] = []
        self.validations: List[ValidationRecord] = []
        #: Validations in flight, each with its ``verify_block`` handle.
        self._pending: List[Tuple[ValidationRecord, Any]] = []
        self.current_slot = -1
        # Validation-target pool: blocks of fully simulated slots, kept
        # sorted incrementally.  Re-sorting every eligible block on every
        # pick dominated large workloads (O(blocks · log) comparisons per
        # generated block); folding each slot in once as it ages past the
        # eligibility boundary makes a pick two bisections.
        self._eligible_sorted: List[BlockId] = []
        self._eligible_merged_slot: Optional[int] = None

    # -- scheduling one slot --------------------------------------------------
    def _schedule_slot(self, slot: int) -> SlotReport:
        deployment = self.deployment
        report = SlotReport(slot=slot)
        order = deployment.streams.shuffled(f"order:{slot}", deployment.node_ids)
        # Ad-hoc verifications between run() calls may have advanced the
        # clock past the nominal slot boundary; never schedule behind it.
        slot_base = max(float(slot), deployment.sim.now)
        for rank, node_id in enumerate(order):
            if slot % self.period[node_id] != 0:
                continue
            jitter = (
                self._rng.uniform(0.0, self.intra_slot_jitter)
                if self.intra_slot_jitter > 0
                else 0.0
            )
            deployment.sim.call_at(
                slot_base + jitter, self._generate, node_id, slot, report
            )
        return report

    def _generate(self, node_id: int, slot: int, report: SlotReport) -> None:
        """One node's slot work: build a block, maybe audit an old one."""
        node = self.deployment.node(node_id)
        if not node.online:
            return
        block = node.generate_block()
        self.blocks_by_slot.setdefault(slot, []).append(block.block_id)
        merged = self._eligible_merged_slot
        if merged is not None and slot <= merged:
            # Late generator (possible when intra_slot_jitter >= 1
            # pushes a slot-s event past slot s's run window): its
            # slot was already folded into the pool, so fold the
            # block in directly to keep the pool an exact snapshot.
            insort(self._eligible_sorted, block.block_id)
        report.blocks_generated.append(block.block_id)
        if self.validate:
            target = self._pick_validation_target(slot, exclude_origin=node_id)
            if target is not None:
                record = ValidationRecord(
                    validator=node_id,
                    verifier=target.origin,
                    block_id=target,
                    slot_started=slot,
                    outcome=None,  # filled on completion
                )
                run = node.verify_block(
                    target.origin, target, fetch_body=self.fetch_body
                )
                self._pending.append((record, run))
                report.validations_started += 1
                tracer = self.deployment.tracer
                if tracer.enabled:
                    tracer.emit(
                        self.deployment.sim.now, "pop.started", node_id,
                        block=str(target), verifier=target.origin,
                    )

    def _merge_eligible_through(self, boundary: int) -> None:
        """Fold blocks of fully simulated slots ≤ ``boundary`` into the pool.

        Only completed slots may be folded — their block lists can no
        longer grow, so the pool stays an exact sorted snapshot.  The
        boundary is monotone (slots only move forward), so each slot is
        merged exactly once.
        """
        merged = self._eligible_merged_slot
        if merged is not None and boundary <= merged:
            return
        lower = merged if merged is not None else None
        for s in sorted(self.blocks_by_slot):
            if s > boundary or (lower is not None and s <= lower):
                continue
            for block in self.blocks_by_slot[s]:
                insort(self._eligible_sorted, block)
        self._eligible_merged_slot = boundary

    def _pick_validation_target(self, slot: int, exclude_origin: int) -> Optional[BlockId]:
        """Uniform random block at least ``validation_min_age_slots`` old."""
        newest_eligible_slot = slot - self.validation_min_age_slots
        merge_boundary = min(newest_eligible_slot, self.current_slot)
        self._merge_eligible_through(merge_boundary)
        pool = self._eligible_sorted
        if merge_boundary < newest_eligible_slot:
            # Eligibility reaches into the in-flight slot (only possible
            # with a minimum age below one slot): scan it live, exactly
            # as the pre-pooled implementation did.
            pool = sorted(pool + [
                block
                for s, blocks in self.blocks_by_slot.items()
                if merge_boundary < s <= newest_eligible_slot
                for block in blocks
            ])
        eligible = _PoolWithoutOrigin(pool, exclude_origin)
        if not eligible:
            return None
        return self._rng.choice(eligible)

    # -- running -----------------------------------------------------------------
    def run(self, slots: int, start_slot: int = 0) -> None:
        """Simulate ``slots`` slots, scheduling generation/validation.

        May be called repeatedly to extend a simulation (the Fig. 7/8
        storage-vs-time curves snapshot between calls).
        """
        for slot in range(start_slot, start_slot + slots):
            if slot <= self.current_slot:
                raise ValueError(f"slot {slot} already simulated")
            report = self._schedule_slot(slot)
            self.slot_reports.append(report)
            self.deployment.sim.run(
                until=max(float(slot + 1), self.deployment.sim.now + 1.0)
            )
            self.current_slot = slot
            self._harvest_completed()

    def run_until_quiet(self, max_extra_time: float = 50.0) -> None:
        """Drain in-flight validations after the last scheduled slot."""
        self.deployment.sim.run(until=self.deployment.sim.now + max_extra_time)
        self._harvest_completed()

    def _harvest_completed(self) -> None:
        tracer = self.deployment.tracer
        still_pending: List[Tuple[ValidationRecord, Any]] = []
        for record, run in self._pending:
            if run.triggered:
                record.outcome = run.value
                self.validations.append(record)
                if tracer.enabled:
                    # Emitted at the validation's own finish time (the
                    # outcome brackets it), not the harvest boundary.
                    tracer.emit(
                        record.outcome.finished_at, "pop.completed",
                        record.validator,
                        block=str(record.block_id),
                        success=record.outcome.success,
                        started=record.outcome.started_at,
                    )
            else:
                still_pending.append((record, run))
        self._pending = still_pending

    # -- results ----------------------------------------------------------------
    @property
    def pending_validations(self) -> int:
        """Validations still in flight."""
        return len(self._pending)

    def completed_outcomes(self) -> List[PopOutcome]:
        """Outcomes of all finished validations."""
        return [r.outcome for r in self.validations]

    def success_rate(self) -> float:
        """Fraction of finished validations that reached consensus."""
        outcomes = self.completed_outcomes()
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.success) / len(outcomes)

    def total_blocks(self) -> int:
        """Blocks generated so far (Proposition 1 cross-check)."""
        return sum(len(b) for b in self.blocks_by_slot.values())

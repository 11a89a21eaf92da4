"""Pluggable ledger backends: one scenario, three ledgers.

A :class:`LedgerBackend` is what a :class:`~repro.scenario.runner.
ScenarioRunner` drives.  The runner owns the *schedule* (sample slots,
fault boundaries, result assembly); the backend owns the *ledger*.

The contract has two halves.  A concrete backend supplies what only
its ledger knows:

* :meth:`~LedgerBackend.build` — construct the ledger's
  :class:`~repro.net.deployment.WiredDeployment` from the spec and
  name it :attr:`~LedgerBackend.wired`;
* :meth:`~LedgerBackend.advance_slots` (and
  :meth:`~LedgerBackend.finalize` if work stays in flight after the
  last slot) — drive the slot workload;
* :meth:`~LedgerBackend.crash_nodes` /
  :meth:`~LedgerBackend.rejoin_nodes` — the two ledger-specific fault
  kinds, declared in ``fault_capabilities``;
* :meth:`~LedgerBackend.total_blocks`,
  :meth:`~LedgerBackend.trace_lines` and
  :meth:`~LedgerBackend.ledger_counters` — what the ledger committed,
  as a count, as canonical text and as telemetry counters;
* ``dag_categories`` / ``pop_categories`` — which traffic-ledger
  categories Fig. 8 charges to DAG construction and to consensus.

Everything the shared wireless substrate can answer is implemented
once, here, by reading ``wired``: the clock, the event count, the
storage / traffic series (:meth:`~LedgerBackend.sample`), the per-node
finals (:meth:`~LedgerBackend.collect`), the trace digest, and the
partition / heal / link-degrade faults, which act on ``wired.network``.

Three backends are registered — ``2ldag`` (the paper's two-layer DAG),
``pbft`` (:class:`~repro.baselines.pbft.cluster.PbftCluster`) and
``iota`` (:class:`~repro.baselines.iota.node.IotaNetwork`) — all under
the same slot workload: every live node submits one ``C``-bit block per
slot.  Each draws its topology from the scenario's named random
streams, so one master seed yields the identical physical graph on all
three — the property that makes three-ledger scoreboards
apples-to-apples.  Registering a new backend (docs/scenarios.md walks
through a complete one)::

    @register_backend
    class MyLedgerBackend(LedgerBackend):
        name = "myledger"
        ...

Backends must be registered before a spec naming them validates
(:func:`repro.scenario.spec.known_backend_names` reads this registry).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Tuple, Type

from repro.canonical import sha256_lines
from repro.faults.engine import FaultCapabilityError
from repro.faults.spec import (
    FAULT_KINDS,
    HEAL,
    LINK_DEGRADE,
    NODE_CRASH,
    NODE_REJOIN,
    PARTITION,
    FaultError,
    FaultEvent,
)
from repro.metrics.units import bits_to_mb, bits_to_mbit
from repro.net.deployment import WiredDeployment
from repro.net.linkmodels import LinkDegradation, partition_drop_rule
from repro.net.topology import (
    Topology,
    grid_topology,
    random_geometric_topology,
    ring_topology,
    sequential_geometric_topology,
)
from repro.scenario.spec import (
    COALITION_KINDS,
    DEFAULT_BACKEND,
    ScenarioSpec,
    TopologySpec,
)
from repro.sim.rng import RandomStreams


def build_topology(spec: TopologySpec, streams: RandomStreams) -> Topology:
    """Materialize a :class:`TopologySpec` (random kinds draw from ``streams``)."""
    if spec.kind == "sequential-geometric":
        return sequential_geometric_topology(
            node_count=spec.node_count,
            area_side=spec.area_side,
            comm_range=spec.comm_range,
            streams=streams,
        )
    if spec.kind == "grid":
        return grid_topology(
            spec.rows, spec.cols, spacing=spec.spacing, comm_range=spec.comm_range
        )
    if spec.kind == "ring":
        return ring_topology(
            spec.node_count, spacing=spec.spacing, comm_range=spec.comm_range
        )
    if spec.kind == "random-geometric":
        return random_geometric_topology(
            node_count=spec.node_count,
            area_side=spec.area_side,
            comm_range=spec.comm_range,
            streams=streams,
        )
    raise ValueError(f"unknown topology kind {spec.kind!r}")  # pragma: no cover


def build_config(spec: ScenarioSpec):
    """The :class:`~repro.core.config.ProtocolConfig` a spec describes."""
    from repro.core.config import ProtocolConfig

    return ProtocolConfig(
        body_bits=spec.protocol.body_bits,
        gamma=spec.protocol.gamma,
        reply_timeout=spec.protocol.reply_timeout,
        puzzle_difficulty_bits=spec.protocol.puzzle_difficulty_bits,
    )


@dataclass
class BackendMetrics:
    """The backend-measured totals a :class:`ScenarioResult` reports."""

    total_blocks: int
    validations: int = 0
    success_rate: float = 1.0
    per_node_storage_mb: List[float] = field(default_factory=list)
    per_node_traffic_mb: List[float] = field(default_factory=list)
    events: int = 0
    sim_now: float = 0.0


class LedgerBackend(ABC):
    """build / advance / finish / measure one ledger implementation.

    The driving contract (enforced by the runner): :meth:`build` once,
    then :meth:`advance_slots` over contiguous slot ranges in order,
    then :meth:`finalize` once, after which :meth:`collect` and
    :meth:`trace_digest` describe the finished run.  :meth:`sample` may
    be called at any slot boundary, and :meth:`apply_fault` at any
    boundary between driven ranges (the fault engine's dispatch point).

    Every measurement below is a *pure read* of :attr:`wired` — no lazy
    materialization, no RNG draws, no event scheduling — which is what
    keeps telemetry-enabled runs byte-identical to disabled ones (the
    determinism no-op contract, CI-gated).
    """

    #: Registry name; also the value of ``ScenarioSpec.backend``.
    name: ClassVar[str] = ""

    #: Fault event kinds this backend honours; spec validation checks a
    #: scenario's schedule (or compiled churn) against this roster, and
    #: :meth:`apply_fault` re-checks at dispatch time so a mid-run
    #: schedule swap cannot smuggle an unsupported event through.
    fault_capabilities: ClassVar[Tuple[str, ...]] = ()

    #: Traffic-ledger categories behind Fig. 8's two series: bits spent
    #: building the DAG and bits spent on consensus.
    dag_categories: ClassVar[Tuple[str, ...]] = ()
    pop_categories: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        #: The scenario's own streams (topology, coalitions, ``faults``);
        #: the deployment draws from a second object of the same seed.
        self.streams: Optional[RandomStreams] = None
        #: The built ledger — the one object every read below goes to.
        self.wired: Optional[WiredDeployment] = None
        self._partition_rule = None
        self._degradation: Optional[LinkDegradation] = None

    def _scenario_topology(self) -> Topology:
        """Seed the scenario streams and draw the spec's topology from them."""
        self.streams = RandomStreams(self.spec.seed)
        return build_topology(self.spec.topology, self.streams)

    # -- lifecycle -----------------------------------------------------------
    @abstractmethod
    def build(self) -> None:
        """Construct the deployment and workload driver; set :attr:`wired`."""

    @abstractmethod
    def advance_slots(self, start_slot: int, count: int) -> None:
        """Simulate ``count`` slots beginning at ``start_slot``."""

    def finalize(self) -> None:
        """Drain in-flight work after the last slot was driven.

        A no-op by default: a workload that settles per driven chunk
        leaves nothing in flight.
        """

    # -- fault hooks --------------------------------------------------------
    def apply_fault(self, event: FaultEvent) -> None:
        """Dispatch one due fault event to the kind-specific hook."""
        if event.kind not in self.fault_capabilities:
            raise FaultCapabilityError(
                backend=self.name, kind=event.kind,
                capabilities=self.fault_capabilities,
            )
        if self.wired is None:
            raise FaultError(
                f"the {self.name} backend has no wired deployment to apply "
                f"{event.kind!r} to: build() must set it first"
            )
        if event.kind == NODE_CRASH:
            self.crash_nodes(event.nodes)
        elif event.kind == NODE_REJOIN:
            self.rejoin_nodes(event.nodes, forgive=event.forgive)
        elif event.kind == PARTITION:
            self.set_partition(event.groups)
        elif event.kind == HEAL:
            self.heal_partition()
        elif event.kind == LINK_DEGRADE:
            self.degrade_links(event.loss, event.extra_latency)

    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        """Take the named nodes down (ledger-specific semantics).

        Only reachable when a backend *declares* the capability but
        forgot the hook (``apply_fault`` gates undeclared kinds first),
        so the error names the missing implementation, not the roster.
        """
        raise FaultError(
            f"the {self.name} backend declares {NODE_CRASH!r} capability "
            f"but implements no crash_nodes()"
        )

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        """Bring previously crashed nodes back."""
        raise FaultError(
            f"the {self.name} backend declares {NODE_REJOIN!r} capability "
            f"but implements no rejoin_nodes()"
        )

    def set_partition(self, groups) -> None:
        """Split the network along ``groups`` (cross-group hops drop)."""
        self._partition_rule = partition_drop_rule(groups)
        self.wired.network.add_drop_rule(self._partition_rule)

    def heal_partition(self) -> None:
        """Remove the active partition (schedule validation ensures one)."""
        if self._partition_rule is not None:
            self.wired.network.remove_drop_rule(self._partition_rule)
            self._partition_rule = None

    def degrade_links(self, loss: float, extra_latency: float) -> None:
        """Replace the active link degradation (zeros restore health).

        The loss rule draws from the scenario's named ``faults`` stream
        so degraded runs stay deterministic per master seed without
        perturbing any existing stream.
        """
        if self._degradation is not None:
            self._degradation.revoke()
            self._degradation = None
        if loss > 0 or extra_latency > 0:
            self._degradation = LinkDegradation(
                self.wired.network, loss, extra_latency,
                rng=self.streams.get("faults"),
            )

    # -- what only the ledger knows -----------------------------------------
    @abstractmethod
    def total_blocks(self) -> int:
        """Blocks (requests, transactions) the ledger committed so far."""

    @abstractmethod
    def trace_lines(self) -> List[str]:
        """Canonical text lines of everything observable about the run."""

    def ledger_counters(self) -> Dict[str, float]:
        """The ledger's own monotonic counters for telemetry records."""
        return {}

    def _clock_lines(self) -> List[str]:
        """The kernel's share of a trace: events processed, final clock."""
        sim = self.wired.sim
        return [f"events {sim.processed_count}", f"now {sim.now!r}"]

    # -- what the substrate answers -----------------------------------------
    def sample(self) -> Dict[str, float]:
        """One point of the storage/traffic series at the current slot."""
        wired = self.wired
        nodes, traffic = wired.node_ids, wired.traffic
        return {
            "storage_mb": bits_to_mb(wired.mean_storage_bits()),
            "traffic_mbit": bits_to_mbit(traffic.mean_tx_bits(nodes)),
            "traffic_dag_mbit": bits_to_mbit(
                traffic.mean_tx_bits(nodes, self.dag_categories)
            ),
            "traffic_pop_mbit": bits_to_mbit(
                traffic.mean_tx_bits(nodes, self.pop_categories)
            ),
        }

    def collect(self) -> BackendMetrics:
        """Totals and per-node finals of the finished run."""
        wired = self.wired
        return BackendMetrics(
            total_blocks=self.total_blocks(),
            per_node_storage_mb=[bits_to_mb(b) for b in wired.storage_bits()],
            per_node_traffic_mb=[
                bits_to_mb(wired.traffic.total_bits(n)) for n in wired.node_ids
            ],
            events=wired.sim.processed_count,
            sim_now=wired.sim.now,
        )

    def telemetry_counters(self) -> Dict[str, float]:
        """:meth:`ledger_counters` plus the kernel's event count."""
        return {
            **self.ledger_counters(),
            "events": float(self.wired.sim.processed_count),
        }

    def current_time(self) -> float:
        """The kernel's simulated clock right now."""
        return float(self.wired.sim.now)

    def trace_digest(self) -> str:
        """Hex SHA-256 over :meth:`trace_lines`."""
        return sha256_lines(self.trace_lines())


#: name -> backend class.
_BACKENDS: Dict[str, Type[LedgerBackend]] = {}


def register_backend(cls: Type[LedgerBackend]) -> Type[LedgerBackend]:
    """Register ``cls`` under its ``name`` (class decorator)."""
    if not cls.name:
        raise ValueError(f"backend class {cls.__name__} declares no name")
    existing = _BACKENDS.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"ledger backend {cls.name!r} is already registered")
    _BACKENDS[cls.name] = cls
    return cls


def backend_names() -> List[str]:
    """All registered backend names, default first then sorted."""
    others = sorted(name for name in _BACKENDS if name != DEFAULT_BACKEND)
    return [DEFAULT_BACKEND] + others if DEFAULT_BACKEND in _BACKENDS else others


def backend_fault_capabilities(name: str) -> Tuple[str, ...]:
    """The fault event kinds the named backend declares support for."""
    return tuple(_BACKENDS[name].fault_capabilities)


def create_backend(spec: ScenarioSpec) -> LedgerBackend:
    """The backend instance ``spec.backend`` names (spec validation
    guarantees the name is registered)."""
    return _BACKENDS[spec.backend](spec)


# -- the paper's protocol ------------------------------------------------------

@register_backend
class TwoLayerDagBackend(LedgerBackend):
    """The 2LDAG deployment plus its slot workload.

    The construction recipe is deliberately frozen: one
    :class:`RandomStreams` per scenario seeds the topology and the
    adversary coalitions, and the same seed masters the deployment's
    internal streams.  Any change to this ordering changes seeded
    traces, which the golden-trace determinism test pins.
    """

    name = DEFAULT_BACKEND
    fault_capabilities = FAULT_KINDS
    dag_categories = ("dag",)   # digest pushes
    pop_categories = ("pop",)   # REQ_CHILD / RPY_CHILD / block fetch

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self.deployment = None
        self.workload = None
        self.behaviors: Dict[int, object] = {}
        self.sybil_identities: List[object] = []

    def build(self) -> None:
        from repro.attacks.behaviors import (
            CorruptResponder,
            EquivocatingResponder,
            SelfishNode,
            SilentResponder,
        )
        from repro.attacks.eclipse import eclipse_victim
        from repro.attacks.majority import make_coalition
        from repro.attacks.sybil import sybil_identities
        from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork

        behavior_factories: Dict[str, Callable[[], object]] = {
            "silent": SilentResponder,
            "corrupt": CorruptResponder,
            "equivocating": EquivocatingResponder,
            "selfish": SelfishNode,
        }

        spec = self.spec
        topology = self._scenario_topology()

        behaviors: Dict[int, object] = {}
        drop_rules = []
        for adversary in spec.adversaries:
            if adversary.kind in COALITION_KINDS:
                coalition = make_coalition(
                    topology,
                    adversary.count,
                    self.streams,
                    stream_name=adversary.stream_name,
                    behavior_factory=behavior_factories[adversary.kind],
                    protect=sorted(set(adversary.protect) | set(behaviors)),
                )
                behaviors.update(coalition)
            elif adversary.kind == "eclipse":
                drop_rules.append(eclipse_victim(adversary.victim))
            elif adversary.kind == "sybil":
                self.sybil_identities.extend(
                    sybil_identities(adversary.attacker, adversary.count)
                )
        self.behaviors = behaviors

        self.wired = self.deployment = TwoLayerDagNetwork(
            config=build_config(spec),
            topology=topology,
            seed=spec.seed,
            behaviors=behaviors or None,
            per_hop_latency=spec.per_hop_latency,
        )
        for rule in drop_rules:
            self.deployment.network.add_drop_rule(rule)

        workload = spec.workload
        self.workload = SlotSimulation(
            self.deployment,
            generation_period=workload.generation_period,
            validate=workload.validate,
            validation_min_age_slots=workload.validation_min_age_slots,
            intra_slot_jitter=workload.intra_slot_jitter,
            fetch_body=workload.fetch_body,
        )

    def advance_slots(self, start_slot: int, count: int) -> None:
        self.workload.run(count, start_slot=start_slot)

    def finalize(self) -> None:
        if self.spec.workload.run_until_quiet:
            self.workload.run_until_quiet(
                max_extra_time=self.spec.workload.quiet_time
            )

    def collect(self) -> BackendMetrics:
        metrics = super().collect()
        metrics.validations = len(self.workload.validations)
        metrics.success_rate = self.workload.success_rate()
        return metrics

    def total_blocks(self) -> int:
        return self.workload.total_blocks()

    def trace_lines(self) -> List[str]:
        # Which blocks each slot generated, then every PoP outcome in
        # start order.  A plain line-oriented text format, stable across
        # Python versions: no dict iteration order dependence, and the
        # only ``repr`` is of the clock value the kernel itself quantises.
        workload = self.workload
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
        return lines + self._clock_lines() + [f"blocks {workload.total_blocks()}"]

    def ledger_counters(self) -> Dict[str, float]:
        from repro.core.pop.messages import KIND_REQ_CHILD, KIND_RPY_CHILD

        traffic = self.deployment.traffic
        return {
            "blocks": float(self.total_blocks()),
            "validations": float(len(self.workload.validations)),
            "pop_batches": float(traffic.message_count(KIND_REQ_CHILD)),
            "pop_replies": float(traffic.message_count(KIND_RPY_CHILD)),
        }

    # -- faults ------------------------------------------------------------
    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.deployment.node(node_id).go_offline()

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        for node_id in node_ids:
            self.deployment.node(node_id).come_online()
            if forgive:
                for other in self.deployment.node_ids:
                    self.deployment.node(other).record_cooperation(node_id)


# -- baselines -----------------------------------------------------------------

@register_backend
class PbftBackend(LedgerBackend):
    """The PBFT cluster baseline driven by the scenario workload.

    ``workload.validate``/``fetch_body`` have no PBFT equivalent and
    are ignored; every committed request already replicates its block
    to all replicas.  All traffic is consensus traffic, so the DAG
    series is zero and the PoP series carries the total.
    """

    name = "pbft"
    fault_capabilities = FAULT_KINDS
    pop_categories = ("pbft",)

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self.cluster = None

    def build(self) -> None:
        from repro.baselines.pbft.cluster import PbftCluster

        spec = self.spec
        self.wired = self.cluster = PbftCluster(
            topology=self._scenario_topology(),
            payload_bits=spec.protocol.body_bits,
            seed=spec.seed,
            view_change_timeout=spec.pbft.view_change_timeout,
            per_hop_latency=spec.per_hop_latency,
        )

    def advance_slots(self, start_slot: int, count: int) -> None:
        # run_slots settles the three-phase pipeline after the chunk, so
        # a sample taken at the boundary sees committed state.
        self.cluster.run_slots(count, settle_time=self.spec.pbft.settle_time)

    # -- faults ------------------------------------------------------------
    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        self.cluster.crash(node_ids)

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        # PBFT keeps no cooperation blacklist; ``forgive`` is meaningless.
        self.cluster.recover(node_ids)

    def _reference_replicas(self):
        """Live replicas, or all of them when the whole cluster is down
        (a schedule may legitimately end mid-crash)."""
        return self.cluster.live_replicas() or list(self.cluster.replicas.values())

    def total_blocks(self) -> int:
        return max(r.chain.height for r in self._reference_replicas())

    def trace_lines(self) -> List[str]:
        cluster = self.cluster
        longest = max(
            (r.chain for r in self._reference_replicas()), key=lambda c: c.height
        )
        lines = [
            f"commit {sequence}: {longest.block_at(sequence).digest().hex()}"
            for sequence in range(longest.height)
        ]
        for node_id, replica in cluster.replicas.items():
            lines.append(
                f"replica {node_id} height {replica.chain.height} "
                f"crashed={replica.crashed}"
            )
        return lines + self._clock_lines()

    def ledger_counters(self) -> Dict[str, float]:
        return {"consensus_rounds": float(self.total_blocks())}


@register_backend
class IotaBackend(LedgerBackend):
    """The IOTA tangle baseline driven by the scenario workload.

    Each node issues one ``C``-bit transaction per slot and
    gossip-floods it.  All traffic is DAG-construction traffic, so the
    PoP series is zero.
    """

    name = "iota"
    fault_capabilities = FAULT_KINDS
    dag_categories = ("iota",)

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self.network = None

    def build(self) -> None:
        from repro.baselines.iota.node import IotaNetwork

        spec = self.spec
        self.wired = self.network = IotaNetwork(
            topology=self._scenario_topology(),
            payload_bits=spec.protocol.body_bits,
            seed=spec.seed,
            tip_strategy=spec.iota.tip_strategy,
            mcmc_alpha=spec.iota.mcmc_alpha,
            per_hop_latency=spec.per_hop_latency,
        )

    def advance_slots(self, start_slot: int, count: int) -> None:
        self.network.run_slots(count, settle_time=self.spec.iota.settle_time)

    # -- faults ------------------------------------------------------------
    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.network.nodes[node_id].online = False

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        # The tangle keeps no cooperation blacklist; ``forgive`` is a
        # no-op.  A rejoined node resumes issuing and gossiping but
        # does not fetch the transactions it missed (no solidification
        # protocol in this baseline) — the honest cost the fault
        # experiments measure.
        for node_id in node_ids:
            self.network.nodes[node_id].online = True

    def total_blocks(self) -> int:
        return max(len(node.tangle) for node in self.network.nodes.values())

    def trace_lines(self) -> List[str]:
        nodes = self.network.nodes
        reference = max((node.tangle for node in nodes.values()), key=len)
        lines = [
            f"tx {digest_hex}"
            for digest_hex in sorted(
                transaction.digest().hex()
                for transaction in reference.transactions()
            )
        ]
        for node_id, node in nodes.items():
            lines.append(f"node {node_id} tangle {len(node.tangle)}")
        lines.append(f"tips {len(reference.tips())}")
        return lines + self._clock_lines()

    def ledger_counters(self) -> Dict[str, float]:
        return {"tangle_size": float(self.total_blocks())}

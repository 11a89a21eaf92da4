"""Pluggable ledger backends: one scenario, three ledgers.

A :class:`LedgerBackend` is what a :class:`~repro.scenario.runner.
ScenarioRunner` drives: it builds a deployment from a
:class:`~repro.scenario.spec.ScenarioSpec`, advances it slot by slot,
drains it, snapshots the storage/traffic series and reports a
canonical trace digest.  The runner owns the *schedule* (sample slots,
fault boundaries, result assembly); the backend owns the *ledger* and
declares which fault event kinds it honours (``fault_capabilities``)
via the hooks the :class:`~repro.faults.engine.FaultEngine` dispatches
through — crash/rejoin are ledger-specific, while partition/heal and
link degradation come for free from the shared wireless substrate
(:meth:`LedgerBackend._fault_network`).

Three backends are registered:

* ``2ldag`` — the paper's two-layer DAG.  This class is a verbatim
  move of the runner's original wiring: construction order, stream
  names and the slot-driving calls are unchanged, so all seeded
  traces (the golden determinism digest included) stay byte-identical.
* ``pbft`` — the :class:`~repro.baselines.pbft.cluster.PbftCluster`
  baseline driven by the same slot workload (every live node submits
  one ``C``-bit request per slot).
* ``iota`` — the :class:`~repro.baselines.iota.node.IotaNetwork`
  gossip-flooded tangle under the same issuance workload.

All three reseed deterministically from the scenario's named random
streams, so one master seed yields the identical topology across
backends — the property that makes three-ledger scoreboards
apples-to-apples.  Registering a new backend::

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
    """

    #: Registry name; also the value of ``ScenarioSpec.backend``.
    name: ClassVar[str] = ""

    #: Fault event kinds this backend honours; spec validation checks a
    #: scenario's schedule (or compiled churn) against this roster, and
    #: :meth:`apply_fault` re-checks at dispatch time so a mid-run
    #: schedule swap cannot smuggle an unsupported event through.
    fault_capabilities: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.streams: Optional[RandomStreams] = None
        self._partition_rule = None
        self._degradation: Optional[LinkDegradation] = None
        self._span_collector = None

    # -- fault hooks --------------------------------------------------------
    def apply_fault(self, event: FaultEvent) -> None:
        """Dispatch one due fault event to the kind-specific hook."""
        if event.kind not in self.fault_capabilities:
            raise FaultCapabilityError(
                backend=self.name, kind=event.kind,
                capabilities=self.fault_capabilities,
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

    def _fault_network(self):
        """The :class:`~repro.net.transport.Network` link faults act on.

        Backends whose deployment rides the shared wireless substrate
        return it here and inherit working partition/heal/link-degrade
        hooks for free.
        """
        raise FaultError(
            f"the {self.name} backend declares link-level fault "
            f"capabilities but implements no _fault_network()"
        )

    def set_partition(self, groups) -> None:
        """Split the network along ``groups`` (cross-group hops drop)."""
        network = self._fault_network()
        self._partition_rule = partition_drop_rule(groups)
        network.add_drop_rule(self._partition_rule)

    def heal_partition(self) -> None:
        """Remove the active partition (schedule validation ensures one)."""
        if self._partition_rule is not None:
            self._fault_network().remove_drop_rule(self._partition_rule)
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
                self._fault_network(), loss, extra_latency,
                rng=self.streams.get("faults"),
            )

    @abstractmethod
    def build(self) -> None:
        """Construct the deployment (topology, nodes, workload driver)."""

    @abstractmethod
    def advance_slots(self, start_slot: int, count: int) -> None:
        """Simulate ``count`` slots beginning at ``start_slot``."""

    @abstractmethod
    def finalize(self) -> None:
        """Drain in-flight work after the last slot was driven."""

    @abstractmethod
    def sample(self) -> Dict[str, float]:
        """One point of the storage/traffic series at the current slot."""

    @abstractmethod
    def collect(self) -> BackendMetrics:
        """Totals and per-node finals of the finished run."""

    @abstractmethod
    def trace_digest(self) -> str:
        """Hex SHA-256 over everything observable about the run."""

    # -- telemetry (pure observation) ---------------------------------------
    def telemetry_counters(self) -> Dict[str, float]:
        """Backend-specific monotonic counters for telemetry records.

        Implementations must be *pure reads* of existing state — no
        lazy materialization, no RNG draws, no event scheduling — which
        is what keeps telemetry-enabled runs byte-identical to disabled
        ones (the determinism no-op contract, CI-gated).
        """
        return {}

    def current_time(self) -> float:
        """The backend's simulated clock right now (pure read)."""
        return 0.0

    # -- block-lifecycle tracing (pure observation) -------------------------
    def enable_block_tracing(self, sample_rate: float) -> None:
        """Attach a span collector to the deployment's tracer.

        Must be called after :meth:`build` and before any slots are
        driven.  Like :meth:`telemetry_counters` this is strictly
        read-side: collectors subscribe to emissions the deployment
        already makes, never draw from existing random streams, and
        never schedule events — so seeded trace digests stay
        byte-identical with tracing on or off (the determinism no-op
        contract, pinned per backend).  Idempotent.
        """
        if self._span_collector is not None:
            return
        collector = self._make_span_collector(sample_rate)
        collector.attach(self._trace_tracer())
        self._span_collector = collector

    def _make_span_collector(self, sample_rate: float):
        """The backend-specific :class:`~repro.telemetry.spans.SpanCollector`."""
        raise NotImplementedError(
            f"the {self.name} backend does not support block tracing"
        )

    def _trace_tracer(self):
        """The deployment :class:`~repro.sim.tracing.Tracer` to subscribe to."""
        raise NotImplementedError(
            f"the {self.name} backend does not support block tracing"
        )

    def trace_block_events(self) -> List[Dict[str, object]]:
        """Every sampled block's finished span tree (pure drain).

        Empty when tracing was never enabled, so callers need no
        enabled-state branching.
        """
        if self._span_collector is None:
            return []
        return self._span_collector.block_traces()

    def trace_fault(self, event: FaultEvent, slot: int) -> None:
        """Annotate open traces with an applied fault (observer hook)."""
        if self._span_collector is not None:
            self._span_collector.fault_applied(event, slot, self.current_time())


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
        self.streams = RandomStreams(spec.seed)
        topology = build_topology(spec.topology, self.streams)

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

        self.deployment = TwoLayerDagNetwork(
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

    def sample(self) -> Dict[str, float]:
        from repro.core.protocol import CATEGORY_DAG, CATEGORY_POP

        deployment = self.deployment
        nodes = deployment.node_ids
        ledger = deployment.traffic
        return {
            "storage_mb": bits_to_mb(deployment.mean_storage_bits()),
            "traffic_mbit": bits_to_mbit(ledger.mean_tx_bits(nodes)),
            "traffic_dag_mbit": bits_to_mbit(
                ledger.mean_tx_bits(nodes, [CATEGORY_DAG])
            ),
            "traffic_pop_mbit": bits_to_mbit(
                ledger.mean_tx_bits(nodes, [CATEGORY_POP])
            ),
        }

    def collect(self) -> BackendMetrics:
        deployment, workload = self.deployment, self.workload
        return BackendMetrics(
            total_blocks=workload.total_blocks(),
            validations=len(workload.validations),
            success_rate=workload.success_rate(),
            per_node_storage_mb=[
                bits_to_mb(node.storage_bits())
                for node in deployment.nodes.values()
            ],
            per_node_traffic_mb=[
                bits_to_mb(deployment.traffic.total_bits(n))
                for n in deployment.node_ids
            ],
            events=deployment.sim.processed_count,
            sim_now=deployment.sim.now,
        )

    def trace_digest(self) -> str:
        from repro.bench.trace import slot_simulation_trace_digest

        return slot_simulation_trace_digest(self.workload)

    def telemetry_counters(self) -> Dict[str, float]:
        from repro.core.pop.messages import KIND_REQ_CHILD, KIND_RPY_CHILD

        workload, deployment = self.workload, self.deployment
        return {
            "blocks": float(workload.total_blocks()),
            "validations": float(len(workload.validations)),
            "pop_batches": float(
                deployment.traffic.message_count(KIND_REQ_CHILD)
            ),
            "pop_replies": float(
                deployment.traffic.message_count(KIND_RPY_CHILD)
            ),
            "events": float(deployment.sim.processed_count),
        }

    def current_time(self) -> float:
        return float(self.deployment.sim.now)

    def _make_span_collector(self, sample_rate: float):
        from repro.telemetry.spans import DagSpanCollector

        return DagSpanCollector(self.spec.seed, sample_rate)

    def _trace_tracer(self):
        return self.deployment.tracer

    # -- faults ------------------------------------------------------------
    # (the crash/rejoin bodies are the original churn hooks verbatim,
    # which is what keeps compiled ChurnSpec traces byte-identical)
    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.deployment.node(node_id).go_offline()

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        for node_id in node_ids:
            self.deployment.node(node_id).come_online()
            if forgive:
                for other in self.deployment.node_ids:
                    self.deployment.node(other).record_cooperation(node_id)

    def _fault_network(self):
        return self.deployment.network


# -- baselines -----------------------------------------------------------------

@register_backend
class PbftBackend(LedgerBackend):
    """The PBFT cluster baseline driven by the scenario workload.

    The topology is rebuilt from the scenario's named streams — one
    master seed gives the identical physical graph the 2LDAG run saw.
    ``workload.validate``/``fetch_body`` have no PBFT equivalent and
    are ignored; every committed request already replicates its block
    to all replicas.  All traffic is consensus traffic, so the DAG
    series is zero and the PoP series carries the total.
    """

    name = "pbft"
    fault_capabilities = FAULT_KINDS

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self.cluster = None

    def build(self) -> None:
        from repro.baselines.pbft.cluster import PbftCluster

        spec = self.spec
        self.streams = RandomStreams(spec.seed)
        topology = build_topology(spec.topology, self.streams)
        self.cluster = PbftCluster(
            topology=topology,
            payload_bits=spec.protocol.body_bits,
            seed=spec.seed,
            view_change_timeout=spec.pbft.view_change_timeout,
            per_hop_latency=spec.per_hop_latency,
        )

    def advance_slots(self, start_slot: int, count: int) -> None:
        # run_slots settles the three-phase pipeline after the chunk, so
        # a sample taken at the boundary sees committed state.
        self.cluster.run_slots(count, settle_time=self.spec.pbft.settle_time)

    def finalize(self) -> None:
        pass  # every driven chunk already settled

    # -- faults ------------------------------------------------------------
    def crash_nodes(self, node_ids: Iterable[int]) -> None:
        self.cluster.crash(node_ids)

    def rejoin_nodes(self, node_ids: Iterable[int], forgive: bool) -> None:
        # PBFT keeps no cooperation blacklist; ``forgive`` is meaningless.
        self.cluster.recover(node_ids)

    def _fault_network(self):
        return self.cluster.network

    def sample(self) -> Dict[str, float]:
        cluster = self.cluster
        total = bits_to_mbit(cluster.traffic.mean_tx_bits(cluster.node_ids))
        return {
            "storage_mb": bits_to_mb(cluster.mean_storage_bits()),
            "traffic_mbit": total,
            "traffic_dag_mbit": 0.0,
            "traffic_pop_mbit": total,
        }

    def _reference_replicas(self):
        """Live replicas, or all of them when the whole cluster is down
        (a schedule may legitimately end mid-crash)."""
        return self.cluster.live_replicas() or list(self.cluster.replicas.values())

    def collect(self) -> BackendMetrics:
        cluster = self.cluster
        return BackendMetrics(
            total_blocks=max(r.chain.height for r in self._reference_replicas()),
            per_node_storage_mb=[
                bits_to_mb(cluster.replicas[n].storage_bits())
                for n in cluster.node_ids
            ],
            per_node_traffic_mb=[
                bits_to_mb(cluster.traffic.total_bits(n))
                for n in cluster.node_ids
            ],
            events=cluster.sim.processed_count,
            sim_now=cluster.sim.now,
        )

    def trace_digest(self) -> str:
        cluster = self.cluster
        lines: List[str] = []
        longest = max(
            (r.chain for r in self._reference_replicas()), key=lambda c: c.height
        )
        for sequence in range(longest.height):
            lines.append(
                f"commit {sequence}: {longest.block_at(sequence).digest().hex()}"
            )
        for node_id in cluster.node_ids:
            replica = cluster.replicas[node_id]
            lines.append(
                f"replica {node_id} height {replica.chain.height} "
                f"crashed={replica.crashed}"
            )
        lines.append(f"events {cluster.sim.processed_count}")
        lines.append(f"now {cluster.sim.now!r}")
        return sha256_lines(lines)

    def telemetry_counters(self) -> Dict[str, float]:
        cluster = self.cluster
        return {
            "consensus_rounds": float(
                max(r.chain.height for r in self._reference_replicas())
            ),
            "events": float(cluster.sim.processed_count),
        }

    def current_time(self) -> float:
        return float(self.cluster.sim.now)

    def _make_span_collector(self, sample_rate: float):
        from repro.telemetry.spans import PbftSpanCollector

        # Confirmation = the (2f+1)-th replica executing the request;
        # by then a client would hold f+1 matching replies.
        any_replica = next(iter(self.cluster.replicas.values()))
        return PbftSpanCollector(
            self.spec.seed, sample_rate, quorum=2 * any_replica.f + 1
        )

    def _trace_tracer(self):
        return self.cluster.network.tracer


@register_backend
class IotaBackend(LedgerBackend):
    """The IOTA tangle baseline driven by the scenario workload.

    Same named-stream topology rebuild as the other backends; each node
    issues one ``C``-bit transaction per slot and gossip-floods it.
    All traffic is DAG-construction traffic, so the PoP series is zero.
    """

    name = "iota"
    fault_capabilities = FAULT_KINDS

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self.network = None

    def build(self) -> None:
        from repro.baselines.iota.node import IotaNetwork

        spec = self.spec
        self.streams = RandomStreams(spec.seed)
        topology = build_topology(spec.topology, self.streams)
        self.network = IotaNetwork(
            topology=topology,
            payload_bits=spec.protocol.body_bits,
            seed=spec.seed,
            tip_strategy=spec.iota.tip_strategy,
            mcmc_alpha=spec.iota.mcmc_alpha,
            per_hop_latency=spec.per_hop_latency,
        )

    def advance_slots(self, start_slot: int, count: int) -> None:
        self.network.run_slots(count, settle_time=self.spec.iota.settle_time)

    def finalize(self) -> None:
        pass  # every driven chunk already settled

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

    def _fault_network(self):
        return self.network.network

    def sample(self) -> Dict[str, float]:
        network = self.network
        total = bits_to_mbit(network.traffic.mean_tx_bits(network.node_ids))
        return {
            "storage_mb": bits_to_mb(network.mean_storage_bits()),
            "traffic_mbit": total,
            "traffic_dag_mbit": total,
            "traffic_pop_mbit": 0.0,
        }

    def collect(self) -> BackendMetrics:
        network = self.network
        return BackendMetrics(
            total_blocks=max(len(n.tangle) for n in network.nodes.values()),
            per_node_storage_mb=[
                bits_to_mb(network.nodes[n].storage_bits())
                for n in network.node_ids
            ],
            per_node_traffic_mb=[
                bits_to_mb(network.traffic.total_bits(n))
                for n in network.node_ids
            ],
            events=network.sim.processed_count,
            sim_now=network.sim.now,
        )

    def trace_digest(self) -> str:
        network = self.network
        reference = max(
            (node.tangle for node in network.nodes.values()), key=len
        )
        lines: List[str] = []
        for digest_hex in sorted(
            transaction.digest().hex() for transaction in reference.transactions()
        ):
            lines.append(f"tx {digest_hex}")
        for node_id in network.node_ids:
            node = network.nodes[node_id]
            lines.append(f"node {node_id} tangle {len(node.tangle)}")
        lines.append(f"tips {len(reference.tips())}")
        lines.append(f"events {network.sim.processed_count}")
        lines.append(f"now {network.sim.now!r}")
        return sha256_lines(lines)

    def telemetry_counters(self) -> Dict[str, float]:
        network = self.network
        return {
            "tangle_size": float(
                max(len(node.tangle) for node in network.nodes.values())
            ),
            "events": float(network.sim.processed_count),
        }

    def current_time(self) -> float:
        return float(self.network.sim.now)

    def _make_span_collector(self, sample_rate: float):
        from repro.telemetry.spans import IotaSpanCollector

        return IotaSpanCollector(self.spec.seed, sample_rate)

    def _trace_tracer(self):
        return self.network.network.tracer

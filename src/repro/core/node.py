"""The physical-layer IoT node (§III-A, §III-D, Algorithm 4).

An :class:`IoTNode` stores only its own blocks (``S_i``), caches the
latest digest received from each neighbour (``A_i``), keeps verified
headers (``H_i``) and answers PoP queries.  All externally observable
behaviour that a *malicious* node could change is routed through a
:class:`NodeBehavior` strategy, which the attack models in
:mod:`repro.attacks` override — the honest node logic itself stays in
one place.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Set

from repro.core.block import BlockId, DataBlock, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.pop.messages import (
    KIND_BLOCK_DATA,
    KIND_BLOCK_FETCH,
    KIND_REQ_CHILD,
    KIND_RPY_CHILD,
    BlockFetch,
    ReqChild,
    RpyChild,
)
from repro.core.pop.responder import serve_req_child
from repro.core.pop.validator import PopValidator
from repro.core.storage import BlockStore
from repro.crypto.hashing import Digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.puzzle import NoncePuzzle
from repro.net.messages import Message
from repro.net.transport import Network, NodeInterface


class NodeBehavior:
    """Strategy hooks for everything an adversary could subvert.

    The default implementation is the honest protocol.  Attack models
    subclass this and override individual hooks; returning ``None``
    from a reply hook means "stay silent" (the validator will time
    out).
    """

    def answer_req_child(self, node: "IoTNode", request: ReqChild) -> Optional[RpyChild]:
        """Algorithm 4: reply with the oldest matching child header."""
        return serve_req_child(node.store, request)

    def answer_block_fetch(self, node: "IoTNode", request: BlockFetch) -> Optional[DataBlock]:
        """Serve the requested (or latest) own block."""
        if request.block_id is None:
            return node.store.latest
        return node.store.get(request.block_id)

    def transform_outgoing_block(self, node: "IoTNode", block: DataBlock) -> DataBlock:
        """Hook on freshly generated blocks (tampering point for attacks)."""
        return block

    def should_process_digest(self, node: "IoTNode", message: Message) -> bool:
        """Admission control on incoming digests (DoS defence hook)."""
        return True


class IoTNode:
    """One 2LDAG participant.

    A node writes only its own state and feeds no global ledger: the
    logical DAG is a view built from the nodes' stores when it is read
    (``TwoLayerDagNetwork.dag``).

    Parameters
    ----------
    node_id:
        Identity in the topology.
    network:
        Shared :class:`~repro.net.transport.Network`; the node attaches
        an interface and registers its message handlers.
    registry:
        Public-key directory; the node generates and registers its pair.
    config:
        Protocol constants.
    behavior:
        Behaviour strategy (honest by default).
    key_seed:
        Seed for deterministic key generation.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        registry: KeyRegistry,
        config: ProtocolConfig,
        behavior: Optional[NodeBehavior] = None,
        key_seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.topology = network.topology
        self.registry = registry
        self.config = config
        self.behavior = behavior if behavior is not None else NodeBehavior()
        self.rng = rng
        #: ``N(i)``: the shared topology's own frozen set, never a copy.
        self.neighbors: FrozenSet[int] = self.topology.neighbors(node_id)

        self.keypair = KeyPair.generate(node_id, key_seed)
        registry.register(self.keypair)

        self.store = BlockStore(node_id, config.hash_bits)
        self.cache = HeaderCache(config.hash_bits)
        #: Churn state (§VII future work): offline nodes neither
        #: generate, respond nor track digests; they keep their storage
        #: and resume from it when they return.
        self.online = True
        #: ``A_i``: latest digest received from each neighbour (§III-D).
        self.neighbor_digests: Dict[int, Digest] = {}
        #: Penalty blacklist (§IV-D-6): nodes that failed to reply.
        self.blacklist: Set[int] = set()
        self._blacklist_strikes: Dict[int, int] = {}
        self._puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)

        self.interface: NodeInterface = network.attach(node_id)
        self.interface.on("digest", self._on_digest)
        self.interface.on(KIND_REQ_CHILD, self._on_req_child)
        self.interface.on(KIND_BLOCK_FETCH, self._on_block_fetch)

    # -- identity ----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IoTNode {self.node_id} blocks={len(self.store)}>"

    # -- block generation (§III-D) -----------------------------------------------
    def generate_block(self, salt: bytes = b"") -> DataBlock:
        """Create, mine, sign and announce the next data block.

        Digests field Δ = latest digest from each neighbour (``A_i``)
        plus the digest of this node's previous block, keyed by this
        node's own id.  The genesis block (index 0) carries whatever of
        ``A_i`` has arrived — at network start that is nothing, matching
        the paper's bootstrap where genesis digests seed the DAG.
        """
        index = len(self.store)
        digests: Dict[int, Digest] = dict(self.neighbor_digests)
        previous = self.store.latest
        if previous is not None:
            digests[self.node_id] = previous.digest(self.config.hash_bits)

        body = make_body(self.node_id, index, self.config, salt)
        block = build_block(
            origin=self.node_id,
            index=index,
            time=self.network.sim.now,
            body=body,
            digests=digests,
            keypair=self.keypair,
            config=self.config,
            puzzle=self._puzzle,
        )
        block = self.behavior.transform_outgoing_block(self, block)
        self.store.add(block)
        # Our own headers are trivially trusted: seed H_i so TPS can
        # traverse through our blocks without a self-request.
        self.cache.add(block.header)
        tracer = self.network.tracer
        if tracer.enabled:
            # Lifecycle emission for span collectors; the detail stays
            # raw (Digest objects, no hex) so the enabled path is cheap
            # — the collector stringifies only for sampled blocks.
            tracer.emit(
                self.network.sim.now, "block.created", self.node_id,
                block=str(block.block_id),
                digest=block.digest(self.config.hash_bits),
                refs=tuple(digests.values()),
            )
        self.broadcast_digest(block)
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "block.generated", self.node_id,
                block=str(block.block_id),
            )
        return block

    def broadcast_digest(self, block: DataBlock) -> None:
        """Push ``H(b^h)`` to every neighbour (the only proactive traffic)."""
        digest = block.digest(self.config.hash_bits)
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "block.gossiped", self.node_id,
                block=str(block.block_id), neighbors=len(self.neighbors),
            )
        self.interface.broadcast_neighbors(
            "digest", (self.node_id, digest), self.config.digest_message_bits
        )

    # -- message handlers ---------------------------------------------------
    def _on_digest(self, message: Message) -> None:
        """Update ``A_i``, replacing the sender's previous digest."""
        if not self.online:
            return
        if not self.behavior.should_process_digest(self, message):
            return
        sender, digest = message.payload
        if sender != message.sender or sender not in self.neighbors:
            # Digests only flow over physical edges; anything else is
            # spoofed and discarded (§IV-D-5).
            return
        self.neighbor_digests[sender] = digest
        tracer = self.network.tracer
        if tracer.enabled:
            # Filterable category: digest receipts are the sim's most
            # frequent event, so a collector sampling few blocks
            # registers an interest container and unwatched digests
            # cost one membership test instead of a full emission.
            interest = tracer.interests.get("block.digest_received")
            if interest is None or digest.value in interest:
                tracer.emit(
                    self.network.sim.now, "block.digest_received", self.node_id,
                    sender=sender, digest=digest,
                )

    def _on_req_child(self, message: Message) -> None:
        """Responder role (Algorithm 4), via the behaviour hook."""
        if not self.online:
            return
        reply = self.behavior.answer_req_child(self, message.payload)
        if reply is None:
            return  # silence — only malicious behaviours do this
        size = (
            reply.header.size_bits(self.config)
            if reply.header is not None
            else self.config.hash_bits  # "not found" is a small NACK
        )
        self.interface.reply(message, KIND_RPY_CHILD, reply, size)

    def _on_block_fetch(self, message: Message) -> None:
        """Serve a block (or just its header) to a validator."""
        if not self.online:
            return
        block = self.behavior.answer_block_fetch(self, message.payload)
        if block is None:
            return
        if getattr(message.payload, "header_only", False):
            self.interface.reply(
                message, KIND_BLOCK_DATA, block.header,
                block.header.size_bits(self.config),
            )
        else:
            self.interface.reply(
                message, KIND_BLOCK_DATA, block, block.size_bits(self.config)
            )

    # -- validator role -----------------------------------------------------
    def validator(
        self,
        rng: Optional[random.Random] = None,
        use_tps: bool = True,
        use_wps: bool = True,
        hop_aware: bool = False,
        use_blacklist: bool = True,
    ) -> PopValidator:
        """A :class:`PopValidator` bound to this node's cache and interface.

        With ``use_blacklist`` (default), the validator skips responders
        this node has blacklisted and feeds timeouts back into the
        §IV-D-6 penalty counters.
        """
        return PopValidator(
            interface=self.interface,
            cache=self.cache,
            topology=self.topology,
            registry=self.registry,
            config=self.config,
            rng=rng if rng is not None else self.rng,
            use_tps=use_tps,
            use_wps=use_wps,
            hop_aware=hop_aware,
            blacklist=self.blacklist if use_blacklist else set(),
            on_no_reply=self.record_no_reply if use_blacklist else None,
        )

    def verify_block(
        self,
        verifier: int,
        block_id: Optional[BlockId] = None,
        fetch_body: bool = True,
    ):
        """Start an asynchronous PoP run; returns its handle at once.

        The handle's ``triggered`` turns true, and its ``value`` becomes
        a :class:`~repro.core.pop.validator.PopOutcome`, once the
        simulator has driven the run to completion (``ok`` always holds).
        """
        return self.validator().run(verifier, block_id, fetch_body=fetch_body)

    # -- churn (§VII future work) ----------------------------------------------
    def go_offline(self) -> None:
        """Leave the network: stop generating, responding and listening.

        Storage (``S_i``, ``H_i``) is retained, as a rebooted or
        temporarily disconnected device would retain its flash.
        """
        self.online = False

    def come_online(self) -> None:
        """Rejoin the network.

        The digest cache ``A_i`` is stale after an absence; it is
        cleared so the next blocks only embed digests actually heard
        after rejoining (fresh ones arrive within one slot).
        """
        self.online = True
        self.neighbor_digests.clear()

    # -- penalty mechanism (§IV-D-6) ------------------------------------------
    def record_no_reply(self, node: int, strikes_to_blacklist: int = 3) -> None:
        """Count a non-reply; blacklist after repeated offences."""
        self._blacklist_strikes[node] = self._blacklist_strikes.get(node, 0) + 1
        if self._blacklist_strikes[node] >= strikes_to_blacklist:
            self.blacklist.add(node)

    def record_cooperation(self, node: int) -> None:
        """A blacklisted node helped transmit blocks again — forgive it."""
        self._blacklist_strikes.pop(node, None)
        self.blacklist.discard(node)

    # -- accounting -----------------------------------------------------------
    def storage_bits(self) -> int:
        """Total persisted bits: own blocks ``S_i`` + header cache ``H_i``.

        Bounded by Proposition 3.
        """
        return self.store.size_bits(self.config) + self.cache.size_bits(self.config)

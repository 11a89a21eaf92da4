"""The PBFT replica state machine.

Implements the normal-case three-phase flow of Castro & Liskov (OSDI
'99) plus a minimal view change:

1. a client request reaches the primary (replicas forward);
2. the primary assigns a sequence number and sends ``PRE-PREPARE``
   (carrying the request) to every replica;
3. replicas multicast ``PREPARE``; once a replica has the pre-prepare
   and ``2f`` matching prepares it is *prepared* and multicasts
   ``COMMIT``;
4. once it has ``2f + 1`` matching commits it is *committed* and
   executes (appends to its chain) in sequence order;
5. a replica that forwarded a request and saw no execution within a
   timeout multicasts ``VIEW-CHANGE``; on ``2f + 1`` of those, the new
   primary announces ``NEW-VIEW`` and re-proposes pending requests.

Every message is a routed unicast on the shared wireless substrate, so
byte accounting is comparable with 2LDAG's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.pbft.chain import Blockchain, ChainBlock
from repro.baselines.pbft.messages import (
    KIND_COMMIT,
    KIND_NEW_VIEW,
    KIND_PRE_PREPARE,
    KIND_PREPARE,
    KIND_REQUEST,
    KIND_VIEW_CHANGE,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Request,
    ViewChange,
)
from repro.crypto.hashing import Digest, hash_fields
from repro.net.messages import Message
from repro.net.transport import Network, NodeInterface


def request_digest(request: Request) -> Digest:
    """Canonical digest identifying a client request."""
    return hash_fields(
        [
            request.client.to_bytes(4, "big"),
            request.payload_seed,
            int(request.timestamp * 1_000_000).to_bytes(8, "big"),
        ]
    )


@dataclass
class _SlotState:
    """Per-(view, sequence) vote bookkeeping."""

    pre_prepare: Optional[PrePrepare] = None
    prepares: Set[int] = field(default_factory=set)
    commits: Set[int] = field(default_factory=set)
    sent_commit: bool = False
    executed: bool = False


class PbftReplica:
    """One replica; also acts as the client for its own data blocks."""

    def __init__(
        self,
        replica_id: int,
        replica_ids: List[int],
        network: Network,
        view_change_timeout: float = 5.0,
        crashed: bool = False,
    ) -> None:
        self.replica_id = replica_id
        self.replica_ids = sorted(replica_ids)
        self._peers = [other for other in self.replica_ids if other != replica_id]
        self.n = len(self.replica_ids)
        self.f = (self.n - 1) // 3
        self.network = network
        self.view_change_timeout = view_change_timeout
        #: A crashed/byzantine-silent replica neither sends nor processes.
        self.crashed = crashed

        self.view = 0
        self.next_sequence = 0  # primary's ordering counter
        self.chain = Blockchain()
        self._slots: Dict[Tuple[int, int], _SlotState] = {}
        self._executed_digests: Set[bytes] = set()
        self._pending_requests: Dict[bytes, Request] = {}
        self._view_change_votes: Dict[int, Set[int]] = {}
        self._deferred: Dict[int, Request] = {}  # committed out of order

        self.interface: NodeInterface = network.attach(replica_id)
        self.interface.on(KIND_REQUEST, self._on_request)
        self.interface.on(KIND_PRE_PREPARE, self._on_pre_prepare)
        self.interface.on(KIND_PREPARE, self._on_prepare)
        self.interface.on(KIND_COMMIT, self._on_commit)
        self.interface.on(KIND_VIEW_CHANGE, self._on_view_change)
        self.interface.on(KIND_NEW_VIEW, self._on_new_view)

    # -- roles ----------------------------------------------------------------
    def primary_of(self, view: int) -> int:
        """Round-robin primary: ``replica_ids[view mod n]``."""
        return self.replica_ids[view % self.n]

    @property
    def is_primary(self) -> bool:
        """Whether this replica leads the current view."""
        return self.primary_of(self.view) == self.replica_id

    # -- client entry ------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Inject a client request originating at this node."""
        if self.crashed:
            return
        digest = request_digest(request)
        self._pending_requests[digest.value] = request
        tracer = self.network.tracer
        if tracer.enabled:
            # Lifecycle emissions for span collectors; detail reads are
            # guarded so disabled runs pay one predicate check.
            tracer.emit(
                self.network.sim.now, "pbft.request", self.replica_id,
                key=request.payload_seed.decode("utf-8", "replace"),
            )
        if self.is_primary:
            self._propose(request)
        else:
            self.interface.send(
                self.primary_of(self.view), KIND_REQUEST, request, request.size_bits
            )
        self._arm_view_change_timer(digest)

    def _arm_view_change_timer(self, digest: Digest) -> None:
        def check() -> None:
            if self.crashed or digest.value in self._executed_digests:
                return
            self._start_view_change(self.view + 1)

        self.network.sim.call_in(self.view_change_timeout, check)

    # -- primary ----------------------------------------------------------------
    def _propose(self, request: Request) -> None:
        sequence = self.next_sequence
        self.next_sequence += 1
        pre_prepare = PrePrepare(
            view=self.view,
            sequence=sequence,
            digest=request_digest(request),
            request=request,
        )
        self._broadcast(KIND_PRE_PREPARE, pre_prepare, pre_prepare.size_bits)
        self._accept_pre_prepare(pre_prepare)

    # -- message handlers -----------------------------------------------------
    def _on_request(self, message: Message) -> None:
        if self.crashed:
            return
        request: Request = message.payload
        digest = request_digest(request)
        if digest.value in self._executed_digests:
            return
        self._pending_requests[digest.value] = request
        if self.is_primary:
            self._propose(request)

    def _on_pre_prepare(self, message: Message) -> None:
        if self.crashed:
            return
        pre_prepare: PrePrepare = message.payload
        if message.sender != self.primary_of(pre_prepare.view):
            return  # only the view's primary may pre-prepare
        if pre_prepare.view != self.view:
            return
        self._accept_pre_prepare(pre_prepare)

    def _accept_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        state = self._slot(pre_prepare.view, pre_prepare.sequence)
        if state.pre_prepare is not None:
            return
        if request_digest(pre_prepare.request) != pre_prepare.digest:
            return  # digest mismatch: equivocation attempt
        state.pre_prepare = pre_prepare
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "pbft.preprepare", self.replica_id,
                key=pre_prepare.request.payload_seed.decode("utf-8", "replace"),
                view=pre_prepare.view, seq=pre_prepare.sequence,
            )
        prepare = Prepare(
            view=pre_prepare.view,
            sequence=pre_prepare.sequence,
            digest=pre_prepare.digest,
            replica=self.replica_id,
        )
        state.prepares.add(self.replica_id)
        self._broadcast(KIND_PREPARE, prepare, prepare.size_bits)
        self._maybe_commit(state)

    def _on_prepare(self, message: Message) -> None:
        if self.crashed:
            return
        prepare: Prepare = message.payload
        if prepare.view != self.view or prepare.replica != message.sender:
            return
        state = self._slot(prepare.view, prepare.sequence)
        state.prepares.add(prepare.replica)
        self._maybe_commit(state)

    def _maybe_commit(self, state: _SlotState) -> None:
        """Prepared predicate: pre-prepare + 2f prepares (incl. own)."""
        if state.sent_commit or state.pre_prepare is None:
            return
        if len(state.prepares) < 2 * self.f:
            return
        state.sent_commit = True
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "pbft.prepared", self.replica_id,
                key=state.pre_prepare.request.payload_seed.decode(
                    "utf-8", "replace"
                ),
                view=state.pre_prepare.view, seq=state.pre_prepare.sequence,
            )
        commit = Commit(
            view=state.pre_prepare.view,
            sequence=state.pre_prepare.sequence,
            digest=state.pre_prepare.digest,
            replica=self.replica_id,
        )
        state.commits.add(self.replica_id)
        self._broadcast(KIND_COMMIT, commit, commit.size_bits)
        self._maybe_execute(state)

    def _on_commit(self, message: Message) -> None:
        if self.crashed:
            return
        commit: Commit = message.payload
        if commit.replica != message.sender:
            return
        state = self._slot(commit.view, commit.sequence)
        state.commits.add(commit.replica)
        self._maybe_execute(state)

    def _maybe_execute(self, state: _SlotState) -> None:
        """Committed predicate: prepared + 2f+1 commits; execute in order."""
        if state.executed or state.pre_prepare is None or not state.sent_commit:
            return
        if len(state.commits) < 2 * self.f + 1:
            return
        state.executed = True
        pre_prepare = state.pre_prepare
        request = pre_prepare.request
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "pbft.executed", self.replica_id,
                key=request.payload_seed.decode("utf-8", "replace"),
                view=pre_prepare.view, seq=pre_prepare.sequence,
            )
        self._executed_digests.add(pre_prepare.digest.value)
        self._pending_requests.pop(pre_prepare.digest.value, None)
        self._deferred[pre_prepare.sequence] = request
        self._drain_deferred()

    def _drain_deferred(self) -> None:
        while self.chain.height in self._deferred:
            request = self._deferred.pop(self.chain.height)
            block = ChainBlock(
                sequence=self.chain.height,
                proposer=request.client,
                payload_seed=request.payload_seed,
                payload_bits=request.payload_bits,
                previous=self.chain.tip_digest(),
            )
            self.chain.append(block)

    # -- view change ---------------------------------------------------------
    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "pbft.viewchange", self.replica_id,
                view=new_view,
            )
        vote = ViewChange(
            new_view=new_view, last_sequence=self.chain.height, replica=self.replica_id
        )
        self._view_change_votes.setdefault(new_view, set()).add(self.replica_id)
        self._broadcast(KIND_VIEW_CHANGE, vote, vote.size_bits)
        self._maybe_enter_view(new_view)

    def _on_view_change(self, message: Message) -> None:
        if self.crashed:
            return
        vote: ViewChange = message.payload
        if vote.replica != message.sender:
            return
        self._view_change_votes.setdefault(vote.new_view, set()).add(vote.replica)
        self._maybe_enter_view(vote.new_view)

    def _maybe_enter_view(self, new_view: int) -> None:
        votes = self._view_change_votes.get(new_view, set())
        if new_view <= self.view or len(votes) < 2 * self.f + 1:
            return
        self.view = new_view
        self.next_sequence = max(self.next_sequence, self.chain.height)
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.sim.now, "pbft.newview", self.replica_id,
                view=new_view,
            )
        if self.is_primary:
            announcement = NewView(view=new_view, last_sequence=self.chain.height)
            self._broadcast(KIND_NEW_VIEW, announcement, announcement.size_bits)
            self._repropose_pending()

    def _on_new_view(self, message: Message) -> None:
        if self.crashed:
            return
        announcement: NewView = message.payload
        if message.sender != self.primary_of(announcement.view):
            return
        if announcement.view > self.view:
            self.view = announcement.view
        # Re-forward anything we still want ordered to the new primary.
        for request in list(self._pending_requests.values()):
            self.interface.send(
                self.primary_of(self.view), KIND_REQUEST, request, request.size_bits
            )
            self._arm_view_change_timer(request_digest(request))

    def _repropose_pending(self) -> None:
        for request in list(self._pending_requests.values()):
            self._propose(request)

    # -- plumbing ---------------------------------------------------------
    def _slot(self, view: int, sequence: int) -> _SlotState:
        # Looked up before it is built: ``setdefault``'s default would be
        # built, and dropped, on every vote for a known slot.
        state = self._slots.get((view, sequence))
        if state is None:
            state = self._slots[view, sequence] = _SlotState()
        return state

    def _broadcast(self, kind: str, payload, size_bits: int) -> None:
        """Point-to-point multicast to every other replica."""
        if not self.crashed:
            self.interface.multicast(self._peers, kind, payload, size_bits)

    # -- accounting --------------------------------------------------------
    def storage_bits(self) -> int:
        """Full-chain storage — what Fig. 7 charges PBFT nodes."""
        return self.chain.size_bits()

"""The PoP validator — Algorithm 3.

The validator retrieves the target block from the verifier, checks its
Merkle root, then grows a descendant path through the logical DAG:
first for free via the header cache (TPS), then by querying neighbours
of the current verifying node (chosen by WPS) with ``REQ_CHILD``.
Invalid or missing replies cause the responder to be skipped; when all
neighbours of the verifying node are exhausted, the validator *rolls
back* one path element and permanently sidelines the dead-end block
(not its node, whose other blocks stay usable) for this run.  Consensus is reached when the path has traversed γ+1
distinct physical nodes; failure is reported when the path rolls back
past the verifier itself.

Implementation notes (deviations documented):

* ``R_i`` always equals the set of origins of blocks on ``P_i``:
  appending a block adds its origin, and a rollback re-derives the set
  from the path.  The paper mutates ``R_i`` separately; deriving it
  keeps the two consistent during rollbacks through micro-loops, where
  one origin can own several path blocks (popping one block must not
  evict the origin while another of its blocks remains on the path).
* Reply validation goes beyond line 21's digest comparison: the header
  must be authored by the queried responder, carry a valid signature
  (Eq. 6) and satisfy the nonce puzzle (Eq. 5) — the checks §IV-D
  relies on against man-in-the-middle corruption.  Origin and
  registration are checked on every reply; the Eq. 5/6 verdict is the
  header's own (:meth:`~repro.core.block.BlockHeader.authentic`), so a
  header every validator receives as one shared object is hashed for
  it once per process, not once per check.  A tampered copy or a
  decoded one starts without a verdict and is checked in full.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.block import BlockHeader, BlockId, DataBlock
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.pop.messages import (
    KIND_BLOCK_FETCH,
    KIND_REQ_CHILD,
    BlockFetch,
    ReqChild,
    RpyChild,
)
from repro.core.pop.tps import trust_path_selection
from repro.core.pop.wps import wps_order
from repro.crypto.hashing import Digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.puzzle import NoncePuzzle
from repro.net.messages import Message
from repro.net.topology import Topology
from repro.net.transport import NodeInterface

#: Wire size of a BLOCK_FETCH request (origin u32 + index u32).
BLOCK_FETCH_BITS = 64


@dataclass
class PopOutcome:
    """Result and cost accounting of one verification run.

    Attributes
    ----------
    success:
        Whether consensus (|R_i| ≥ γ+1) was reached.
    error:
        Failure reason when ``success`` is ``False``.
    path:
        ``P_i`` — headers from the target block to the path tip (empty
        on failure).
    requests_sent / replies_received / timeouts / invalid_replies:
        PoP message statistics (Props. 4 & 6 bound these).
    tps_steps:
        Path extensions served from the header cache (free).
    rollbacks:
        Dead-end recoveries performed (§IV-D-1, Fig. 5).
    started_at / finished_at:
        Simulated times bracketing the run.
    """

    success: bool = False
    error: Optional[str] = None
    path: List[BlockHeader] = field(default_factory=list)
    requests_sent: int = 0
    replies_received: int = 0
    timeouts: int = 0
    invalid_replies: int = 0
    tps_steps: int = 0
    rollbacks: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def consensus_set(self) -> Set[int]:
        """``R_i`` — the distinct physical nodes on the final path.

        Derived, not kept: the walk's ``R_i`` is always the set of its
        path's origins, and a finished run holds only the path.
        """
        return {header.origin for header in self.path}

    @property
    def headers_retrieved(self) -> int:
        """Headers fetched over the network (excludes TPS cache hits)."""
        return self.replies_received - self.invalid_replies

    @property
    def message_total(self) -> int:
        """Messages the validator emitted and received (Prop. 4/6 metric)."""
        return self.requests_sent + self.replies_received


def _completed() -> None:
    """The kernel event that marks a finished run (``sim.events`` is in every digest)."""


class _PopRun:
    """One run of Algorithm 3 as a continuation, and the caller's handle on it.

    The run is a state machine moved only by its own request callbacks:
    :meth:`_start` asks the verifier for the target block,
    :meth:`_on_block` checks it and walks the path as far as ``H_i`` and
    the run's memo allow, and every ``REQ_CHILD`` answer or timeout
    re-enters the walk through :meth:`_on_child`.  ``triggered`` turns
    true and ``value`` becomes the :class:`PopOutcome` the moment the
    run ends, and the end is one kernel event, :func:`_completed`;
    ``ok`` is always true — a failing check raises out of
    :meth:`~repro.sim.kernel.Simulator.run` at the event that hit it.

    Monotone per-run state guaranteeing termination:

    * ``dead_ends`` — blocks rolled back past; never re-adopted (the
      paper's V' removal, but scoped to *blocks*: Algorithm 3 resets
      V' = V at every outer iteration (line 14), so a node that
      dead-ended at its chain tip stays usable at its earlier, mid-DAG
      blocks);
    * ``reply_memo`` — (responder, digest) pairs already asked this
      run; responders answer deterministically (the oldest child,
      Eq. 11), so re-asking after a rollback would waste the round trip
      the memo now saves.
    """

    __slots__ = (
        "validator", "verifier", "block_id", "fetch_body", "outcome",
        "triggered", "value", "path", "consensus_set", "dead_ends", "reply_memo",
        "fetched", "verifying", "ask", "order", "responder",
    )
    ok = True

    def __init__(
        self,
        validator: "PopValidator",
        verifier: int,
        block_id: Optional[BlockId],
        fetch_body: bool,
    ) -> None:
        self.validator = validator
        self.verifier = verifier
        self.block_id = block_id
        self.fetch_body = fetch_body
        self.triggered = False
        self.value: Optional[PopOutcome] = None
        # P_i, and R_i kept in step with it: every adopted header adds
        # its origin; only a rollback re-derives the set.
        self.path: List[BlockHeader] = []
        self.consensus_set: Set[int] = set()
        self.dead_ends: Set[BlockId] = set()
        self.reply_memo: Dict[Tuple[int, bytes], Optional[BlockHeader]] = {}
        # The path's headers that arrived over the network, in path
        # order — the rest came out of H_i and need no re-insertion.
        self.fetched: List[BlockHeader] = []
        # The extension in progress — ``verifying``, the one ``ask`` every
        # responder gets, the ``responder`` whose answer is awaited — and
        # the responders still to ask, best first.
        self.order: Iterator[int] = iter(())

    # -- initialization: retrieve the block and check its root (lines 2-6) -----
    def _start(self) -> None:
        validator = self.validator
        self.outcome = PopOutcome(started_at=validator.interface.network.sim.now)
        validator.interface.request(
            self.verifier,
            KIND_BLOCK_FETCH,
            BlockFetch(block_id=self.block_id, header_only=not self.fetch_body),
            size_bits=BLOCK_FETCH_BITS,
            timeout=validator.config.reply_timeout,
            on_reply=self._on_block,
        )
        self.outcome.requests_sent += 1

    def _on_block(self, reply: Optional[Message]) -> None:
        """The verifier's answer: Merkle-root check (line 3) when a body came."""
        outcome = self.outcome
        if reply is None:
            outcome.timeouts += 1
            return self._finish("verifier-timeout")
        outcome.replies_received += 1
        payload = reply.payload
        if not isinstance(payload, DataBlock if self.fetch_body else BlockHeader):
            outcome.invalid_replies += 1
            return self._finish("verifier-bad-payload")
        header = payload
        if self.fetch_body:
            if not payload.verify_body_root():
                return self._finish("merkle-root-mismatch")
            header = payload.header
        if not self.validator._header_authentic(header, expected_origin=self.verifier):
            return self._finish("verifier-header-invalid")
        self._walk(header)

    # -- construct path (lines 8-38) ----------------------------------------------
    def _walk(self, accepted: Optional[BlockHeader]) -> None:
        """Adopt ``accepted`` — or, without one, the next acceptable answer
        of the extension in progress, rolling back when none is left — and
        build the path onward until a request is in flight or the run ends.
        """
        validator, outcome, path = self.validator, self.outcome, self.path
        config, dead_ends, reply_memo = validator.config, self.dead_ends, self.reply_memo
        while True:
            if accepted is None:
                ask = self.ask
                for responder in self.order:
                    memo_key = (responder, ask.digest.value)
                    if memo_key not in reply_memo:
                        self.responder = responder
                        validator.interface.request(
                            responder, KIND_REQ_CHILD, ask, size_bits=config.hash_bits,
                            timeout=config.reply_timeout, on_reply=self._on_child,
                        )
                        outcome.requests_sent += 1
                        return
                    # Rollback re-exploration costs no repeat round trips.
                    accepted = reply_memo[memo_key]
                    if accepted is not None and accepted.block_id not in dead_ends:
                        break
                    accepted = None
            if accepted is not None:
                path.append(accepted)
                self.fetched.append(accepted)
                self.consensus_set.add(accepted.origin)
                verifying = accepted
            else:
                # Rollback (lines 26-34): this verifying block is a dead end.
                outcome.rollbacks += 1
                dead_ends.add(self.verifying.block_id)
                if path.pop() is self.fetched[-1]:
                    self.fetched.pop()
                if not path:
                    return self._finish("exhausted")
                verifying = path[-1]
                self.consensus_set = {h.origin for h in path}

            if validator.use_tps:
                verifying, steps = trust_path_selection(
                    validator.cache, self.consensus_set, path, verifying,
                    config.hash_bits, skip_ids=dead_ends,
                )
                outcome.tps_steps += steps
            if len(self.consensus_set) >= config.consensus_quorum():
                # Success: persist the path into H_i (line 39).
                for header in self.fetched:
                    validator.cache.add(header)
                outcome.success = True
                outcome.path = path
                return self._finish(None)

            # Lines 13-25: query neighbours of the verifying node, best first.
            self.verifying = verifying
            self.ask = ReqChild(
                digest=verifying.digest(config.hash_bits), verifying_origin=verifying.origin
            )
            self.order = validator._responder_order(verifying.origin, self.consensus_set)
            accepted = None

    def _on_child(self, reply: Optional[Message]) -> None:
        """One REQ_CHILD answer (or its timeout): judge it, then walk on."""
        outcome, responder = self.outcome, self.responder
        header: Optional[BlockHeader] = None
        if reply is None:
            outcome.timeouts += 1
            if self.validator.on_no_reply is not None:
                self.validator.on_no_reply(responder)
        else:
            outcome.replies_received += 1
            header = self.validator._validate_reply(
                reply.payload, responder, self.verifying, self.ask.digest
            )
            if header is None:
                outcome.invalid_replies += 1
        self.reply_memo[responder, self.ask.digest.value] = header
        # Rollbacks are rare, and an empty set would still hash the id.
        if header is not None and self.dead_ends and header.block_id in self.dead_ends:
            outcome.invalid_replies += 1
            header = None
        self._walk(header)

    def _finish(self, error: Optional[str]) -> None:
        outcome = self.outcome
        outcome.error = error
        sim = self.validator.interface.network.sim
        outcome.finished_at = sim.now
        self.value = outcome
        self.triggered = True
        # Callers keep the handle for ``value``; the walk's state ends here.
        del self.validator, self.consensus_set, self.reply_memo, self.dead_ends
        del self.fetched, self.order
        sim.call_in(0.0, _completed)


class PopValidator:
    """Algorithm 3 for one validator node; each :meth:`run` is one verification.

    Usage::

        validator = PopValidator(iface, cache, topology, registry, config)
        run = validator.run(verifier_id, block_id)
        sim.run()
        outcome = run.value

    Parameters
    ----------
    interface:
        The validator node's network attachment.
    cache:
        The validator's ``H_i`` (shared with its other runs).
    topology:
        Global knowledge ``G(V, E)``.
    registry:
        Public keys of all registered nodes.
    config:
        Protocol constants (γ, τ, field sizes).
    rng:
        WPS tie-break randomness (deterministic when omitted).
    use_tps:
        Whether TPS may extend the path from ``H_i``; without it every
        extension queries the network (the cold audits of
        :mod:`repro.experiments.sweeps`).
    blacklist:
        §IV-D-6 penalty mechanism: node ids skipped as responders
        (typically the owning node's ``blacklist`` set, shared by
        reference so bans apply immediately).
    on_no_reply:
        Callback invoked with a responder id on timeout — the owning
        node passes :meth:`IoTNode.record_no_reply` so repeated
        offenders get blacklisted.
    """

    def __init__(
        self,
        interface: NodeInterface,
        cache: HeaderCache,
        topology: Topology,
        registry: KeyRegistry,
        config: ProtocolConfig,
        rng: Optional[random.Random] = None,
        use_tps: bool = True,
        blacklist: Optional[Set[int]] = None,
        on_no_reply: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.interface = interface
        self.cache = cache
        self.topology = topology
        self.registry = registry
        self.config = config
        self.rng = rng
        self.use_tps = use_tps
        self.blacklist = blacklist if blacklist is not None else set()
        self.on_no_reply = on_no_reply
        self._puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)

    def _responder_order(self, verifying_origin: int, consensus_set: Set[int]) -> Iterator[int]:
        """Lines 13-25's responders for one extension, in asking order.

        ``R_i`` is fixed while an extension lasts, so the whole order is
        ranked once; it is lazy, and draws from ``rng`` pick by pick.
        """
        me = self.interface.node_id
        topology = self.topology
        # The validator can serve from its own store for free: if it is a
        # neighbour of the verifying node, its own headers are already in
        # the cache (TPS handled them), so exclude self from candidates.
        # Mostly there is nothing to filter, and the shared tuple serves.
        blacklist = self.blacklist
        candidates: Sequence[int] = topology.sorted_neighbors[verifying_origin]
        if blacklist or me in topology.adjacency[verifying_origin]:
            candidates = [n for n in candidates if n != me and n not in blacklist]
        order = wps_order(consensus_set, candidates, topology, self.rng)
        if verifying_origin == me:
            return order
        # The verifying node itself is kept as a *last-resort* candidate:
        # its next own block is always a child (the chain edge
        # b_{v,t-1} -> b_{v,t} of the logical DAG), which lets the walk
        # traverse micro-loops even when digest races left no neighbour
        # with a child of this particular block.  It contributes no new
        # origin to R_i, so it is only asked once the others failed.
        return chain(order, (verifying_origin,))

    # -- public entry point ---------------------------------------------------
    def run(
        self,
        verifier: int,
        block_id: Optional[BlockId] = None,
        fetch_body: bool = True,
    ) -> _PopRun:
        """Verify ``block_id`` stored at ``verifier`` (its latest if None).

        With ``fetch_body=False`` only the header travels and the
        Merkle-root check is skipped — the mode the paper's Fig. 8
        accounting uses for routine generation-time verification (body
        integrity is still covered: any body tamper changes the Root
        field and thus the header digest the path vouches for).

        Returns at once; the run starts on the next kernel step, so the
        order of starts within a time instant does not matter.  The
        handle's ``value`` is the :class:`PopOutcome` once ``triggered``.
        """
        run = _PopRun(self, verifier, block_id, fetch_body)
        self.interface.network.sim.call_in(0.0, run._start)
        return run

    # -- checks -------------------------------------------------------------------
    def _validate_reply(
        self,
        payload: object,
        responder: int,
        verifying: BlockHeader,
        verifying_digest: Digest,
    ) -> Optional[BlockHeader]:
        """Line 21 plus authenticity checks; ``None`` rejects the reply."""
        if not isinstance(payload, RpyChild) or payload.header is None:
            return None
        header = payload.header
        # GetDigest(b^h_{j',t*}, v): the digest the child stored for node v.
        # Comparing the bytes is comparing the digests: a digest's width
        # is its byte length (``Digest.__post_init__`` refuses any other).
        recorded = header.digest_from(verifying.origin)
        if recorded is None or recorded.value != verifying_digest.value:
            return None
        if not self._header_authentic(header, expected_origin=responder):
            return None
        return header

    def _header_authentic(self, header: BlockHeader, expected_origin: int) -> bool:
        """Identity checks on every reply, then the header's Eq. 5/6 verdict."""
        if header.origin != expected_origin:
            return False
        if not self.registry.is_registered(header.origin):
            return False
        return header.authentic(self.registry.public_key(header.origin), self._puzzle)

"""The Tangle: IOTA's transaction DAG.

Each transaction approves (references by hash) up to two earlier
transactions.  Tips are transactions with no approvers yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import Digest, hash_fields

#: Transaction overhead besides the payload: two parent hashes, issuer
#: id, timestamp, nonce (IOTA's PoW), signature.
TX_OVERHEAD_BITS = 2 * 256 + 32 + 32 + 32 + 256


@dataclass(frozen=True)
class Transaction:
    """One tangle transaction carrying an IoT data block."""

    issuer: int
    index: int  # per-issuer sequence, for deterministic identity
    parents: Tuple[bytes, ...]  # digests of approved transactions
    payload_seed: bytes
    payload_bits: int
    timestamp: float

    def digest(self) -> Digest:
        """Content hash identifying the transaction.

        Memoised on the instance: every node re-derives the digest on
        gossip receipt and tangle insertion, always through the same
        shared transaction object, so after the first call this is an
        attribute read.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hash_fields(
                [
                    self.issuer.to_bytes(4, "big"),
                    self.index.to_bytes(8, "big"),
                    *self.parents,
                    self.payload_seed,
                ]
            )
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def size_bits(self) -> int:
        """Stored/wire size: payload plus protocol overhead."""
        return self.payload_bits + TX_OVERHEAD_BITS


class Tangle:
    """One node's replica of the full transaction DAG.

    In IOTA every participant needs the whole graph to validate new
    transactions — the storage cost the paper contrasts with 2LDAG.
    """

    def __init__(self) -> None:
        self._transactions: Dict[bytes, Transaction] = {}  # insertion order, oldest first
        self._approvers: Dict[bytes, List[bytes]] = {}
        self._tips: Dict[bytes, None] = {}  # insertion order, see ``tips``

    # -- construction ------------------------------------------------------
    def add(self, transaction: Transaction) -> bool:
        """Insert a transaction; returns ``False`` if already known.

        Parents need not be present (gossip may reorder); unknown
        parents are linked lazily when they arrive.
        """
        digest = transaction.digest().value
        if digest in self._transactions:
            return False
        self._transactions[digest] = transaction
        self._approvers.setdefault(digest, [])
        for parent in transaction.parents:
            self._approvers.setdefault(parent, []).append(digest)
            self._tips.pop(parent, None)
        # A new transaction is a tip until something approves it; handle
        # the out-of-order case where an approver arrived first.
        if not self._approvers[digest]:
            self._tips[digest] = None
        return True

    # -- queries -------------------------------------------------------------
    def __contains__(self, digest: bytes) -> bool:
        return digest in self._transactions

    def __len__(self) -> int:
        return len(self._transactions)

    def get(self, digest: bytes) -> Optional[Transaction]:
        """Transaction by digest, if known."""
        return self._transactions.get(digest)

    def transactions(self) -> List[Transaction]:
        """All transactions, in insertion order."""
        return list(self._transactions.values())

    def tips(self) -> List[bytes]:
        """Digests of unapproved transactions, in insertion order.

        The tips are kept in an insertion-ordered dict.  A transaction
        enters it only when it is itself inserted, and once an approver
        removes it it never returns, so the dict's order is the
        transactions' insertion order without sorting anything.
        """
        return list(self._tips)

    def size_bits(self) -> int:
        """Full-tangle storage — the per-node cost Fig. 7 charges IOTA."""
        return sum(t.size_bits for t in self._transactions.values())

"""The per-node traffic ledger.

:class:`TrafficLedger` is written by the network transport on every
physical transmission/reception (a planned fan-out in one call).  It
breaks quantities down by *category* (e.g. ``"dag"``, ``"pop"``,
``"pbft"``) so experiments can reproduce Fig. 8's separation of
DAG-construction traffic from consensus traffic.  Storage is a level,
not a flow: it is read off the nodes themselves
(:meth:`repro.net.deployment.WiredDeployment.storage_bits`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple


class TrafficLedger:
    """Accumulates transmitted/received bits per node and category."""

    def __init__(self) -> None:
        self._tx: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._rx: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._messages: Dict[str, int] = defaultdict(int)

    # -- recording (called by the transport) --------------------------------
    def record_tx(self, node: int, category: str, bits: float) -> None:
        """Account ``bits`` transmitted by ``node`` under ``category``."""
        self._tx[node][category] += bits

    def record_rx(self, node: int, category: str, bits: float) -> None:
        """Account ``bits`` received by ``node`` under ``category``."""
        self._rx[node][category] += bits

    def record_message(self, kind: str) -> None:
        """Count one end-to-end message of the given kind."""
        self._messages[kind] += 1

    def record_fanout(
        self, kind: str, category: str, bits: int, count: int,
        tx: Iterable[Tuple[int, int]], rx: Iterable[Tuple[int, int]],
    ) -> None:
        """Account a whole fan-out: ``count`` messages of ``bits`` each.

        ``tx`` / ``rx`` hold ``(node, times)``: how often the node sends
        or receives a copy over all the routes together.  Equal to the
        ``record_message`` / ``record_tx`` / ``record_rx`` calls of the
        hop walks it stands for when the pairs are in their order.
        """
        self._messages[kind] += count
        for node, times in tx:
            self._tx[node][category] += times * bits
        for node, times in rx:
            self._rx[node][category] += times * bits

    # -- queries -------------------------------------------------------------
    def tx_bits(self, node: int, categories: Optional[Iterable[str]] = None) -> float:
        """Bits transmitted by ``node`` (optionally restricted by category)."""
        per_cat = self._tx.get(node, {})
        if categories is None:
            return sum(per_cat.values())
        return sum(per_cat.get(c, 0.0) for c in categories)

    def rx_bits(self, node: int, categories: Optional[Iterable[str]] = None) -> float:
        """Bits received by ``node`` (optionally restricted by category)."""
        per_cat = self._rx.get(node, {})
        if categories is None:
            return sum(per_cat.values())
        return sum(per_cat.get(c, 0.0) for c in categories)

    def total_bits(self, node: int, categories: Optional[Iterable[str]] = None) -> float:
        """Transmit + receive bits for ``node``."""
        return self.tx_bits(node, categories) + self.rx_bits(node, categories)

    def message_count(self, kind: str) -> int:
        """End-to-end messages recorded under ``kind``."""
        return self._messages.get(kind, 0)

    def message_counts(self) -> Dict[str, int]:
        """All end-to-end message counts, keyed by kind, sorted (a copy).

        The telemetry layer snapshots this per slot record; handing out
        a fresh dict keeps the ledger's own accounting unaliased.
        """
        return {kind: self._messages[kind] for kind in sorted(self._messages)}

    def categories(self) -> List[str]:
        """All categories seen so far, sorted."""
        seen: Set[str] = set()
        for per_cat in self._tx.values():
            seen.update(per_cat)
        for per_cat in self._rx.values():
            seen.update(per_cat)
        return sorted(seen)

    def mean_tx_bits(self, nodes: Iterable[int], categories: Optional[Iterable[str]] = None) -> float:
        """Average transmitted bits across ``nodes`` — Fig. 8's y-axis."""
        cats = list(categories) if categories is not None else None
        node_list = list(nodes)
        if not node_list:
            return 0.0
        return sum(self.tx_bits(n, cats) for n in node_list) / len(node_list)

    def snapshot_tx(self) -> Mapping[int, float]:
        """Total transmitted bits per node (a copy)."""
        return {node: sum(per_cat.values()) for node, per_cat in self._tx.items()}

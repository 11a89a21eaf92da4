"""``TrafficLedger.record_fanout`` against the per-message calls it replaces."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import TrafficLedger

#: A route is the node sequence one copy travels: a single node is a loopback.
_ROUTE = st.lists(st.integers(0, 9), min_size=1, max_size=5)
#: (kind, category, bits, routes, accounted in one call or copy by copy)
_FANOUTS = st.lists(
    st.tuples(
        st.sampled_from(["digest", "pbft.prepare", "pbft.commit", "iota.tx"]),
        st.sampled_from(["dag", "pbft", "iota"]),
        st.integers(0, 2**40),
        st.lists(_ROUTE, min_size=1, max_size=8),
        st.booleans(),
    ),
    max_size=12,
)


def _walk(ledger, kind, category, bits, routes):
    for route in routes:
        ledger.record_message(kind)
        for hop_from, hop_to in zip(route, route[1:]):
            ledger.record_tx(hop_from, category, bits)
            ledger.record_rx(hop_to, category, bits)


def _observed(ledger):
    nodes = range(10)
    return (
        {n: (ledger.tx_bits(n), ledger.rx_bits(n), ledger.total_bits(n, ["dag", "iota"])) for n in nodes},
        {n: (dict(ledger._tx.get(n, {})), dict(ledger._rx.get(n, {}))) for n in nodes},
        ledger.message_counts(),
        ledger.categories(),
        list(ledger.snapshot_tx().items()),
        (list(ledger._tx), list(ledger._rx), list(ledger._messages)),
    )


class TestRecordFanout:
    @given(_FANOUTS)
    @settings(max_examples=200, deadline=None)
    def test_one_call_equals_the_walk_copy_by_copy(self, fanouts):
        walked, bulk = TrafficLedger(), TrafficLedger()
        for kind, category, bits, routes, in_one_call in fanouts:
            _walk(walked, kind, category, bits, routes)
            if not in_one_call:
                _walk(bulk, kind, category, bits, routes)
                continue
            # Counter keeps first-appearance order, the order the walk creates keys in.
            tx = Counter(a for route in routes for a in route[:-1])
            rx = Counter(b for route in routes for b in route[1:])
            bulk.record_fanout(kind, category, bits, len(routes), tx.items(), rx.items())
        assert _observed(bulk) == _observed(walked)

    def test_per_link_accounting_is_unchanged_in_kind(self):
        # 0 fans out to 1, 2 and (through 2) 3: three transmissions by the
        # sender, one by the relay, every copy received where it lands.
        ledger = TrafficLedger()
        ledger.record_fanout("digest", "dag", 256, 3, [(0, 3), (2, 1)], [(1, 1), (2, 2), (3, 1)])
        assert ledger.message_counts() == {"digest": 3}
        assert [ledger.tx_bits(n) for n in range(4)] == [768, 0, 256, 0]
        assert [ledger.rx_bits(n) for n in range(4)] == [0, 256, 512, 256]
        assert list(ledger.snapshot_tx()) == [0, 2]

"""Traffic ledger edge cases the figure suites never hit."""

from repro.metrics.collector import TrafficLedger


class TestTrafficUnknowns:
    def test_unknown_node_reads_as_zero(self):
        ledger = TrafficLedger()
        ledger.record_tx(0, "digest", 100.0)
        assert ledger.tx_bits(99) == 0.0
        assert ledger.rx_bits(99) == 0.0
        assert ledger.total_bits(99) == 0.0
        assert ledger.total_bits(99, ["digest"]) == 0.0
        # reading an unknown node must not materialise it
        assert ledger.snapshot_tx() == {0: 100.0}

    def test_unknown_category_filter_reads_as_zero(self):
        ledger = TrafficLedger()
        ledger.record_tx(0, "digest", 100.0)
        ledger.record_rx(0, "pop", 40.0)
        assert ledger.tx_bits(0, ["pbft"]) == 0.0
        assert ledger.tx_bits(0, []) == 0.0
        assert ledger.total_bits(0, ["digest", "pbft"]) == 100.0
        # filters never pollute the seen-category roster
        assert ledger.categories() == ["digest", "pop"]

    def test_mean_over_unknown_nodes_and_empty_roster(self):
        ledger = TrafficLedger()
        ledger.record_tx(0, "digest", 90.0)
        assert ledger.mean_tx_bits([]) == 0.0
        assert ledger.mean_tx_bits([0, 1, 2]) == 30.0
        assert ledger.mean_tx_bits([1, 2], ["digest"]) == 0.0


class TestZeroBitRecords:
    def test_zero_bit_tx_counts_the_category_not_the_volume(self):
        ledger = TrafficLedger()
        ledger.record_tx(3, "ack", 0.0)
        assert ledger.tx_bits(3) == 0.0
        assert ledger.categories() == ["ack"]
        assert ledger.snapshot_tx() == {3: 0.0}


class TestMessageAggregation:
    def test_record_message_aggregates_by_kind(self):
        ledger = TrafficLedger()
        for kind in ("digest", "pop", "digest", "digest"):
            ledger.record_message(kind)
        assert ledger.message_count("digest") == 3
        assert ledger.message_count("pop") == 1
        assert ledger.message_count("unseen") == 0
        assert ledger.message_counts() == {"digest": 3, "pop": 1}

    def test_message_counts_is_a_sorted_copy(self):
        ledger = TrafficLedger()
        ledger.record_message("z")
        ledger.record_message("a")
        counts = ledger.message_counts()
        assert list(counts) == ["a", "z"]
        counts["a"] = 999
        counts["new"] = 1
        assert ledger.message_count("a") == 1
        assert ledger.message_counts() == {"a": 1, "z": 1}

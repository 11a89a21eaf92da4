"""Unit tests for ledgers, CDFs, units and reporting."""

import pytest

from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.collector import TrafficLedger
from repro.metrics.reporting import format_series_table, render_cdf_rows
from repro.metrics.units import bits_to_kb, bits_to_mb, bits_to_mbit, mb_to_bits


class TestTrafficLedger:
    def test_tx_rx_accumulate(self):
        ledger = TrafficLedger()
        ledger.record_tx(1, "pop", 100)
        ledger.record_tx(1, "pop", 50)
        ledger.record_rx(1, "dag", 30)
        assert ledger.tx_bits(1) == 150
        assert ledger.rx_bits(1) == 30
        assert ledger.total_bits(1) == 180

    def test_category_filtering(self):
        ledger = TrafficLedger()
        ledger.record_tx(1, "pop", 100)
        ledger.record_tx(1, "dag", 10)
        assert ledger.tx_bits(1, ["pop"]) == 100
        assert ledger.tx_bits(1, ["dag"]) == 10
        assert ledger.tx_bits(1, ["missing"]) == 0

    def test_unknown_node_zero(self):
        assert TrafficLedger().tx_bits(9) == 0

    def test_mean_over_nodes(self):
        ledger = TrafficLedger()
        ledger.record_tx(1, "x", 100)
        ledger.record_tx(2, "x", 300)
        assert ledger.mean_tx_bits([1, 2, 3]) == pytest.approx(400 / 3)

    def test_mean_empty_nodes(self):
        assert TrafficLedger().mean_tx_bits([]) == 0.0

    def test_categories_sorted(self):
        ledger = TrafficLedger()
        ledger.record_tx(1, "z", 1)
        ledger.record_rx(2, "a", 1)
        assert ledger.categories() == ["a", "z"]

    def test_message_counts(self):
        ledger = TrafficLedger()
        ledger.record_message("ping")
        ledger.record_message("ping")
        assert ledger.message_count("ping") == 2
        assert ledger.message_count("other") == 0


class TestCdf:
    def test_probability_steps(self):
        cdf = EmpiricalCDF([1, 2, 2, 4])
        assert cdf(0.5) == 0.0
        assert cdf(1) == 0.25
        assert cdf(2) == 0.75
        assert cdf(4) == 1.0

    def test_quantiles(self):
        cdf = EmpiricalCDF([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF([1])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_steps_merge_duplicates(self):
        cdf = EmpiricalCDF([1, 1, 2])
        assert cdf.steps() == [(1.0, pytest.approx(2 / 3)), (2.0, 1.0)]

    def test_min_max_mean(self):
        cdf = EmpiricalCDF([3, 1, 2])
        assert cdf.min == 1 and cdf.max == 3
        assert cdf.mean() == 2


class TestUnits:
    def test_roundtrip(self):
        assert bits_to_mb(mb_to_bits(0.5)) == pytest.approx(0.5)

    def test_mbit(self):
        assert bits_to_mbit(2_000_000) == 2.0

    def test_kb(self):
        assert bits_to_kb(8_000) == 1.0

    def test_mb_vs_mbit_factor_8(self):
        assert bits_to_mbit(mb_to_bits(1.0)) == 8.0


class TestReporting:
    def test_table_alignment_and_content(self):
        table = format_series_table("slots", [1, 2], {"A": [10, 20], "B": [1, 2]})
        lines = table.splitlines()
        assert lines[0].startswith("slots")
        assert "A" in lines[0] and "B" in lines[0]
        assert len(lines) == 4  # header + rule + 2 rows

    def test_table_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("x", [1, 2], {"A": [1]})

    def test_cdf_rows(self):
        rows = render_cdf_rows([(1.0, 0.5), (2.0, 1.0)], "MB")
        assert "MB" in rows.splitlines()[0]
        assert "1.000" in rows

"""Shape tests for the experiment runners (tiny scales).

These assert the *qualitative* findings of the paper, not absolute
numbers: 2LDAG storage/communication sits orders of magnitude below the
baselines, and consensus time grows with γ.
"""

import pytest

from repro.experiments.fig7_storage import run_fig7
from repro.experiments.fig8_comm import run_fig8
from repro.experiments.fig9_consensus import (
    PAPER_PANELS,
    fig9_sample_slots,
    paper_panel,
    run_fig9,
)
from repro.experiments.report import generate_report
from repro.scenario import figure_base
from repro.scenario.registry import fig8_gamma

TINY = figure_base(16, 40, sample_slots=(10, 20, 30, 40), seed=3)


@pytest.fixture(scope="module")
def fig7_result():
    return run_fig7(0.5, TINY)


@pytest.fixture(scope="module")
def fig8_result():
    return run_fig8(TINY)


class TestFig7:
    def test_series_lengths(self, fig7_result):
        for series in fig7_result.series_mb.values():
            assert len(series) == len(TINY.workload.sample_slots)

    def test_2ldag_storage_far_below_baselines(self, fig7_result):
        final = -1
        ldag = fig7_result.series_mb["2LDAG"][final]
        assert fig7_result.series_mb["PBFT"][final] > 10 * ldag
        assert fig7_result.series_mb["IOTA"][final] > 10 * ldag

    def test_storage_monotone_in_time(self, fig7_result):
        for series in fig7_result.series_mb.values():
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_storage_scales_with_body_size(self):
        small = run_fig7(0.1, TINY)
        large = run_fig7(1.0, TINY)
        assert large.series_mb["2LDAG"][-1] > 5 * small.series_mb["2LDAG"][-1]

    def test_cdf_spread_is_narrow(self, fig7_result):
        """Fig. 7(d): neighbour-count differences barely matter."""
        cdf = fig7_result.cdf()
        assert cdf.max <= cdf.min * 1.25

    def test_table_renders(self, fig7_result):
        table = fig7_result.to_table()
        assert "PBFT" in table and "2LDAG" in table


class TestFig8:
    def test_gamma_mapping(self):
        assert fig8_gamma(50, 0.33) == 17
        assert fig8_gamma(50, 0.49) == 25

    def test_2ldag_comm_far_below_baselines(self, fig8_result):
        final = -1
        for label in ("2LDAG-33%", "2LDAG-49%"):
            ldag = fig8_result.overall_mbit[label][final]
            assert fig8_result.overall_mbit["PBFT"][final] > 10 * ldag
            assert fig8_result.overall_mbit["IOTA"][final] > 10 * ldag

    def test_higher_tolerance_costs_more_consensus_traffic(self, fig8_result):
        final = -1
        assert (
            fig8_result.consensus_mbit["2LDAG-49%"][final]
            >= fig8_result.consensus_mbit["2LDAG-33%"][final]
        )

    def test_consensus_dominates_dag_construction(self, fig8_result):
        """Fig. 8(b) vs (c): header traffic >> digest traffic."""
        final = -1
        for label in ("2LDAG-33%", "2LDAG-49%"):
            assert (
                fig8_result.consensus_mbit[label][final]
                > fig8_result.dag_mbit[label][final]
            )

    def test_comm_cdf_has_heavy_tail(self, fig8_result):
        """Fig. 8(d): a few relay nodes transmit much more than most."""
        cdf = fig8_result.cdf("2LDAG-33%")
        assert cdf.max > 1.5 * cdf.quantile(0.5)

    def test_tables_render(self, fig8_result):
        for panel in ("a", "b", "c"):
            assert "slots" in fig8_result.to_table(panel)


class TestFig9:
    def test_failure_decreases_with_dag_age(self):
        result = run_fig9(
            gamma=4, malicious_counts=[0], base=TINY,
            sample_slots=[5, 8, 12, 20], probes=4,
        )
        series = result.failure_probability[0]
        assert series[-1] <= series[0]
        assert result.consensus_slot(0) is not None

    def test_more_malicious_not_faster(self):
        result = run_fig9(
            gamma=5, malicious_counts=[0, 4], base=TINY,
            sample_slots=[6, 10, 16, 24], probes=4,
        )
        slot_honest = result.consensus_slot(0)
        slot_attacked = result.consensus_slot(4)
        assert slot_honest is not None
        if slot_attacked is not None:
            assert slot_attacked >= slot_honest

    @pytest.mark.parametrize("gamma, slots", [
        (1, [1, 3, 5, 7, 9, 11, 13, 15, 17]),
        (4, [4, 6, 8, 10, 12, 14, 16, 18, 20]),
        (24, [24, 36, 48, 60, 72, 84, 96, 108, 120]),
    ])
    def test_default_sample_slots_step_from_gamma(self, gamma, slots):
        # nine slots from γ in steps of max(2, γ // 2)
        assert fig9_sample_slots(gamma) == slots

    def test_panel_definitions_cover_paper(self):
        assert set(PAPER_PANELS) == {"a", "b", "c", "d"}
        assert PAPER_PANELS["d"]["gamma"] == 24
        assert 24 in PAPER_PANELS["d"]["malicious_counts"]

    def test_paper_panel_is_the_paper_at_50_nodes(self):
        for panel, paper in PAPER_PANELS.items():
            assert paper_panel(panel, 50) == (
                paper["gamma"], paper["malicious_counts"]
            )

    def test_paper_panel_scales_dedups_and_caps_at_gamma(self):
        # 30 nodes, panel (a): gamma 10 -> 6; the sweep 0, 5, 8, 10
        # scales to 0, 3, 5, 6 — all within gamma.
        assert paper_panel("a", 30) == (6, [0, 3, 5, 6])
        # 9 nodes: gamma floors at 2, 5 and 8 both round to 1 or 2 and
        # collapse; nothing above gamma survives.
        gamma, sweep = paper_panel("a", 9)
        assert gamma == 2
        assert sweep == sorted(set(sweep)) and sweep[-1] <= gamma


class TestHeadline:
    def test_orders_of_magnitude(self):
        result = generate_report(TINY, sections=("headline",)).headline
        # At tiny scale the gap is smaller than the paper's 50-node one,
        # but both metrics must still separate by >= 1 order.
        assert result.storage_orders_pbft >= 1.0
        assert result.comm_orders_pbft >= 1.0
        assert "storage" in result.summary()

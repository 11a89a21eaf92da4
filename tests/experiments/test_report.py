"""Tests for the one-shot reproduction report."""

import pytest

from repro.experiments.report import generate_report
from repro.scenario import figure_base, registry

MICRO = figure_base(12, 26, sample_slots=(13, 26), seed=5)


@pytest.fixture(scope="module")
def report():
    return generate_report(MICRO, fig7_bodies=[0.5], fig9_panels=["a"], probes=3)


class TestReport:
    def test_contains_all_sections(self, report):
        markdown = report.to_markdown()
        assert "# 2LDAG reproduction report" in markdown
        assert "## Headline claims" in markdown
        assert "## Fig. 7" in markdown
        assert "## Fig. 8" in markdown
        assert "## Fig. 9(a)" in markdown

    def test_charts_rendered(self, report):
        markdown = report.to_markdown()
        assert "[log10 y]" in markdown
        assert "o=" in markdown  # chart legend markers

    def test_tables_have_baselines(self, report):
        markdown = report.to_markdown()
        assert "PBFT" in markdown
        assert "IOTA" in markdown

    def test_consensus_slots_reported(self, report):
        assert "Consensus slots:" in report.to_markdown()

    def test_scale_recorded(self, report):
        assert report.base is MICRO
        assert f"{MICRO.node_count} nodes" in report.to_markdown()

    def test_no_cell_is_submitted_twice(self, monkeypatch):
        # The headline is derived from the Fig. 7 / Fig. 8 panels the
        # report already ran (and through the executor it was given),
        # not from a second, executor-less run of the same cells.
        from repro.campaign.executor import CampaignExecutor

        submitted = []
        run = CampaignExecutor.run

        def recording_run(self, campaign, **kwargs):
            submitted.extend(cell.digest() for cell in campaign.cells)
            return run(self, campaign, **kwargs)

        monkeypatch.setattr(CampaignExecutor, "run", recording_run)
        generate_report(MICRO, fig7_bodies=[0.1], fig9_panels=["a"], probes=3)
        assert len(submitted) == len(set(submitted))
        # gate (2) + fig7 C = 0.1 and the headline's 0.5 (2) + fig8 (2)
        # + the panel's malicious sweep.
        assert len(submitted) > 6

    def test_headline_panel_is_run_but_not_shown_unless_asked(self):
        report = generate_report(
            MICRO, fig7_bodies=[0.1], fig9_panels=[], probes=3
        )
        assert list(report.fig7) == [0.1]
        assert report.headline.storage_ratio_pbft > 1

    def test_cli_report_command(self, tmp_path, monkeypatch):
        from repro.cli import main

        # Substitute a micro scale for the CLI's --quick so the test
        # exercises the full command path in seconds.
        monkeypatch.setattr(registry, "QUICK_SCALE", MICRO)
        out = tmp_path / "report.md"
        code = main(["report", "--quick", "--output", str(out)])
        assert code == 0
        content = out.read_text()
        assert "# 2LDAG reproduction report" in content

    def test_sections_render_only_what_was_asked(self):
        report = generate_report(MICRO, sections=("fig8",))
        assert (report.headline, report.fig7, report.fig9) == (None, {}, {})
        markdown = report.to_markdown()
        assert "## Fig. 8 — communication" in markdown
        for panel in "abc":
            assert f"Fig. 8({panel})" in markdown
        assert "## Headline claims" not in markdown

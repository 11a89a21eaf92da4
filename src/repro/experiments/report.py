"""One-shot reproduction report.

Gathers every experiment (Figs. 7-9, headline ratios) at the size a
base scenario declares and renders a single markdown document with
text tables and ASCII charts — the artifact a reviewer reads next to
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.fig7_storage import Fig7Result, run_fig7_panels
from repro.experiments.fig8_comm import Fig8Result, run_fig8
from repro.experiments.fig9_consensus import (
    PAPER_PANELS,
    PAPER_PROBES,
    Fig9Result,
    paper_panel,
    run_fig9,
)
from repro.experiments.headline import (
    HeadlineResult,
    check_model_agreement,
    headline_ratios,
)
from repro.metrics.charts import render_chart
from repro.scenario import ScenarioSpec


@dataclass
class ReproductionReport:
    """All experiment results at the size ``base`` declares."""

    base: ScenarioSpec
    fig7: Dict[float, Fig7Result]
    fig8: Fig8Result
    fig9: Dict[str, Fig9Result]
    headline: HeadlineResult

    def to_markdown(self) -> str:
        """Render the full report."""
        sections: List[str] = [
            "# 2LDAG reproduction report",
            "",
            f"Scale: {self.base.node_count} nodes, "
            f"{self.base.workload.slots} slots, seed {self.base.seed}.",
            "",
            "## Headline claims",
            "",
            "```",
            self.headline.summary(),
            "```",
        ]
        for body_mb, result in sorted(self.fig7.items()):
            sections += [
                "",
                f"## Fig. 7 — storage, C = {body_mb} MB",
                "",
                "```",
                result.to_table(),
                "",
                render_chart(
                    result.sample_slots, result.series_mb,
                    log_y=True, y_label="per-node storage (MB)",
                ),
                "```",
            ]
        sections += [
            "",
            "## Fig. 8 — communication",
            "",
            "```",
            self.fig8.to_table("a"),
            "",
            render_chart(
                self.fig8.sample_slots, self.fig8.overall_mbit,
                log_y=True, y_label="per-node traffic (Mbit)",
            ),
            "```",
        ]
        for panel, result in sorted(self.fig9.items()):
            consensus = {
                m: result.consensus_slot(m) for m in result.malicious_counts
            }
            sections += [
                "",
                f"## Fig. 9({panel}) — consensus time, gamma = {result.gamma}",
                "",
                "```",
                result.to_table(),
                "```",
                "",
                f"Consensus slots: {consensus}",
            ]
        return "\n".join(sections) + "\n"


def generate_report(
    base: ScenarioSpec,
    fig7_bodies: Optional[List[float]] = None,
    fig9_panels: Optional[List[str]] = None,
    executor=None,
    probes: int = PAPER_PROBES,
) -> ReproductionReport:
    """Run every experiment at ``base``'s size and assemble the report.

    ``fig7_bodies`` / ``fig9_panels`` trim the sweep for faster runs
    (defaults: all three C values, all four γ panels).  ``executor``
    (a :class:`~repro.campaign.executor.CampaignExecutor`) parallelizes
    each experiment's cells.  The headline ratios come from the panels
    the report shows anyway; the C = 0.5 MB run they need is added to
    the Fig. 7 campaign when ``fig7_bodies`` leaves it out.
    """
    if fig7_bodies is None:
        fig7_bodies = [0.1, 0.5, 1.0]
    if fig9_panels is None:
        fig9_panels = list(PAPER_PANELS)

    agreements = check_model_agreement(executor)
    bodies = fig7_bodies if 0.5 in fig7_bodies else [*fig7_bodies, 0.5]
    panels = run_fig7_panels(bodies, base, executor)
    fig8 = run_fig8(base, executor)
    fig9: Dict[str, Fig9Result] = {}
    for panel in fig9_panels:
        gamma, malicious = paper_panel(panel, base.node_count)
        fig9[panel] = run_fig9(
            gamma, malicious, base, executor=executor, probes=probes
        )
    return ReproductionReport(
        base=base,
        fig7={body_mb: panels[body_mb] for body_mb in fig7_bodies},
        fig8=fig8,
        fig9=fig9,
        headline=headline_ratios(panels[0.5], fig8, agreements),
    )

"""One-shot reproduction report.

Gathers the experiments (Figs. 7-9, headline ratios) at the size a
base scenario declares and renders a single markdown document with
text tables and ASCII charts — the artifact a reviewer reads next to
EXPERIMENTS.md.  ``report --only SECTION`` renders a subset, and runs
only the cells that subset needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.campaign.cells import run_scenario_cells
from repro.experiments.fig7_storage import Fig7Result, fig7_panel
from repro.experiments.fig8_comm import Fig8Result, fig8_scenarios, fig8_series
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
from repro.scenario import ScenarioSpec, fig7_scenario

#: The report's sections, in the order they render.
SECTIONS = ("headline", "fig7", "fig8", "fig9")

#: Fig. 7's body sizes C in MB: the panels ``generate_report`` runs by default.
FIG7_BODIES_MB = (0.1, 0.5, 1.0)


@dataclass
class ReproductionReport:
    """The requested experiment results at the size ``base`` declares.

    A section that was not requested is ``None`` (headline, Fig. 8) or
    empty (Fig. 7 bodies, Fig. 9 panels) and is not rendered.
    """

    base: ScenarioSpec
    fig7: Dict[float, Fig7Result]
    fig8: Optional[Fig8Result]
    fig9: Dict[str, Fig9Result]
    headline: Optional[HeadlineResult]

    def to_markdown(self) -> str:
        """Render the requested sections."""
        sections: List[str] = [
            "# 2LDAG reproduction report",
            "",
            f"Scale: {self.base.node_count} nodes, "
            f"{self.base.workload.slots} slots, seed {self.base.seed}.",
        ]
        if self.headline is not None:
            sections += [
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
        if self.fig8 is not None:
            sections += ["", "## Fig. 8 — communication", "", "```"]
            for panel, title in (("a", "overall"), ("b", "DAG construction"),
                                 ("c", "consensus")):
                sections += [
                    f"Fig. 8({panel}) {title} (per-node Mbit)",
                    self.fig8.to_table(panel),
                    "",
                ]
            sections += [
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
    sections: Sequence[str] = SECTIONS,
) -> ReproductionReport:
    """Run the experiments ``sections`` need at ``base``'s size.

    ``fig7_bodies`` / ``fig9_panels`` trim the sweep for faster runs
    (defaults: all three C values, all four γ panels).  ``executor``
    (a :class:`~repro.campaign.executor.CampaignExecutor`) parallelizes
    each experiment's cells.  The headline ratios need the model gate,
    a C = 0.5 MB Fig. 7 panel and Fig. 8; they run whether or not those
    figures are shown.  Fig. 7's and Fig. 8's runs are submitted in one
    call, so no run is computed twice: not a shown figure's, and not
    Fig. 8's 33% run, which is the C = 0.5 MB run under other labels.
    """
    if fig7_bodies is None:
        fig7_bodies = list(FIG7_BODIES_MB)
    if fig9_panels is None:
        fig9_panels = list(PAPER_PANELS)
    headline = "headline" in sections
    shown = fig7_bodies if "fig7" in sections else []

    agreements = check_model_agreement(executor) if headline else []
    bodies = [*shown, 0.5] if headline and 0.5 not in shown else shown
    comm = fig8_scenarios(base) if headline or "fig8" in sections else []
    specs = [fig7_scenario(body_mb, base) for body_mb in bodies] + comm
    runs = run_scenario_cells(specs, executor, name="fig7-fig8") if specs else []
    panels = {body_mb: fig7_panel(body_mb, run) for body_mb, run in zip(bodies, runs)}
    fig8 = fig8_series(*runs[len(bodies):]) if comm else None
    fig9: Dict[str, Fig9Result] = {}
    for panel in fig9_panels if "fig9" in sections else []:
        gamma, malicious = paper_panel(panel, base.node_count)
        fig9[panel] = run_fig9(
            gamma, malicious, base, executor=executor, probes=probes
        )
    return ReproductionReport(
        base=base,
        fig7={body_mb: panels[body_mb] for body_mb in shown},
        fig8=fig8 if "fig8" in sections else None,
        fig9=fig9,
        headline=(
            headline_ratios(panels[0.5], fig8, agreements) if headline else None
        ),
    )

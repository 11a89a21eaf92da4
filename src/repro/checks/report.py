"""Rendering lint results: ``file:line`` text and the rule catalogue."""

from __future__ import annotations

from repro.checks.engine import CheckReport
from repro.checks.rules import rule_catalogue


def render_text(report: CheckReport) -> str:
    """The report: one ``path:line:col`` line per finding, then each
    offending rule's rationale once, then the summary line."""
    lines = [finding.describe() for finding in report.findings]
    if report.findings:
        catalogue = rule_catalogue()
        lines.append("")
        for rule_id in sorted({f.rule for f in report.findings}):
            if rule_id in catalogue:
                summary, rationale = catalogue[rule_id]
                lines.append(f"{rule_id}: {summary}")
                lines.append(f"  {rationale}")
    lines.append(report.summary())
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list`` catalogue: id and summary per rule."""
    catalogue = rule_catalogue()
    width = max(len(rule_id) for rule_id in catalogue)
    lines = [
        f"{rule_id:<{width}}  {summary}"
        for rule_id, (summary, _) in sorted(catalogue.items())
    ]
    return "\n".join(lines)

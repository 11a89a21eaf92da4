"""The ``python -m repro lint`` entry point.

Exit codes follow the gate contract CI relies on:

* ``0`` — no findings (pragma-suppressed ones do not count);
* ``1`` — at least one finding;
* ``2`` — a path is missing or unreadable.

Usage examples::

    python -m repro lint src
    python -m repro lint --list
"""

from __future__ import annotations

import sys

from repro.checks.engine import CheckError, check_paths
from repro.checks.report import render_rule_list, render_text

#: What ``repro lint`` checks when no path is given.
DEFAULT_PATHS = ("src",)


def run_lint(args: object) -> int:
    """Execute the lint subcommand parsed by :mod:`repro.cli`."""
    if getattr(args, "list_rules", False):
        print(render_rule_list())
        return 0
    try:
        report = check_paths(list(getattr(args, "paths", None) or DEFAULT_PATHS))
    except CheckError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    print(render_text(report))
    return 1 if report.findings else 0

"""Plain-text rendering of figure series.

The benchmark harness "regenerates" each figure by printing the series
the paper plots; these helpers keep that output aligned and consistent
across experiments.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def format_series_table(
    x_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
) -> str:
    """Render ``x`` against several named ``series`` as a text table.

    Example output::

        slots | PBFT     | IOTA     | 2LDAG
        ------+----------+----------+---------
        25    | 625      | 627.2    | 12.53
    """
    names = list(series)
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(series[name])} points, expected {len(x_values)}"
            )
    header = [x_label] + names
    rows: List[List[str]] = [header]
    for i, x in enumerate(x_values):
        row = [f"{x:.4g}"] + [f"{series[name][i]:.4g}" for name in names]
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r_index, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if r_index == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render pre-formatted string cells as an aligned text table.

    The generic sibling of :func:`format_series_table` for tables whose
    cells are not one numeric series per column (mixed labels, ratios,
    missing values).
    """
    table: List[List[str]] = [list(header)] + [list(row) for row in rows]
    for row in table:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(header)}: {row}"
            )
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = []
    for r_index, row in enumerate(table):
        lines.append(" | ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if r_index == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def render_cdf_rows(  # repro: allow[test-only-public-name] figure-suite output
    points: Sequence[Tuple[float, float]], value_label: str = "value"
) -> str:
    """Render CDF step points as two aligned columns."""
    lines = [f"{value_label:>16} | CDF", "-" * 16 + "-+------"]
    for value, prob in points:
        lines.append(f"{value:16.4f} | {prob:.3f}")
    return "\n".join(lines)

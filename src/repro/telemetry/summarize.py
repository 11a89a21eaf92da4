"""Turn telemetry event streams into per-run summaries.

The recorder (:mod:`repro.telemetry.events`) writes raw per-slot JSONL;
this module is the read side (over
:func:`repro.telemetry.stream.read_streams`): :func:`summarize_streams`
condenses each stream into per-run headline numbers, rendered as a
text table or as JSON by ``python -m repro telemetry summarize
[--json]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.metrics.reporting import format_table
from repro.telemetry.stream import FAULT, RUN_END, RUN_START, SLOT, read_streams


def summarize_records(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Headline numbers of one run's stream.

    Works on partial streams too (a crashed run has no ``run-end``);
    missing totals render as ``None``.
    """
    summary: Dict[str, Any] = {
        "scenario": None,
        "backend": None,
        "seed": None,
        "slots": None,
        "slot_records": 0,
        "faults": 0,
        "fault_kinds": {},
        "blocks": None,
        "validations": None,
        "success_rate": None,
        "sim_seconds": None,
        "events": None,
        "trace_sha256": None,
        "final_series": {},
        "final_counters": {},
    }
    fault_kinds: Dict[str, int] = {}
    for record in records:
        kind = record["event"]
        if kind == RUN_START:
            summary["scenario"] = record["scenario"]
            summary["backend"] = record["backend"]
            summary["seed"] = record["seed"]
            summary["slots"] = record["slots"]
        elif kind == SLOT:
            summary["slot_records"] += 1
            summary["final_series"] = dict(record["series"])
            summary["final_counters"] = dict(record["counters"])
        elif kind == FAULT:
            summary["faults"] += 1
            fault_kinds[record["kind"]] = fault_kinds.get(record["kind"], 0) + 1
        elif kind == RUN_END:
            summary["sim_seconds"] = record["sim_now"]
            summary["blocks"] = record["blocks"]
            summary["validations"] = record["validations"]
            summary["success_rate"] = record["success_rate"]
            summary["events"] = record["events"]
            summary["trace_sha256"] = record["trace_sha256"]
    summary["fault_kinds"] = dict(sorted(fault_kinds.items()))
    return summary


def summarize_streams(
    paths: Iterable[Union[str, Path]],
) -> List[Dict[str, Any]]:
    """One :func:`summarize_records` dict per stream, plus its path."""
    summaries = []
    for path, records in read_streams(paths, 1):
        summary = summarize_records(records)
        summary["path"] = str(path)
        summaries.append(summary)
    return summaries


def _cell(value: Any, fmt: str = "{}") -> str:
    return "-" if value is None else fmt.format(value)


def format_summary_table(summaries: Sequence[Dict[str, Any]]) -> str:
    """The ``telemetry summarize`` text table."""
    header = (
        "scenario", "backend", "seed", "slots", "records", "blocks",
        "validations", "success", "faults", "storage MB", "traffic Mbit",
    )
    rows = []
    for s in summaries:
        series = s["final_series"]
        rows.append((
            _cell(s["scenario"]),
            _cell(s["backend"]),
            _cell(s["seed"]),
            _cell(s["slots"]),
            str(s["slot_records"]),
            _cell(s["blocks"]),
            _cell(s["validations"]),
            _cell(s["success_rate"], "{:.3f}"),
            str(s["faults"]),
            _cell(series.get("storage_mb"), "{:.4g}"),
            _cell(series.get("traffic_mbit"), "{:.4g}"),
        ))
    return format_table(header, rows)


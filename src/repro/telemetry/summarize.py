"""Turn telemetry event streams into summaries and metric expositions.

The recorder (:mod:`repro.telemetry.events`) writes raw per-slot JSONL;
this module is the read side (over :func:`repro.telemetry.stream.read_streams`): :func:`summarize_streams` condenses each
stream into per-run headline numbers (rendered as a text table by
``python -m repro telemetry summarize``), and :func:`registry_from_records`
projects the same streams onto the process-local
:class:`~repro.telemetry.metrics.MetricsRegistry` so
``python -m repro telemetry export`` can serve a Prometheus text
exposition of everything the runs recorded.

The metric catalogue (all labelled ``scenario``/``backend``/``seed``):

====================================  =========  ==========================
name                                  type       meaning
====================================  =========  ==========================
``repro_run_slots``                   gauge      slots the workload drove
``repro_run_sim_seconds``             gauge      final simulated clock
``repro_run_blocks_total``            counter    blocks appended
``repro_run_validations_total``       counter    validations performed
``repro_run_success_rate``            gauge      final validation success
``repro_run_events_total``            counter    kernel events processed
``repro_run_faults_total``            counter    + ``kind`` label
``repro_series_value``                gauge      + ``series`` label (final
                                                 storage/traffic sample)
``repro_backend_counter``             gauge      + ``name`` label (final
                                                 backend-specific counter)
``repro_slot_records_total``          counter    slot records in the stream
====================================  =========  ==========================
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.metrics.reporting import format_table
from repro.telemetry.metrics import MetricsRegistry
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


def registry_from_records(
    stream_records: Sequence[Tuple[Path, Sequence[Dict[str, Any]]]],
) -> MetricsRegistry:
    """Project streams onto the metric catalogue (see module docs)."""
    registry = MetricsRegistry()
    run_labels = ("scenario", "backend", "seed")
    slots = registry.gauge(
        "repro_run_slots", "Slots the workload drove", run_labels
    )
    sim_seconds = registry.gauge(
        "repro_run_sim_seconds", "Final simulated clock", run_labels
    )
    blocks = registry.counter(
        "repro_run_blocks_total", "Blocks appended over the run", run_labels
    )
    validations = registry.counter(
        "repro_run_validations_total", "Validations performed", run_labels
    )
    success = registry.gauge(
        "repro_run_success_rate", "Final validation success rate", run_labels
    )
    kernel_events = registry.counter(
        "repro_run_events_total", "Kernel events processed", run_labels
    )
    faults = registry.counter(
        "repro_run_faults_total",
        "Fault timeline events applied",
        run_labels + ("kind",),
    )
    series_gauge = registry.gauge(
        "repro_series_value",
        "Final sampled series value (storage/traffic)",
        run_labels + ("series",),
    )
    backend_counter = registry.gauge(
        "repro_backend_counter",
        "Final backend-specific counter value",
        run_labels + ("name",),
    )
    slot_records = registry.counter(
        "repro_slot_records_total", "Slot records in the stream", run_labels
    )

    for path, records in stream_records:
        summary = summarize_records(records)
        labels = {
            "scenario": str(summary["scenario"] or path.stem),
            "backend": str(summary["backend"] or "unknown"),
            "seed": str(summary["seed"] if summary["seed"] is not None else "?"),
        }
        if summary["slots"] is not None:
            slots.set(summary["slots"], **labels)
        if summary["sim_seconds"] is not None:
            sim_seconds.set(summary["sim_seconds"], **labels)
        if summary["blocks"] is not None:
            blocks.inc(summary["blocks"], **labels)
        if summary["validations"] is not None:
            validations.inc(summary["validations"], **labels)
        if summary["success_rate"] is not None:
            success.set(summary["success_rate"], **labels)
        if summary["events"] is not None:
            kernel_events.inc(summary["events"], **labels)
        if summary["slot_records"]:
            slot_records.inc(summary["slot_records"], **labels)
        for kind, count in summary["fault_kinds"].items():
            faults.inc(count, kind=kind, **labels)
        for name, value in summary["final_series"].items():
            series_gauge.set(value, series=name, **labels)
        for name, value in summary["final_counters"].items():
            backend_counter.set(value, name=name, **labels)
    return registry


def export_prometheus(paths: Iterable[Union[str, Path]]) -> str:
    """The Prometheus text exposition over every stream under ``paths``."""
    return registry_from_records(read_streams(paths, 1)).render_prometheus()

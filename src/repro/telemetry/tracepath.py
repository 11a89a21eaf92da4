"""Critical-path analysis over block-lifecycle trace streams.

The analysis side of :mod:`repro.telemetry.spans`: over trace streams
parsed by ``repro.telemetry.stream.read_streams(paths, 2)``, attribute
each confirmed block's confirmation latency to lifecycle phases along
its critical path, aggregate per-phase latency distributions
(p50/p99), and render per-block ASCII waterfalls for the
``telemetry trace`` CLI.

Everything here is pure data → data: no simulation imports, no clocks,
no randomness — the same stream always renders the same report.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.reporting import format_table
from repro.telemetry.spans import PHASE_ORDER
from repro.telemetry.stream import BLOCK_TRACE, TelemetryError, stream_start


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[index])


def _phase_rank(backend: str, phase: str) -> int:
    order = PHASE_ORDER.get(backend, ())
    try:
        return order.index(phase)
    except ValueError:
        return len(order)


def critical_path(
    trace: Dict[str, Any], backend: str
) -> List[Dict[str, Any]]:
    """The completing span per canonical phase, in causal order.

    For each lifecycle phase the block reached, the span whose ``end``
    is latest among spans that finish no later than confirmation — the
    chain whose segments sum to the block's confirmation latency.
    """
    order = PHASE_ORDER.get(backend, ())
    spans = trace.get("spans", [])
    confirm_end: Optional[float] = None
    for span in spans:
        if span["phase"] == "confirmed":
            confirm_end = span["end"]
            break
    chosen: List[Dict[str, Any]] = []
    for phase in order:
        candidates = [
            span for span in spans
            if span["phase"] == phase
            and (confirm_end is None or span["end"] <= confirm_end)
        ]
        if candidates:
            chosen.append(max(candidates, key=lambda span: span["end"]))
    return chosen


def trace_start(path: Path, records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The stream's ``trace-start``; a headerless fragment (which the
    validator accepts) names no backend, so it is an error here."""
    start = stream_start(records)
    if start is None:
        raise TelemetryError(f"{path}: stream carries no trace-start")
    return start


def trace_report(
    streams: Iterable[Tuple[Path, List[Dict[str, Any]]]]
) -> Dict[str, Any]:
    """Aggregate latency attribution across parsed trace streams.

    Returns pure data (JSON-ready): one entry per stream plus a
    per-backend rollup of confirmation latency and its per-phase
    attribution (each phase's contribution is the gap its completing
    span closes on the block's critical path).
    """
    runs: List[Dict[str, Any]] = []
    by_backend: Dict[str, Dict[str, List[float]]] = {}
    confirm_by_backend: Dict[str, List[float]] = {}
    for path, records in streams:
        start = trace_start(path, records)
        backend = start["backend"]
        traces = [r for r in records if r.get("event") == BLOCK_TRACE]
        confirmed = [t for t in traces if t["confirmed"]]
        phase_gaps = by_backend.setdefault(backend, {})
        latencies = confirm_by_backend.setdefault(backend, [])
        run_phase_gaps: Dict[str, List[float]] = {}
        for trace in confirmed:
            path_spans = critical_path(trace, backend)
            if not path_spans:
                continue
            created = path_spans[0]["end"]
            previous = created
            for span in path_spans[1:]:
                gap = max(0.0, span["end"] - previous)
                phase_gaps.setdefault(span["phase"], []).append(gap)
                run_phase_gaps.setdefault(span["phase"], []).append(gap)
                previous = max(previous, span["end"])
            if path_spans[-1]["phase"] == "confirmed":
                latencies.append(max(0.0, path_spans[-1]["end"] - created))
        runs.append({
            "path": str(path),
            "scenario": start["scenario"],
            "backend": backend,
            "seed": start["seed"],
            "sample": start["sample"],
            "blocks": len(traces),
            "confirmed": len(confirmed),
            "faults": sum(len(t["faults"]) for t in traces),
            "phases": {
                phase: {
                    "count": len(gaps),
                    "mean": sum(gaps) / len(gaps),
                    "p50": percentile(gaps, 0.50),
                    "p99": percentile(gaps, 0.99),
                }
                for phase, gaps in sorted(run_phase_gaps.items())
            },
        })
    attribution: Dict[str, Any] = {}
    for backend, phase_gaps in sorted(by_backend.items()):
        latencies = confirm_by_backend.get(backend, [])
        total = sum(sum(gaps) for gaps in phase_gaps.values())
        attribution[backend] = {
            "confirmed": len(latencies),
            "confirmation_p50": percentile(latencies, 0.50),
            "confirmation_p99": percentile(latencies, 0.99),
            "phases": {
                phase: {
                    "count": len(gaps),
                    "mean": sum(gaps) / len(gaps),
                    "p50": percentile(gaps, 0.50),
                    "p99": percentile(gaps, 0.99),
                    "share": (sum(gaps) / total) if total > 0 else 0.0,
                }
                for phase, gaps in sorted(phase_gaps.items())
            },
        }
    return {"runs": runs, "attribution": attribution}


def format_trace_report(report: Dict[str, Any]) -> str:
    """The aggregate report as aligned text tables."""
    lines: List[str] = []
    for run in report["runs"]:
        lines.append(
            f"{run['scenario']} [{run['backend']}] seed {run['seed']} "
            f"sample {run['sample']:g}: {run['blocks']} traced blocks, "
            f"{run['confirmed']} confirmed, {run['faults']} fault notes"
        )
    for backend, stats in report["attribution"].items():
        lines.append("")
        lines.append(
            f"backend {backend}: {stats['confirmed']} confirmed blocks, "
            f"confirmation latency p50 {stats['confirmation_p50']:.3f} "
            f"p99 {stats['confirmation_p99']:.3f} (slot time)"
        )
        if stats["phases"]:
            rows = [
                [
                    phase,
                    str(info["count"]),
                    f"{info['mean']:.3f}",
                    f"{info['p50']:.3f}",
                    f"{info['p99']:.3f}",
                    f"{100.0 * info['share']:.1f}%",
                ]
                for phase, info in stats["phases"].items()
            ]
            lines.append(format_table(
                ["phase", "count", "mean", "p50", "p99", "share"], rows
            ))
    return "\n".join(lines)


# -- waterfalls ----------------------------------------------------------------

#: Rows and bar columns of one :func:`block_waterfall`.
_WATERFALL_ROWS = 24
_WATERFALL_WIDTH = 60


def _waterfall_rows(
    trace: Dict[str, Any], backend: str
) -> Tuple[float, float, List[Dict[str, Any]]]:
    """Time bounds + the spans a waterfall shows (critical path first).

    The critical path is always included; remaining spans fill up to
    :data:`_WATERFALL_ROWS` rows in time order so dense gossip fans
    don't swamp the rendering.
    """
    spans = trace.get("spans", [])
    if not spans:
        return 0.0, 0.0, []
    chosen = critical_path(trace, backend)
    seen = {id(span) for span in chosen}
    for span in sorted(spans, key=lambda s: (s["start"], s["end"])):
        if len(chosen) >= _WATERFALL_ROWS:
            break
        if id(span) not in seen:
            seen.add(id(span))
            chosen.append(span)
    chosen.sort(key=lambda s: (
        s["start"], _phase_rank(backend, s["phase"]), s["end"], s["node"]
    ))
    t0 = min(span["start"] for span in chosen)
    t1 = max(span["end"] for span in chosen)
    return t0, t1, chosen


def block_waterfall(trace: Dict[str, Any], backend: str) -> str:
    """One block's span tree as an ASCII waterfall, 60 columns wide."""
    t0, t1, rows = _waterfall_rows(trace, backend)
    if not rows:
        return f"block {trace.get('block', '?')}: no spans"
    span_time = max(t1 - t0, 1e-9)
    lines = [
        f"block {trace['block']} (origin {trace['origin']}, "
        f"{'confirmed' if trace['confirmed'] else 'unconfirmed'}) "
        f"t=[{t0:.3f}, {t1:.3f}]"
    ]
    for span in rows:
        left = int((span["start"] - t0) / span_time * (_WATERFALL_WIDTH - 1))
        right = int((span["end"] - t0) / span_time * (_WATERFALL_WIDTH - 1))
        bar = [" "] * _WATERFALL_WIDTH
        for i in range(left, right + 1):
            bar[i] = "="
        bar[left] = "|"
        bar[min(right, _WATERFALL_WIDTH - 1)] = "|"
        label = f"{span['phase']:<12} n{span['node']:<4}"
        lines.append(
            f"  {label} [{''.join(bar)}] "
            f"{span['start']:.3f}→{span['end']:.3f}"
        )
    for note in trace.get("faults", []):
        lines.append(
            f"  fault @{note['time']:.3f} slot {note['slot']}: {note['detail']}"
        )
    return "\n".join(lines)

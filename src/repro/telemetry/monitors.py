"""Live invariant monitors over telemetry + trace streams.

Pure read-side probes evaluated over recorded streams (during or
after a run — streams are append-only JSONL, so a partial stream is
as probeable as a finished one).  Each monitor checks one invariant
the paper's experiments rely on:

* ``liveness-progress`` — the ledger makes confirmation progress: the
  backend's progress counter (blocks / consensus rounds / tangle
  size) grows over the run's observation windows.
* ``safety-monotone-growth`` — chain/tangle growth is monotone: no
  per-slot counter or storage/traffic series ever decreases.
* ``safety-no-conflicting-commits`` — no two distinct blocks commit
  at the same PBFT (view, sequence) slot, and no block key is traced
  twice.  The slot is per-view because the simplified view change
  does not transfer prepared certificates across views, so a later
  view may legitimately reassign an uncommitted sequence; the
  quorum-intersection guarantee the probe checks is within a view.
* ``fault-consistency`` — no span progress on crashed nodes: no
  ``created``/``gossiped`` span falls inside a node's crash window.

Verdicts land in a pinned-schema ``monitors`` document
(:data:`MONITOR_SCHEMA_VERSION`), consumed by ``campaign status``
and the optional ``--monitors strict`` gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.metrics.reporting import format_table
from repro.telemetry.stream import (
    BLOCK_TRACE,
    FAULT,
    SLOT,
    PathLike,
    Record,
    TelemetryError,
    read_streams,
    stream_start,
)

#: The pinned monitors-document schema version.
MONITOR_SCHEMA_VERSION = 1

MONITOR_PASS = "pass"
MONITOR_FAIL = "fail"
MONITOR_SKIP = "skip"
MONITOR_STATUSES = (MONITOR_PASS, MONITOR_FAIL, MONITOR_SKIP)

LIVENESS_PROGRESS = "liveness-progress"
SAFETY_MONOTONE = "safety-monotone-growth"
SAFETY_COMMITS = "safety-no-conflicting-commits"
FAULT_CONSISTENCY = "fault-consistency"
MONITOR_IDS = (
    LIVENESS_PROGRESS, SAFETY_MONOTONE, SAFETY_COMMITS, FAULT_CONSISTENCY
)

#: Backend progress counters the liveness probe watches, in preference
#: order (the first one present in the stream's counters is used).
_PROGRESS_COUNTERS = ("blocks", "consensus_rounds", "tangle_size")

#: Span phases that only an online/non-crashed node can produce, on
#: every backend (creation-path emissions).  Validation phases are
#: deliberately absent: a 2LDAG validator that crashes mid-PoP
#: legitimately completes its in-flight protocol run.
_ONLINE_ONLY_PHASES = ("created", "gossiped")

_EPSILON = 1e-9


def _verdict(monitor_id: str, status: str, detail: str) -> Dict[str, str]:
    return {"id": monitor_id, "status": status, "detail": detail}


# -- the probes ----------------------------------------------------------------

def _check_liveness(slot_records: List[Dict[str, Any]]) -> Dict[str, str]:
    if not slot_records:
        return _verdict(
            LIVENESS_PROGRESS, MONITOR_SKIP, "no slot records to probe"
        )
    counters = slot_records[-1].get("counters", {})
    key = next((k for k in _PROGRESS_COUNTERS if k in counters), None)
    if key is None:
        return _verdict(
            LIVENESS_PROGRESS, MONITOR_SKIP,
            "no known progress counter in stream",
        )
    final = counters[key]
    progressed = sum(
        1 for record in slot_records
        if record["counter_deltas"].get(key, 0.0) > 0
    )
    detail = (
        f"{key} reached {final:g} over {len(slot_records)} windows "
        f"({progressed} progressed)"
    )
    if final <= 0:
        return _verdict(
            LIVENESS_PROGRESS, MONITOR_FAIL, f"no progress: {detail}"
        )
    return _verdict(LIVENESS_PROGRESS, MONITOR_PASS, detail)


def _check_monotone(slot_records: List[Dict[str, Any]]) -> Dict[str, str]:
    if not slot_records:
        return _verdict(
            SAFETY_MONOTONE, MONITOR_SKIP, "no slot records to probe"
        )
    watched = 0
    for previous, record in zip(slot_records, slot_records[1:]):
        pairs = list(record.get("counters", {}).items()) + [
            (series_key, record["series"][series_key])
            for series_key in ("storage_mb", "traffic_mbit")
        ]
        for key, value in pairs:
            before = previous.get("counters", {}).get(key)
            if before is None:
                before = previous["series"].get(key)
            if before is None:
                continue
            watched += 1
            if value < before - _EPSILON:
                return _verdict(
                    SAFETY_MONOTONE, MONITOR_FAIL,
                    f"{key} shrank from {before:g} to {value:g} "
                    f"at slot {record['slot']}",
                )
    return _verdict(
        SAFETY_MONOTONE, MONITOR_PASS,
        f"{watched} counter/series transitions monotone",
    )


def _check_commits(
    backend: str, traces: Optional[List[Dict[str, Any]]]
) -> Dict[str, str]:
    if traces is None:
        return _verdict(
            SAFETY_COMMITS, MONITOR_SKIP, "no trace stream recorded"
        )
    seen_keys = set()
    for trace in traces:
        if trace["block"] in seen_keys:
            return _verdict(
                SAFETY_COMMITS, MONITOR_FAIL,
                f"block key {trace['block']!r} traced twice",
            )
        seen_keys.add(trace["block"])
    if backend != "pbft":
        return _verdict(
            SAFETY_COMMITS, MONITOR_PASS,
            f"{len(seen_keys)} unique block keys "
            f"(no sequence-commit semantics on {backend})",
        )
    by_sequence: Dict[Tuple[int, int], set] = {}
    for trace in traces:
        for span in trace["spans"]:
            if span["phase"] != "commit":
                continue
            detail = span.get("detail", {})
            if "seq" not in detail or "view" not in detail:
                continue
            slot = (int(detail["view"]), int(detail["seq"]))
            keys = by_sequence.setdefault(slot, set())
            keys.add(trace["block"])
            if len(keys) > 1:
                return _verdict(
                    SAFETY_COMMITS, MONITOR_FAIL,
                    f"view {slot[0]} sequence {slot[1]} committed "
                    f"conflicting blocks {sorted(keys)!r}",
                )
    return _verdict(
        SAFETY_COMMITS, MONITOR_PASS,
        f"{len(by_sequence)} committed (view, sequence) slots "
        f"conflict-free across {len(seen_keys)} traced blocks",
    )


def _crash_windows(
    fault_records: List[Dict[str, Any]]
) -> Dict[int, List[Tuple[float, Optional[float]]]]:
    """node -> [(crash time, rejoin time or None)…] from fault records."""
    windows: Dict[int, List[Tuple[float, Optional[float]]]] = {}
    open_index: Dict[int, int] = {}
    for record in fault_records:
        if record["kind"] == "node-crash":
            for node in record["nodes"]:
                windows.setdefault(node, []).append((record["time"], None))
                open_index[node] = len(windows[node]) - 1
        elif record["kind"] == "node-rejoin":
            for node in record["nodes"]:
                index = open_index.pop(node, None)
                if index is not None:
                    start, _ = windows[node][index]
                    windows[node][index] = (start, record["time"])
    return windows


def _check_fault_consistency(
    traces: Optional[List[Dict[str, Any]]],
    fault_records: Optional[List[Dict[str, Any]]],
) -> Dict[str, str]:
    if traces is None:
        return _verdict(
            FAULT_CONSISTENCY, MONITOR_SKIP, "no trace stream recorded"
        )
    if not fault_records:
        return _verdict(
            FAULT_CONSISTENCY, MONITOR_SKIP,
            "no node-crash faults in the stream",
        )
    windows = _crash_windows(
        [r for r in fault_records if r["kind"] in ("node-crash", "node-rejoin")]
    )
    if not windows:
        return _verdict(
            FAULT_CONSISTENCY, MONITOR_SKIP,
            "no node-crash faults in the stream",
        )
    checked = 0
    for trace in traces:
        for span in trace["spans"]:
            if span["phase"] not in _ONLINE_ONLY_PHASES:
                continue
            for start, end in windows.get(span["node"], ()):
                checked += 1
                inside = span["end"] > start + _EPSILON and (
                    end is None or span["end"] < end - _EPSILON
                )
                if inside:
                    return _verdict(
                        FAULT_CONSISTENCY, MONITOR_FAIL,
                        f"block {trace['block']!r} phase {span['phase']} "
                        f"on crashed node {span['node']} at "
                        f"t={span['end']:g} (crash window "
                        f"[{start:g}, {'∞' if end is None else f'{end:g}'})",
                    )
    return _verdict(
        FAULT_CONSISTENCY, MONITOR_PASS,
        f"{checked} creation-phase spans clear of "
        f"{sum(len(w) for w in windows.values())} crash windows",
    )


# -- evaluation ----------------------------------------------------------------

RunKey = Tuple[str, str, int]


def _runs_by_key(
    paths: Iterable[PathLike], version: int
) -> Dict[RunKey, Tuple[Path, List[Record]]]:
    """(scenario, backend, seed) -> (path, records) per headed stream."""
    runs: Dict[RunKey, Tuple[Path, List[Record]]] = {}
    for path, records in read_streams(paths, version):
        start = stream_start(records)
        if start is not None:
            key = (start["scenario"], start["backend"], start["seed"])
            runs[key] = (path, records)
    return runs


def evaluate_monitors(paths: Iterable[PathLike]) -> Dict[str, Any]:
    """Probe every stream under ``paths``; returns the verdict document.

    Streams pair up per run (scenario, backend, seed): the v1 per-slot
    stream feeds the liveness/monotone probes, the v2 trace stream
    feeds the commit/fault probes.  A run missing one kind of stream
    gets ``skip`` verdicts for the probes that need it.
    """
    paths = list(paths)
    v1_runs = _runs_by_key(paths, 1)
    trace_runs = _runs_by_key(paths, 2)

    runs: List[Dict[str, Any]] = []
    counts = {MONITOR_PASS: 0, MONITOR_FAIL: 0, MONITOR_SKIP: 0}
    for key in sorted(set(v1_runs) | set(trace_runs)):
        scenario, backend, seed = key
        _, v1_records = v1_runs.get(key, (None, []))
        slot_records = [r for r in v1_records if r["event"] == SLOT]
        trace = trace_runs.get(key)
        traces = None
        fault_records = None
        if trace is not None:
            traces = [r for r in trace[1] if r["event"] == BLOCK_TRACE]
            fault_records = [r for r in trace[1] if r["event"] == FAULT]
        verdicts = [
            _check_liveness(slot_records)
            if key in v1_runs
            else _verdict(
                LIVENESS_PROGRESS, MONITOR_SKIP, "no per-slot stream recorded"
            ),
            _check_monotone(slot_records)
            if key in v1_runs
            else _verdict(
                SAFETY_MONOTONE, MONITOR_SKIP, "no per-slot stream recorded"
            ),
            _check_commits(backend, traces),
            _check_fault_consistency(traces, fault_records),
        ]
        for verdict in verdicts:
            counts[verdict["status"]] += 1
        streams = [
            str(family[key][0])
            for family in (v1_runs, trace_runs) if key in family
        ]
        runs.append({
            "scenario": scenario,
            "backend": backend,
            "seed": seed,
            "streams": streams,
            "monitors": verdicts,
        })
    return {
        "v": MONITOR_SCHEMA_VERSION,
        "runs": runs,
        "counts": counts,
        "status": MONITOR_FAIL if counts[MONITOR_FAIL] else MONITOR_PASS,
    }


def validate_monitor_document(document: Any) -> None:
    """Raise :class:`TelemetryError` unless ``document`` fits the schema."""
    if not isinstance(document, dict):
        raise TelemetryError("monitors document must be a JSON object")
    if document.get("v") != MONITOR_SCHEMA_VERSION:
        raise TelemetryError(
            f"monitors schema version {document.get('v')!r} is not the "
            f"pinned {MONITOR_SCHEMA_VERSION}"
        )
    expected = {"v", "runs", "counts", "status"}
    if set(document) != expected:
        raise TelemetryError(
            f"monitors document must carry exactly {sorted(expected)}, "
            f"got {sorted(document)}"
        )
    if document["status"] not in (MONITOR_PASS, MONITOR_FAIL):
        raise TelemetryError(
            f"monitors status must be pass/fail, got {document['status']!r}"
        )
    counts = document["counts"]
    if not isinstance(counts, dict) or set(counts) != set(MONITOR_STATUSES):
        raise TelemetryError(
            f"monitors counts must carry exactly {list(MONITOR_STATUSES)}"
        )
    if not isinstance(document["runs"], list):
        raise TelemetryError("monitors runs must be a list")
    for index, run in enumerate(document["runs"]):
        what = f"runs[{index}]"
        if not isinstance(run, dict):
            raise TelemetryError(f"{what} must be an object")
        for name, types in (
            ("scenario", str), ("backend", str), ("seed", int),
            ("streams", list), ("monitors", list),
        ):
            if not isinstance(run.get(name), types):
                raise TelemetryError(f"{what} lacks a valid {name!r}")
        for verdict in run["monitors"]:
            if not isinstance(verdict, dict) or set(verdict) != {
                "id", "status", "detail"
            }:
                raise TelemetryError(
                    f"{what} verdicts must carry exactly id/status/detail"
                )
            if verdict["id"] not in MONITOR_IDS:
                raise TelemetryError(
                    f"{what} names unknown monitor {verdict['id']!r}"
                )
            if verdict["status"] not in MONITOR_STATUSES:
                raise TelemetryError(
                    f"{what} has unknown status {verdict['status']!r}"
                )


def load_monitor_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Read + validate a monitors document written by the CLI."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TelemetryError(f"{path}: {error}") from None
    validate_monitor_document(document)
    return document


def format_monitor_table(document: Dict[str, Any]) -> str:
    """The verdict document as an aligned text table."""
    rows = []
    for run in document["runs"]:
        for verdict in run["monitors"]:
            rows.append([
                run["scenario"],
                run["backend"],
                str(run["seed"]),
                verdict["id"],
                verdict["status"],
                verdict["detail"],
            ])
    counts = document["counts"]
    summary = (
        f"monitors: {document['status']} "
        f"({counts[MONITOR_PASS]} pass, {counts[MONITOR_FAIL]} fail, "
        f"{counts[MONITOR_SKIP]} skip)"
    )
    if not rows:
        return summary + "\n(no streams probed)"
    table = format_table(
        ["scenario", "backend", "seed", "monitor", "status", "detail"], rows
    )
    return summary + "\n" + table

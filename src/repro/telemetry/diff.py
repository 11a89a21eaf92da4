"""Where two runs' telemetry streams first differ.

``python -m repro telemetry diff A B`` compares two stream files, or
two telemetry directories whose streams are paired by file name.  Every
stream is read through the one scan loop
(:func:`~repro.telemetry.stream.parse_stream` at the version its file
name declares), so torn or hostile input fails with the reader's typed,
located :class:`~repro.telemetry.stream.TelemetryError`.

Two records are equal when their canonical lines are, so equal streams
are byte-identical streams.  The first difference is named by its
stream, its record (1-based, in stream order) and ``event``, the
record's ``slot`` or ``block``, for a ``block-trace`` the first
differing span's ``phase`` and ``node``, and every differing leaf as a
dotted key with both values (``counters.events: 840.0 → 842.0``).  A
stream, or a record, present on one side only is a difference too.
"""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.canonical import canonical_json
from repro.telemetry.stream import (
    BLOCK_TRACE,
    RUN_START,
    TRACE_START,
    PathLike,
    Record,
    TelemetryError,
    discover_streams,
    parse_stream,
    stream_version,
)

#: A differing header is reported and the scan goes on to the first
#: differing body record: what was run differently, then where it shows.
_HEADERS = (RUN_START, TRACE_START)

Side = Optional[Tuple[Path, List[Record]]]


def _read(path: Path) -> Tuple[Path, List[Record]]:
    text = path.read_text(encoding="utf-8")
    return path, parse_stream(text, str(path), stream_version(path))


def _pairs(a: PathLike, b: PathLike) -> List[Tuple[Side, Side]]:
    """Both sides' streams, parsed: one pair for two files, else paired
    by file name in name order (``None`` where a side lacks it)."""
    if Path(a).is_file() and Path(b).is_file():
        return [(_read(Path(a)), _read(Path(b)))]
    left = {path.name: path for path in discover_streams([a])}
    right = {path.name: path for path in discover_streams([b])}
    if not left and not right:
        raise TelemetryError(f"no telemetry streams under {a} or {b}")
    return [
        (_read(left[name]) if name in left else None,
         _read(right[name]) if name in right else None)
        for name in sorted({*left, *right})
    ]


def _leaves(value: Any, key: str = "") -> Dict[str, str]:
    """Every scalar under ``value``: dotted key -> canonical JSON."""
    if not isinstance(value, (dict, list)):
        return {key: canonical_json(value)}
    items = value.items() if isinstance(value, dict) else enumerate(value)
    found: Dict[str, str] = {}
    for name, item in items:
        found.update(_leaves(item, f"{key}.{name}" if key else str(name)))
    return found


def _describe(
    index: int, a: Optional[Record], b: Optional[Record]
) -> List[str]:
    """The located report of the first differing record pair."""
    record = a or b or {}
    where = f"record {index + 1} [{record['event']}]"
    for key in ("slot", "block"):
        if key in record:
            where += f" {key} {record[key]}"
    if a is None or b is None:
        return [f"{where}: only in {'A' if b is None else 'B'}"]
    if record["event"] == BLOCK_TRACE:
        for span_a, span_b in zip_longest(a["spans"], b["spans"]):
            if canonical_json(span_a) != canonical_json(span_b):
                span = span_a or span_b
                where += (f", first differing span: phase {span['phase']}"
                          f" node {span['node']}")
                break
    left, right = _leaves(a), _leaves(b)
    return [where] + [
        f"  {key}: {left.get(key, '(absent)')} → {right.get(key, '(absent)')}"
        for key in dict.fromkeys([*left, *right])
        if left.get(key) != right.get(key)
    ]


def diff_streams(a: PathLike, b: PathLike) -> Tuple[bool, str]:
    """(identical?, report) for the streams under ``a`` and ``b``."""
    pairs, records = _pairs(a, b), 0
    for left, right in pairs:
        if left is None or right is None:
            only, (path, _) = ("B", right) if left is None else ("A", left)
            return False, f"stream only in {only}: {path}"
        lines = [f"streams differ: {left[0]} vs {right[0]}"]
        for index, (x, y) in enumerate(zip_longest(left[1], right[1])):
            if canonical_json(x) != canonical_json(y):
                lines += _describe(index, x, y)
                if (x or y)["event"] not in _HEADERS:
                    break
        if len(lines) > 1:
            return False, "\n".join(lines)
        records += len(left[1])
    return True, f"identical: {len(pairs)} stream(s), {records} record(s)"

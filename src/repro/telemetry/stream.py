"""The on-disk format of both telemetry stream families, in one place.

A stream is an append-only JSONL file under the telemetry directory;
every record carries its schema version as ``v`` and its kind as
``event``.  Two families share the format:

* **v1** — the per-slot run stream written by
  :class:`~repro.telemetry.events.TelemetryRecorder`
  (``run-<scenario>-<backend>-seed<seed>.jsonl``);
* **v2** — the block-lifecycle trace stream written by
  :class:`~repro.telemetry.spans.SpanRecorder` (``trace-….jsonl``),
  which ends in a self-certifying ``trace-end`` record.

How a record becomes a line and is read back is decided here once:
:data:`SCHEMAS` is the one table of pinned record shapes (adding a kind
or a field bumps the version), :func:`validate_record` the one
validator, :func:`parse_stream` / :func:`validate_stream` two faces of
the one scan loop, :class:`StreamWriter` the one open/truncate/append
path and :func:`read_streams` / :func:`validate_streams` the one
reader.  Recorders keep only their record construction.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.canonical import canonical_json, sha256_lines

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec

Record = Dict[str, Any]
FieldTable = Mapping[str, Tuple[type, ...]]
PathLike = Union[str, Path]

#: Record kinds, in emission order (``fault`` exists in both families).
RUN_START = "run-start"
SLOT = "slot"
FAULT = "fault"
RUN_END = "run-end"
TRACE_START = "trace-start"
BLOCK_TRACE = "block-trace"
TRACE_END = "trace-end"

#: The series keys every ``slot`` record carries (the runner's
#: canonical sampled series — see repro.scenario.runner.SERIES_KEYS).
SLOT_SERIES_KEYS = (
    "storage_mb", "traffic_mbit", "traffic_dag_mbit", "traffic_pop_mbit"
)

_NUMBER = (int, float)
_RUN_HEADER: FieldTable = {
    "scenario": (str,),
    "backend": (str,),
    "nodes": (int,),
    "slots": (int,),
    "seed": (int,),
}
_FAULT: FieldTable = {"slot": (int,), "kind": (str,), "detail": (str,)}

#: One entry of ``block-trace.faults``: a v1 fault plus its slot time.
FAULT_NOTE_FIELDS: FieldTable = {**_FAULT, "time": _NUMBER}

#: version -> record kind -> field -> allowed python type(s).  A bool
#: passes only where ``bool`` is listed.
SCHEMAS: Dict[int, Dict[str, FieldTable]] = {
    1: {
        RUN_START: _RUN_HEADER,
        SLOT: {
            "slot": (int,),
            "slots_covered": (int,),
            "sim_now": _NUMBER,
            "series": (dict,),
            "deltas": (dict,),
            "counters": (dict,),
            "counter_deltas": (dict,),
        },
        FAULT: _FAULT,
        RUN_END: {
            "slot": (int,),
            "sim_now": _NUMBER,
            "blocks": (int,),
            "validations": (int,),
            "success_rate": _NUMBER,
            "events": (int,),
            "trace_sha256": (str,),
        },
    },
    2: {
        TRACE_START: {**_RUN_HEADER, "sample": _NUMBER},
        FAULT: {**FAULT_NOTE_FIELDS, "nodes": (list,)},
        BLOCK_TRACE: {
            "block": (str,),
            "origin": (int,),
            "confirmed": (bool,),
            "spans": (list,),
            "faults": (list,),
        },
        TRACE_END: {
            "blocks": (int,),
            "spans": (int,),
            "digest": (str,),
        },
    },
}

#: One entry of ``block-trace.spans`` (plus an optional ``detail``).
SPAN_FIELDS: FieldTable = {
    "phase": (str,),
    "node": (int,),
    "slot": (int,),
    "start": _NUMBER,
    "end": _NUMBER,
}


class TelemetryError(ValueError):
    """A telemetry record or stream that violates the pinned schema."""


# -- validation ----------------------------------------------------------------

def _has_type(value: Any, types: Tuple[type, ...]) -> bool:
    """The one type rule: a bool passes only where ``bool`` is listed,
    and a float only when it is finite (JSON has no NaN or Infinity)."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, types) and (
        bool in types or not isinstance(value, bool)
    )


def _type_name(value: Any) -> str:
    """How a defect message names the type of ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"non-finite float {value!r}"
    return type(value).__name__


def _check_fields(
    record: Any,
    spec: FieldTable,
    what: str,
    where: str,
    extra_ok: Iterable[str] = (),
) -> None:
    if not isinstance(record, dict):
        raise TelemetryError(f"{where}{what} must be a JSON object")
    for name, types in spec.items():
        if name not in record:
            raise TelemetryError(f"{where}{what} lacks field {name!r}")
        value = record[name]
        if not _has_type(value, types):
            raise TelemetryError(
                f"{where}{what} field {name!r} has type "
                f"{_type_name(value)}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    unknown = set(record) - set(spec) - set(extra_ok)
    if unknown:
        raise TelemetryError(
            f"{where}{what} carries unknown field(s): "
            f"{', '.join(sorted(unknown))}"
        )


def _check_slot(record: Record, where: str) -> None:
    for name in ("series", "deltas"):
        if sorted(record[name]) != sorted(SLOT_SERIES_KEYS):
            raise TelemetryError(
                f"{where}slot {name} must carry exactly "
                f"{list(SLOT_SERIES_KEYS)}, got {sorted(record[name])}"
            )
    for name in ("series", "deltas", "counters", "counter_deltas"):
        for key, value in record[name].items():
            if not _has_type(value, _NUMBER):
                raise TelemetryError(
                    f"{where}slot {name}[{key!r}] must be numeric, "
                    f"got {_type_name(value)}"
                )
    if sorted(record["counters"]) != sorted(record["counter_deltas"]):
        raise TelemetryError(
            f"{where}slot counters and counter_deltas must carry the "
            f"same keys"
        )


def _check_fault_nodes(record: Record, where: str) -> None:
    if not all(_has_type(node, (int,)) for node in record["nodes"]):
        raise TelemetryError(f"{where}fault record nodes must be integers")


def _check_detail(detail: Any, what: str, where: str) -> None:
    if not isinstance(detail, dict):
        raise TelemetryError(f"{where}{what} detail must be an object")
    for key, value in detail.items():
        if isinstance(value, list):
            if all(isinstance(item, str) for item in value):
                continue
            raise TelemetryError(
                f"{where}{what} detail[{key!r}] list items must be strings"
            )
        if not isinstance(value, (str, int, float, bool)):
            raise TelemetryError(
                f"{where}{what} detail[{key!r}] has unsupported type "
                f"{type(value).__name__}"
            )


def _check_block_trace(record: Record, where: str) -> None:
    for index, span in enumerate(record["spans"]):
        what = f"span[{index}]"
        _check_fields(span, SPAN_FIELDS, what, where, extra_ok=("detail",))
        if "detail" in span:
            _check_detail(span["detail"], what, where)
        if span["end"] < span["start"]:
            raise TelemetryError(
                f"{where}{what} ends before it starts "
                f"({span['end']!r} < {span['start']!r})"
            )
    for index, note in enumerate(record["faults"]):
        _check_fields(note, FAULT_NOTE_FIELDS, f"fault-note[{index}]", where)


#: (version, kind) -> the check of what the flat field table cannot say.
_DEEP_CHECKS: Dict[Tuple[int, str], Callable[[Record, str], None]] = {
    (1, SLOT): _check_slot,
    (2, FAULT): _check_fault_nodes,
    (2, BLOCK_TRACE): _check_block_trace,
}


def validate_record(record: Any, line: int = 0) -> None:
    """Raise :class:`TelemetryError` unless ``record`` fits the schema
    of the version it declares."""
    where = f"line {line}: " if line else ""
    if not isinstance(record, dict):
        raise TelemetryError(f"{where}record must be a JSON object")
    version, kind = record.get("v"), record.get("event")
    # ``True == 1`` and hashes alike, so the type is checked before the
    # lookup; the type checks also keep unhashable values out of it.
    if not _has_type(version, (int,)) or version not in SCHEMAS:
        raise TelemetryError(
            f"{where}schema version {version!r} is not a pinned one "
            f"({', '.join(str(known) for known in SCHEMAS)})"
        )
    kinds = SCHEMAS[version]
    if not isinstance(kind, str) or kind not in kinds:
        raise TelemetryError(
            f"{where}unknown event kind {kind!r} in a v{version} stream; "
            f"known: {', '.join(kinds)}"
        )
    _check_fields(
        record, kinds[kind], f"{kind} record", where, extra_ok=("v", "event")
    )
    deep = _DEEP_CHECKS.get((version, kind))
    if deep is not None:
        deep(record, where)


def _certify(records: List[Record]) -> None:
    """Check a finished v2 stream against its own ``trace-end``: the
    block and span counts, and the SHA-256 over the canonical lines of
    every record before it (the witness determinism tests pin)."""
    end, body = records[-1], records[:-1]
    traces = [r for r in body if r["event"] == BLOCK_TRACE]
    blocks, spans = len(traces), sum(len(r["spans"]) for r in traces)
    if (end["blocks"], end["spans"]) != (blocks, spans):
        raise TelemetryError(
            f"trace-end counts ({end['blocks']} blocks, {end['spans']} "
            f"spans) disagree with the stream ({blocks} blocks, "
            f"{spans} spans)"
        )
    digest = sha256_lines(canonical_json(record) for record in body)
    if end["digest"] != digest:
        raise TelemetryError(
            f"trace-end digest {end['digest']} disagrees with the "
            f"recomputed stream digest {digest}"
        )


def _scan(
    text: str, source: str, version: Optional[int], records: List[Record]
) -> Iterator[str]:
    """The one JSONL loop: fill ``records``, yield each defect located.

    Every record must fit its schema and carry the stream's one
    version (``version``, or the first record's), and nothing may
    follow a ``trace-end``.  A defect-free stream that ends in
    ``trace-end`` is certified against it; one still being recorded
    has no terminal yet and parses as it stands.
    """
    clean = True
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as error:
                raise TelemetryError(
                    f"line {number}: not valid JSON ({error})"
                )
            validate_record(record, line=number)
            if version is None:
                version = record["v"]
            if record["v"] != version:
                raise TelemetryError(
                    f"line {number}: schema version {record['v']} in a "
                    f"v{version} stream"
                )
            if records and records[-1]["event"] == TRACE_END:
                raise TelemetryError(
                    f"line {number}: {record['event']} record after the "
                    f"terminal trace-end"
                )
        except TelemetryError as error:
            clean = False
            yield f"{source}: {error}"
            continue
        records.append(record)
    if clean and records and records[-1]["event"] == TRACE_END:
        try:
            _certify(records)
        except TelemetryError as error:
            yield f"{source}: {error}"


def parse_stream(
    text: str, source: str = "<stream>", version: Optional[int] = None
) -> List[Record]:
    """Parse and validate one JSONL stream; raises on the first defect."""
    records: List[Record] = []
    for defect in _scan(text, source, version, records):
        raise TelemetryError(defect)
    return records


def validate_stream(
    text: str, source: str = "<stream>", version: Optional[int] = None
) -> List[str]:
    """Every schema violation in ``text`` as messages (empty = clean)."""
    return list(_scan(text, source, version, []))


# -- the writer ----------------------------------------------------------------

_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")
_NAME_PREFIX = {1: "run", 2: "trace"}


def stream_filename(version: int, scenario: str, backend: str, seed: int) -> str:
    """The deterministic file name of one run's stream of ``version``."""
    safe = _UNSAFE_NAME.sub("-", scenario) or "scenario"
    return f"{_NAME_PREFIX[version]}-{safe}-{backend}-seed{seed}.jsonl"


class StreamWriter:
    """Open, truncate and append one run's stream of :attr:`version`.

    Subclasses build the records; every record is stamped with the
    version and validated against the pinned schema before it is
    written, so a drifting instrumentation site fails loudly in tests
    rather than silently corrupting streams.  Writes are plain appends
    of whole lines (the journal idiom); :meth:`_open` removes any
    previous stream of the same run name so a re-run leaves a clean,
    byte-deterministic file.
    """

    version = 0

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.path: Optional[Path] = None
        self.records_written = 0

    def _open(self, spec: "ScenarioSpec") -> Record:
        """Start ``spec``'s stream afresh; returns the start-record fields."""
        self.path = self.directory / stream_filename(
            self.version, spec.name, spec.backend, spec.seed
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        self.records_written = 0
        return {
            "scenario": spec.name,
            "backend": spec.backend,
            "nodes": spec.node_count,
            "slots": spec.workload.slots,
            "seed": spec.seed,
        }

    def _write(self, *records: Record) -> List[str]:
        """Append ``records`` in one write; returns their canonical lines."""
        if self.path is None:
            raise TelemetryError(
                "stream not opened; run_started() must come first"
            )
        lines: List[str] = []
        for record in records:
            record = {**record, "v": self.version}
            validate_record(record)
            lines.append(canonical_json(record))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        self.records_written += len(lines)
        return lines


# -- the reader ----------------------------------------------------------------

def stream_version(path: PathLike) -> int:
    """The schema version a stream file's name declares (``trace-*`` is
    v2; anything else is read as a v1 per-slot stream)."""
    name = Path(path).name
    trace = name.startswith(_NAME_PREFIX[2] + "-") and name.endswith(".jsonl")
    return 2 if trace else 1


def discover_streams(paths: Iterable[PathLike]) -> List[Path]:
    """Stream files under ``paths`` (files verbatim, dirs globbed)."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.glob("*.jsonl")))
        elif path.is_file():
            found.append(path)
        else:
            raise TelemetryError(f"no such telemetry file or directory: {raw}")
    return list(dict.fromkeys(found))


def read_stream_text(path: Path) -> str:
    """A stream file's text; bytes that are not UTF-8 are a located error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise TelemetryError(
            f"{path}: not UTF-8 text (byte {error.start})"
        ) from None


def read_streams(
    paths: Iterable[PathLike], version: int
) -> List[Tuple[Path, List[Record]]]:
    """Parse+validate every ``version`` stream under ``paths``.

    Both families share the directory and the ``.jsonl`` suffix; the
    other family's files are skipped.  Raises on the first defect.
    """
    return [
        (path, parse_stream(read_stream_text(path), str(path), version))
        for path in discover_streams(paths)
        if stream_version(path) == version
    ]


def validate_streams(
    paths: Iterable[PathLike],
) -> Tuple[List[Path], int, List[str]]:
    """Every stream under ``paths`` checked against the version its
    name declares: (stream files, records seen, every defect)."""
    streams = discover_streams(paths)
    records = 0
    defects: List[str] = []
    for path in streams:
        text = read_stream_text(path)
        records += sum(1 for line in text.splitlines() if line.strip())
        defects.extend(validate_stream(text, str(path), stream_version(path)))
    return streams, records, defects


def stream_start(records: Iterable[Record]) -> Optional[Record]:
    """The stream's ``run-start`` / ``trace-start`` record, if it has one."""
    return next(
        (r for r in records if r.get("event") in (RUN_START, TRACE_START)),
        None,
    )

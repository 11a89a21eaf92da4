"""Opt-in observability: structured event streams, traces and monitors.

Dependency-free and deterministic:

* :mod:`repro.telemetry.stream` — the on-disk format of both stream
  families (v1 per-slot, v2 block-trace): one schema table, one
  validator, one reader, one writer.
* :mod:`repro.telemetry.events` — the :class:`TelemetryRecorder`
  emitting each run's pinned-schema per-slot JSONL stream;
  :mod:`repro.telemetry.summarize` is the read side (per-run tables
  and JSON for ``python -m repro telemetry summarize``).

On top, block-lifecycle tracing and invariant monitoring:

* :mod:`repro.telemetry.spans` — the :class:`SpanRecorder` and
  per-backend span collectors writing each run's v2 block-trace
  stream (a deterministic sample of blocks, one span tree per block);
* :mod:`repro.telemetry.tracepath` — critical-path latency
  attribution and ASCII waterfalls over trace streams
  (``python -m repro telemetry trace``);
* :mod:`repro.telemetry.diff` — the first place two runs' streams
  differ (``python -m repro telemetry diff A B``);
* :mod:`repro.telemetry.monitors` — read-side liveness/safety/
  fault-consistency probes producing a pinned-schema verdict document
  (``campaign run --monitors``).

A campaign's harness history (cell outcomes, failed attempts, retries,
pool respawns, per-cell wall clock) is its journal, read by ``campaign
status`` (:mod:`repro.campaign`).

Telemetry is strictly write-only observation: enabling it never feeds
back into simulation decisions, so seeded trace digests and campaign
cell digests are byte-identical with telemetry (and tracing) on or
off (CI-gated).  See docs/observability.md.
"""

from repro.telemetry.events import (
    SCHEMA_VERSION,
    TELEMETRY_ENV_VAR,
    TelemetryRecorder,
    telemetry_dir_from_env,
)
from repro.telemetry.monitors import (
    MONITOR_IDS,
    MONITOR_SCHEMA_VERSION,
    evaluate_monitors,
    format_monitor_table,
    load_monitor_document,
    validate_monitor_document,
)
from repro.telemetry.spans import (
    SPAN_SCHEMA_VERSION,
    TRACE_SAMPLE_ENV_VAR,
    SpanRecorder,
    block_sampled,
    run_recorders,
    trace_sample_from_env,
    trace_sample_rate,
)
from repro.telemetry.stream import (
    FAULT,
    RUN_END,
    RUN_START,
    SCHEMAS,
    SLOT,
    SLOT_SERIES_KEYS,
    TelemetryError,
    discover_streams,
    parse_stream,
    read_streams,
    stream_filename,
    stream_start,
    stream_version,
    validate_record,
    validate_stream,
    validate_streams,
)
from repro.telemetry.summarize import (
    format_summary_table,
    summarize_records,
    summarize_streams,
)
from repro.telemetry.tracepath import (
    block_waterfall,
    critical_path,
    format_trace_report,
    trace_report,
)

__all__ = [
    "FAULT",
    "MONITOR_IDS",
    "MONITOR_SCHEMA_VERSION",
    "RUN_END",
    "RUN_START",
    "SCHEMAS",
    "SCHEMA_VERSION",
    "SLOT",
    "SLOT_SERIES_KEYS",
    "SPAN_SCHEMA_VERSION",
    "SpanRecorder",
    "TELEMETRY_ENV_VAR",
    "TRACE_SAMPLE_ENV_VAR",
    "TelemetryError",
    "TelemetryRecorder",
    "block_sampled",
    "block_waterfall",
    "critical_path",
    "discover_streams",
    "evaluate_monitors",
    "format_monitor_table",
    "format_summary_table",
    "format_trace_report",
    "load_monitor_document",
    "parse_stream",
    "read_streams",
    "run_recorders",
    "stream_filename",
    "stream_start",
    "stream_version",
    "summarize_records",
    "summarize_streams",
    "telemetry_dir_from_env",
    "trace_report",
    "trace_sample_from_env",
    "trace_sample_rate",
    "validate_monitor_document",
    "validate_record",
    "validate_stream",
    "validate_streams",
]

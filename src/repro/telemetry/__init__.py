"""Opt-in observability: metrics registry + structured event streams.

Two halves, both dependency-free and deterministic:

* :mod:`repro.telemetry.metrics` — a process-local
  :class:`MetricsRegistry` of Counter/Gauge/Histogram families with
  labels and byte-stable Prometheus text exposition.
* :mod:`repro.telemetry.stream` — the on-disk format of both stream
  families (v1 per-slot, v2 block-trace): one schema table, one
  validator, one reader, one writer.
* :mod:`repro.telemetry.events` — the :class:`TelemetryRecorder`
  emitting each run's pinned-schema per-slot JSONL stream;
  :mod:`repro.telemetry.summarize` is the read side (tables +
  exposition for ``python -m repro telemetry ...``).

On top, block-lifecycle tracing and invariant monitoring:

* :mod:`repro.telemetry.spans` — the :class:`SpanRecorder` and
  per-backend span collectors writing each run's v2 block-trace
  stream (a deterministic sample of blocks, one span tree per block);
* :mod:`repro.telemetry.tracepath` — critical-path latency
  attribution, waterfalls and SVG rendering over trace streams
  (``python -m repro telemetry trace``);
* :mod:`repro.telemetry.monitors` — read-side liveness/safety/
  fault-consistency probes producing a pinned-schema verdict document
  (``campaign run --monitors``).

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
from repro.telemetry.metrics import (
    COUNTER,
    DEFAULT_BUCKETS,
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsError,
    MetricsRegistry,
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
    trace_sample_from_env,
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
    export_prometheus,
    format_summary_table,
    registry_from_records,
    summarize_records,
    summarize_streams,
)
from repro.telemetry.tracepath import (
    block_waterfall,
    critical_path,
    format_trace_report,
    trace_report,
    waterfall_figure,
    waterfall_svg,
)

__all__ = [
    "COUNTER",
    "DEFAULT_BUCKETS",
    "FAULT",
    "GAUGE",
    "HISTOGRAM",
    "MONITOR_IDS",
    "MONITOR_SCHEMA_VERSION",
    "Metric",
    "MetricsError",
    "MetricsRegistry",
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
    "export_prometheus",
    "format_monitor_table",
    "format_summary_table",
    "format_trace_report",
    "load_monitor_document",
    "parse_stream",
    "read_streams",
    "registry_from_records",
    "stream_filename",
    "stream_start",
    "stream_version",
    "summarize_records",
    "summarize_streams",
    "telemetry_dir_from_env",
    "trace_report",
    "trace_sample_from_env",
    "validate_monitor_document",
    "validate_record",
    "validate_stream",
    "validate_streams",
    "waterfall_figure",
    "waterfall_svg",
]

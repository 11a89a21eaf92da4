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
  fault-consistency probes whose verdicts are evaluated from the
  streams when asked, never stored (``campaign run --monitors``,
  ``campaign status --telemetry``).

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
from repro.telemetry.spans import (
    TRACE_SAMPLE_ENV_VAR,
    SpanRecorder,
    run_recorders,
    trace_sample_from_env,
    trace_sample_rate,
)
from repro.telemetry.stream import (
    SCHEMAS,
    SLOT_SERIES_KEYS,
    TelemetryError,
    discover_streams,
    parse_stream,
    read_streams,
    stream_filename,
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

__all__ = [
    "SCHEMAS",
    "SCHEMA_VERSION",
    "SLOT_SERIES_KEYS",
    "SpanRecorder",
    "TELEMETRY_ENV_VAR",
    "TRACE_SAMPLE_ENV_VAR",
    "TelemetryError",
    "TelemetryRecorder",
    "discover_streams",
    "format_summary_table",
    "parse_stream",
    "read_streams",
    "run_recorders",
    "stream_filename",
    "stream_version",
    "summarize_records",
    "summarize_streams",
    "telemetry_dir_from_env",
    "trace_sample_from_env",
    "trace_sample_rate",
    "validate_record",
    "validate_stream",
    "validate_streams",
]

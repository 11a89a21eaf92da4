"""Structured per-slot telemetry event streams (versioned JSONL).

A :class:`TelemetryRecorder` turns one scenario run into an append-only
JSONL stream of typed events, written under an opt-in telemetry
directory (``--telemetry DIR`` / ``$REPRO_TELEMETRY``).  The stream is
pure *observation*: the :class:`~repro.scenario.runner.ScenarioRunner`
emits events from state it already reads (backend samples, fault
engine applications, result totals), so a telemetry-enabled run drives
the simulation identically to a disabled one — seeded trace digests
are byte-for-byte the same either way, which CI gates.

Timestamps are **slot time** (the workload's slot counter plus the
kernel's simulated clock ``sim_now``), never the wall clock: streams
from two machines of different speeds are byte-comparable.

Event schema (``v`` = :data:`SCHEMA_VERSION`, pinned; adding a kind or
a field bumps it)::

    run-start  {v, event, scenario, backend, nodes, slots, seed}
    slot       {v, event, slot, slots_covered, sim_now,
                series: {storage_mb, traffic_mbit,
                         traffic_dag_mbit, traffic_pop_mbit},
                deltas:  {… same keys, change since previous record …},
                counters: {backend-specific montonic totals},
                counter_deltas: {… change since previous record …}}
    fault      {v, event, slot, kind, detail}
    run-end    {v, event, slot, sim_now, blocks, validations,
                success_rate, events, trace_sha256}

``slot`` events fire at the runner's existing slot boundaries (sample
slots, fault boundaries, the final slot) — telemetry never adds
boundaries, because chunking is observable to some backends (PBFT
settles per driven chunk).  Each record therefore covers
``slots_covered`` slots ending at ``slot``.

The schema table, the validator, the reader and the append path live
in :mod:`repro.telemetry.stream`, shared with the v2 trace streams;
this module keeps only what is particular to v1: which records a run
emits and the delta bookkeeping between ``slot`` records.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional

from repro.telemetry.stream import (
    FAULT,
    RUN_END,
    RUN_START,
    SLOT,
    SLOT_SERIES_KEYS,
    PathLike,
    StreamWriter,
)

#: The pinned stream schema version; every record carries it as ``v``.
SCHEMA_VERSION = 1

#: Environment override enabling telemetry without a CLI flag.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"


def telemetry_dir_from_env() -> Optional[str]:
    """The ``$REPRO_TELEMETRY`` directory, or ``None`` when unset."""
    value = os.environ.get(TELEMETRY_ENV_VAR, "").strip()
    return value or None


def _deltas(now: Dict[str, float], last: Dict[str, float]) -> Dict[str, float]:
    """Each value's change since the previous record (absent = from 0)."""
    return {key: value - last.get(key, 0.0) for key, value in now.items()}


class TelemetryRecorder(StreamWriter):
    """Write one run's event stream under a telemetry directory.

    The recorder is handed to a
    :class:`~repro.scenario.runner.ScenarioRunner`; the runner calls
    the ``run_started`` / ``slot_advanced`` / ``fault_applied`` /
    ``run_finished`` hooks and the recorder does the bookkeeping
    (per-record deltas, record construction); the
    :class:`~repro.telemetry.stream.StreamWriter` base validates and
    appends.
    """

    version = SCHEMA_VERSION

    def __init__(self, directory: PathLike) -> None:
        super().__init__(directory)
        self._last_series: Dict[str, float] = {}
        self._last_counters: Dict[str, float] = {}

    def run_started(self, spec) -> None:
        """Open the stream and emit the ``run-start`` record."""
        header = self._open(spec)
        self._last_series = {}
        self._last_counters = {}
        self._write({"event": RUN_START, **header})

    def slot_advanced(
        self,
        slot: int,
        slots_covered: int,
        sim_now: float,
        series: Mapping[str, float],
        counters: Mapping[str, float],
    ) -> None:
        """Emit one ``slot`` record (deltas computed vs the previous)."""
        series_now = {key: float(series[key]) for key in SLOT_SERIES_KEYS}
        counters_now = {key: float(value) for key, value in counters.items()}
        self._write({
            "event": SLOT,
            "slot": slot,
            "slots_covered": slots_covered,
            "sim_now": float(sim_now),
            "series": series_now,
            "deltas": _deltas(series_now, self._last_series),
            "counters": counters_now,
            "counter_deltas": _deltas(counters_now, self._last_counters),
        })
        self._last_series = series_now
        self._last_counters = counters_now

    def fault_applied(self, event, slot: int) -> None:
        """Emit one ``fault`` record for an applied timeline event."""
        self._write({
            "event": FAULT,
            "slot": slot,
            "kind": event.kind,
            "detail": event.describe(),
        })

    def run_finished(
        self,
        slot: int,
        sim_now: float,
        blocks: int,
        validations: int,
        success_rate: float,
        events: int,
        trace_sha256: str,
    ) -> None:
        """Emit the terminal ``run-end`` record."""
        self._write({
            "event": RUN_END,
            "slot": slot,
            "sim_now": float(sim_now),
            "blocks": blocks,
            "validations": validations,
            "success_rate": float(success_rate),
            "events": events,
            "trace_sha256": trace_sha256,
        })

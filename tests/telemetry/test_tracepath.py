"""Critical-path analysis over recorded trace streams.

Read-side only: every test records a real run once per module and
exercises the report/waterfall toolkit over the resulting stream, plus
unit coverage for the pure helpers on crafted traces.
"""

import json

import pytest

from repro.telemetry import read_streams
from repro.telemetry.spans import SPAN_COLLECTORS, SpanRecorder
from repro.telemetry.tracepath import (
    block_waterfall,
    critical_path,
    format_trace_report,
    percentile,
    trace_report,
)

from test_spans import tiny_spec  # noqa: E402 - sibling test helper


@pytest.fixture(scope="module")
def traced_dir(tmp_path_factory):
    """One traced 2LDAG run with faults, recorded at full sample."""
    from repro.scenario import ScenarioRunner

    directory = tmp_path_factory.mktemp("traces")
    spans = SpanRecorder(directory, sample=1.0)
    ScenarioRunner(tiny_spec("2ldag", with_faults=True), spans=spans).run()
    return directory


@pytest.fixture(scope="module")
def streams(traced_dir):
    return read_streams([traced_dir], 2)


def crafted_trace():
    """A hand-built 2LDAG trace with a known critical path."""
    return {
        "v": 2,
        "event": "block-trace",
        "block": "3#1",
        "origin": 3,
        "confirmed": True,
        "spans": [
            {"phase": "created", "node": 3, "slot": 1,
             "start": 1.0, "end": 1.0},
            {"phase": "gossiped", "node": 3, "slot": 1,
             "start": 1.0, "end": 1.1},
            {"phase": "received", "node": 4, "slot": 1,
             "start": 1.1, "end": 1.4},
            {"phase": "received", "node": 5, "slot": 1,
             "start": 1.1, "end": 1.2},
            {"phase": "validated", "node": 4, "slot": 2,
             "start": 2.0, "end": 2.5, "detail": {"success": True}},
            {"phase": "confirmed", "node": 4, "slot": 2,
             "start": 2.5, "end": 2.5},
        ],
        "faults": [],
    }


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 3.0

    def test_single_value(self):
        assert percentile([7.5], 0.99) == 7.5


class TestCriticalPath:
    def test_one_span_per_phase_in_causal_order(self):
        path = critical_path(crafted_trace(), "2ldag")
        phases = [s["phase"] for s in path]
        assert phases == [
            p for p in SPAN_COLLECTORS["2ldag"].phases if p in set(phases)
        ]
        # The completing "received" span is the slower node-4 one.
        received = next(s for s in path if s["phase"] == "received")
        assert received["node"] == 4 and received["end"] == 1.4

    def test_ends_at_confirmation(self):
        path = critical_path(crafted_trace(), "2ldag")
        assert path[-1]["phase"] == "confirmed"
        assert path[-1]["end"] == 2.5


class TestTraceReport:
    def test_report_structure_and_attribution(self, streams):
        report = trace_report(streams)
        assert report["runs"], "no runs in report"
        run = report["runs"][0]
        assert run["backend"] == "2ldag"
        assert run["blocks"] > 0
        assert 0 < run["confirmed"] <= run["blocks"]
        rollup = report["attribution"]["2ldag"]
        assert rollup["confirmed"] > 0
        assert 0 <= rollup["confirmation_p50"] <= rollup["confirmation_p99"]
        for entry in rollup["phases"].values():
            assert entry["count"] > 0
            assert entry["p50"] <= entry["p99"]
            assert 0.0 <= entry["share"] <= 1.0

    def test_report_is_json_ready(self, streams):
        json.dumps(trace_report(streams))

    def test_formatting_mentions_backend_and_phases(self, streams):
        report = trace_report(streams)
        text = format_trace_report(report)
        assert "2ldag" in text
        assert "p50" in text and "p99" in text

    def test_empty_input_reports_no_runs(self):
        report = trace_report([])
        assert report["runs"] == []
        assert report["attribution"] == {}


class TestWaterfalls:
    def test_ascii_waterfall_lists_phases(self):
        art = block_waterfall(crafted_trace(), "2ldag")
        assert "block 3#1" in art
        for phase in ("created", "gossiped", "received", "validated"):
            assert phase in art

"""Block-lifecycle tracing: the no-op contract, pinned digests, schema.

The contract mirrors ``test_determinism.py`` one layer up: recording
span streams (``--trace-sample``) must leave the seeded simulation
digests byte-identical on every backend, with and without fault
timelines, while the trace streams themselves replay byte-for-byte,
self-certify via the terminal ``trace-end`` digest, and fit the pinned
v2 schema.
"""

import json
from types import SimpleNamespace

import pytest

from repro.baselines.iota.tangle import Transaction
from repro.baselines.pbft.messages import PrePrepare, Request
from repro.crypto.hashing import hash_fields
from repro.faults import build_fault_preset
from repro.scenario import (
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.telemetry import (
    TelemetryError,
    TelemetryRecorder,
    parse_stream,
    run_recorders,
    stream_filename,
    stream_version,
    validate_stream,
)
from repro.telemetry.spans import (
    DEFAULT_TRACE_SAMPLE,
    IOTA_CONFIRM_WEIGHT,
    SPAN_COLLECTORS,
    SPAN_SCHEMA_VERSION,
    TRACE_SAMPLE_ENV_VAR,
    DagSpanCollector,
    IotaSpanCollector,
    PbftSpanCollector,
    SpanRecorder,
    block_sampled,
    trace_sample_from_env,
    trace_sample_rate,
)

BACKENDS = ("2ldag", "pbft", "iota")

#: Seeded span-stream digests (the ``trace-end`` self-certification) for
#: the tiny workload below at sample 1.0.  A change here means the trace
#: schema or the sampled lifecycle changed — update deliberately, with
#: the matching bump to SPAN_SCHEMA_VERSION if record shapes moved.
PINNED_TRACE_DIGESTS = {
    ("2ldag", False): "777d8d696859ee2901e8661a5a27a3d11c3d33d8322933f17aa928334cbfeca5",
    ("2ldag", True): "78ed4fceeeb551f74b15b93ada8c2d91cc922934b2c86bac77f75ac254427079",
    ("pbft", False): "030b48e4901b6b532f32ffa202a4f4d3bad214c24df659fac7b4e77b6f3c9e8d",
    ("pbft", True): "62d5fc1d8a9c305c732a391bfb7a560cbee970fcac88b423367dc36552a0335c",
    ("iota", False): "1f42f46b44a27ee562fb696c480ca743ed21f7d950785a50fe4e5f617aef41f6",
    ("iota", True): "1e1efb5ef27e13f836cb78884a642fd4839cea038f402b69bcfcdec57ec0be5f",
}


def tiny_spec(backend="2ldag", with_faults=False, **overrides):
    workload = dict(
        slots=16, validate=True, validation_min_age_slots=6,
        sample_slots=(8, 16),
    )
    if with_faults:
        workload["faults"] = build_fault_preset("stress", 9, 16)
    defaults = dict(
        name="span-tiny",
        backend=backend,
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(**workload),
        seed=4,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def record_trace(tmp_path, backend, with_faults=False, sample=1.0):
    spans = SpanRecorder(tmp_path, sample=sample)
    result = ScenarioRunner(tiny_spec(backend, with_faults=with_faults), spans=spans).run()
    return spans, result


class TestNoOpContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("with_faults", (False, True))
    def test_sim_digest_identical_and_trace_digest_pinned(
        self, backend, with_faults, tmp_path
    ):
        bare = ScenarioRunner(tiny_spec(backend, with_faults=with_faults)).run()
        spans, traced = record_trace(tmp_path, backend, with_faults)
        assert bare.trace_sha256 == traced.trace_sha256
        assert bare.total_blocks == traced.total_blocks

        records = parse_stream(
            spans.path.read_text(), source=str(spans.path)
        )
        assert records[-1]["event"] == "trace-end"
        expected = PINNED_TRACE_DIGESTS[(backend, with_faults)]
        assert records[-1]["digest"] == expected

    def test_repeat_recording_is_byte_identical(self, tmp_path):
        first, _ = record_trace(tmp_path / "a", "2ldag", with_faults=True)
        second, _ = record_trace(tmp_path / "b", "2ldag", with_faults=True)
        assert first.path.read_bytes() == second.path.read_bytes()

    def test_quarter_sample_also_leaves_sim_digest_alone(self, tmp_path):
        bare = ScenarioRunner(tiny_spec("2ldag")).run()
        _, traced = record_trace(tmp_path, "2ldag", sample=0.25)
        assert bare.trace_sha256 == traced.trace_sha256


class TestStreamSchema:
    def test_stream_validates_and_orders_records(self, tmp_path):
        spans, _ = record_trace(tmp_path, "2ldag", with_faults=True)
        text = spans.path.read_text()
        assert validate_stream(text, source=str(spans.path)) == []
        records = parse_stream(text, source=str(spans.path))
        kinds = [r["event"] for r in records]
        assert kinds[0] == "trace-start"
        assert kinds[-1] == "trace-end"
        assert all(r["v"] == SPAN_SCHEMA_VERSION for r in records)
        traces = [r for r in records if r["event"] == "block-trace"]
        assert traces, "workload produced no traced blocks"
        assert traces == sorted(traces, key=lambda r: r["block"])
        assert spans.blocks_traced == len(traces)

    def test_spans_carry_slot_tags_not_wall_clock(self, tmp_path):
        spans, _ = record_trace(tmp_path, "2ldag")
        records = parse_stream(spans.path.read_text())
        for trace in records:
            if trace["event"] != "block-trace":
                continue
            for span in trace["spans"]:
                assert span["slot"] == int(span["end"])
                assert span["start"] <= span["end"]

    def test_tampered_stream_fails_digest_check(self, tmp_path):
        spans, _ = record_trace(tmp_path, "2ldag")
        lines = spans.path.read_text().splitlines()
        victim = next(i for i, l in enumerate(lines) if "block-trace" in l)
        tampered = lines[victim].replace('"confirmed":true',
                                         '"confirmed":false')
        assert tampered != lines[victim], "tamper target not found"
        lines[victim] = tampered
        with pytest.raises(TelemetryError, match="digest"):
            parse_stream("\n".join(lines) + "\n")

    def test_record_after_terminal_cannot_switch_off_the_digest(self, tmp_path):
        # The tamper of the test above plus one valid trailing line: the
        # terminal is no longer last, which used to skip certification.
        spans, _ = record_trace(tmp_path, "2ldag")
        lines = spans.path.read_text().splitlines()
        victim = next(i for i, l in enumerate(lines) if "block-trace" in l)
        lines[victim] = lines[victim].replace('"confirmed":true',
                                              '"confirmed":false')
        trailing_fault = json.dumps({
            "v": SPAN_SCHEMA_VERSION, "event": "fault", "slot": 1,
            "kind": "k", "time": 1.0, "nodes": [], "detail": "d",
        })
        for extra in (trailing_fault, lines[-1]):  # or a second terminal
            text = "\n".join(lines + [extra]) + "\n"
            with pytest.raises(TelemetryError, match="after the terminal"):
                parse_stream(text)
            assert any(
                "after the terminal" in e for e in validate_stream(text)
            )

    def test_dropped_trace_fails_terminal_counts(self, tmp_path):
        spans, _ = record_trace(tmp_path, "2ldag")
        lines = spans.path.read_text().splitlines()
        victim = next(i for i, l in enumerate(lines) if "block-trace" in l)
        del lines[victim]
        with pytest.raises(TelemetryError, match="counts"):
            parse_stream("\n".join(lines) + "\n")

    def test_stream_without_terminal_record_parses_leniently(self, tmp_path):
        # A stream that is still being recorded has no trace-end yet;
        # reading it live must not raise.  Completeness is certified
        # only once the terminal record lands.
        spans, _ = record_trace(tmp_path, "2ldag")
        lines = spans.path.read_text().splitlines()
        assert "trace-end" in lines[-1]
        records = parse_stream("\n".join(lines[:-1]) + "\n")
        assert all(r["event"] != "trace-end" for r in records)

    def test_filename_partition(self, tmp_path):
        spans, _ = record_trace(tmp_path, "pbft")
        assert stream_version(spans.path) == 2
        assert spans.path.name == stream_filename(2, "span-tiny", "pbft", 4)
        assert stream_version(tmp_path / "run-span-tiny-pbft-seed4.jsonl") == 1


class TestSampling:
    def test_block_sampled_is_deterministic_and_monotone(self):
        keys = [f"{n}#{i}" for n in range(9) for i in range(8)]
        half = {k for k in keys if block_sampled(4, k, 0.5)}
        again = {k for k in keys if block_sampled(4, k, 0.5)}
        assert half == again
        assert 0 < len(half) < len(keys)
        # Raising the rate only ever adds blocks to the sample.
        full = {k for k in keys if block_sampled(4, k, 1.0)}
        assert half <= full and full == set(keys)

    def test_lower_sample_traces_subset_of_blocks(self, tmp_path):
        full, _ = record_trace(tmp_path / "full", "2ldag", sample=1.0)
        half, _ = record_trace(tmp_path / "half", "2ldag", sample=0.5)

        def keys(recorder):
            records = parse_stream(recorder.path.read_text())
            return {r["block"] for r in records if r["event"] == "block-trace"}

        assert keys(half) < keys(full)

    def test_sample_rate_from_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_SAMPLE_ENV_VAR, raising=False)
        assert trace_sample_from_env() is None
        monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, "0.5")
        assert trace_sample_from_env() == 0.5
        monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, "0")
        assert trace_sample_from_env() is None
        monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, " 1 ")
        assert trace_sample_from_env() == 1.0
        for raw in ("7", "lots", "nan", "-1", "inf"):
            monkeypatch.setenv(TRACE_SAMPLE_ENV_VAR, raw)
            with pytest.raises(TelemetryError, match=f"REPRO_TRACE_SAMPLE .*got '{raw}'"):
                trace_sample_from_env()

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -1.0, -0.5, 1.5, "x"],
        ids=repr,
    )
    def test_a_rate_is_zero_or_finite_in_the_unit_interval(self, value):
        with pytest.raises(TelemetryError, match=r"--trace-sample must be 0 \(off\)"):
            trace_sample_rate(value, "--trace-sample")

    def test_zero_is_off_and_the_unit_interval_passes(self):
        assert trace_sample_rate(0.0, "rate") is None
        assert trace_sample_rate("0", "rate") is None
        assert [trace_sample_rate(v, "rate") for v in (1e-9, 0.25, 1)] == [1e-9, 0.25, 1.0]

    def test_the_writer_refuses_a_non_finite_sample(self, tmp_path):
        spans = SpanRecorder(tmp_path, sample=float("nan"))
        from repro.scenario.runner import ScenarioRunner

        with pytest.raises(TelemetryError, match="'sample' has type non-finite float nan"):
            ScenarioRunner(tiny_spec(), spans=spans).build()
        assert not spans.path.exists()  # validated before the first write

    def test_run_recorders(self, tmp_path):
        assert run_recorders(None, 0.5) == (None, None)
        telemetry, spans = run_recorders(tmp_path, None)
        assert isinstance(telemetry, TelemetryRecorder) and spans is None
        telemetry, spans = run_recorders(tmp_path, 0.5)
        assert telemetry.directory == spans.directory == tmp_path
        assert spans.sample == 0.5

    def test_default_sample_is_a_quarter(self):
        assert DEFAULT_TRACE_SAMPLE == 0.25


class TestCollectorInstallation:
    """The run's collector sits on ``Network.spans``, and only there."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_run_without_a_recorder_leaves_spans_unset(self, backend):
        from repro.scenario.runner import ScenarioRunner

        runner = ScenarioRunner(tiny_spec(backend)).build()
        assert runner.backend.wired.network.spans is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_started_installs_the_rostered_collector(self, backend, tmp_path):
        from repro.scenario.runner import ScenarioRunner

        runner = ScenarioRunner(
            tiny_spec(backend), spans=SpanRecorder(tmp_path, sample=1.0)
        ).build()
        network = runner.backend.wired.network
        assert type(network.spans) is SPAN_COLLECTORS[backend]
        # Lifecycle calls are stamped with the run's own kernel clock.
        assert network.spans.sim is network.sim

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_roster_row_orders_created_to_confirmed(self, backend):
        collector = SPAN_COLLECTORS[backend]
        assert collector.backend == backend
        assert collector.phases[0] == "created"
        assert collector.phases[-1] == "confirmed"
        assert len(set(collector.phases)) == len(collector.phases)

    def test_unsampled_digest_receipts_open_no_trace(self, tmp_path, monkeypatch):
        """The digest lookup keeps the receipt flood off unsampled blocks."""
        receipts = []

        class CountingDagCollector(DagSpanCollector):
            def received(self, node, sender, digest):
                receipts.append(digest.value)
                super().received(node, sender, digest)

        monkeypatch.setitem(SPAN_COLLECTORS, "2ldag", CountingDagCollector)
        spans, _ = record_trace(tmp_path, "2ldag", sample=0.25)
        records = parse_stream(spans.path.read_text())
        traces = [r for r in records if r["event"] == "block-trace"]
        traced_digests = {
            bytes.fromhex(r["spans"][0]["detail"]["digest"]) for r in traces
        }
        received = [
            s for r in traces for s in r["spans"] if s["phase"] == "received"
        ]
        assert received, "sampled blocks still record their receipts"
        # Every receipt reaches the collector, but only the sampled
        # blocks' receipts become spans.
        sampled_receipts = [d for d in receipts if d in traced_digests]
        assert len(sampled_receipts) == len(received) < len(receipts)
        assert all(
            block_sampled(4, r["block"], 0.25) for r in traces
        )


def _clock(now=0.0):
    return SimpleNamespace(now=now)


class TestCollectorMethods:
    """Each collector folds its backend's direct calls into span trees."""

    def test_pbft_request_confirms_at_the_quorum_th_execution(self):
        spec = tiny_spec("pbft")  # nine replicas: f = 2, quorum 5
        sim = _clock()
        collector = PbftSpanCollector(spec, 1.0, sim)
        assert collector.quorum == 5
        request = Request(client=0, payload_seed=b"0#0", payload_bits=8,
                          timestamp=0.0)
        pre_prepare = PrePrepare(view=0, sequence=1,
                                 digest=hash_fields([b"0#0"]), request=request)
        collector.request(SimpleNamespace(replica_id=0), request)
        sim.now = 0.5
        collector.phase(SimpleNamespace(replica_id=0), "pre-prepare", pre_prepare)
        for replica_id in range(9):
            sim.now = 1.0 + replica_id
            collector.executed(SimpleNamespace(replica_id=replica_id), pre_prepare)
        (trace,) = collector.block_traces()
        assert trace["block"] == "0#0" and trace["confirmed"]
        phases = [s["phase"] for s in trace["spans"]]
        assert phases.count("commit") == 9
        assert phases.count("confirmed") == 1
        confirmed = next(s for s in trace["spans"] if s["phase"] == "confirmed")
        assert (confirmed["node"], confirmed["end"]) == (4, 5.0)

    def test_pbft_view_change_annotates_only_open_requests(self):
        sim = _clock()
        collector = PbftSpanCollector(tiny_spec("pbft"), 1.0, sim)
        for seed in (b"0#0", b"1#0"):
            collector.request(
                SimpleNamespace(replica_id=0),
                Request(client=0, payload_seed=seed, payload_bits=8, timestamp=0.0),
            )
        done = Request(client=0, payload_seed=b"0#0", payload_bits=8, timestamp=0.0)
        pre_prepare = PrePrepare(view=0, sequence=1,
                                 digest=hash_fields([b"0#0"]), request=done)
        for replica_id in range(collector.quorum):
            collector.executed(SimpleNamespace(replica_id=replica_id), pre_prepare)
        sim.now = 3.0
        collector.view_change(SimpleNamespace(replica_id=2), 1)
        changes = {
            trace["block"]: [s for s in trace["spans"] if s["phase"] == "view-change"]
            for trace in collector.block_traces()
        }
        assert changes["0#0"] == []
        assert [(s["node"], s["start"], s["end"], s["detail"]) for s in changes["1#0"]] \
            == [(2, 3.0, 3.0, {"view": 1})]

    def test_iota_transaction_confirms_at_the_approval_weight(self):
        sim = _clock()
        collector = IotaSpanCollector(tiny_spec("iota"), 1.0, sim)
        node = SimpleNamespace(node_id=1)
        chain, parents = [], ()
        # A chain: each transaction approves the one before, so the
        # first gains one unit of cumulative weight per later attach.
        for index in range(IOTA_CONFIRM_WEIGHT + 1):
            sim.now = float(index)
            tx = Transaction(issuer=1, index=index, parents=parents,
                             payload_seed=f"1#{index}".encode(),
                             payload_bits=8, timestamp=sim.now)
            collector.attach(node, tx)
            chain.append(tx)
            parents = (tx.digest().value,)
        collector.received(SimpleNamespace(node_id=2), chain[0])
        traces = {t["block"]: t for t in collector.block_traces()}
        first = traces["1#0"]
        assert first["confirmed"]
        confirmed = next(s for s in first["spans"] if s["phase"] == "confirmed")
        assert confirmed["end"] == float(IOTA_CONFIRM_WEIGHT)
        assert confirmed["detail"] == {"weight": IOTA_CONFIRM_WEIGHT}
        assert [s["phase"] for s in first["spans"]].count("approved") == 1
        assert not traces[f"1#{IOTA_CONFIRM_WEIGHT}"]["confirmed"]

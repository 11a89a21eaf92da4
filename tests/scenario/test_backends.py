"""The pluggable ledger backend layer: registry, validation, dispatch,
determinism, and spec round-trip of the backend field."""

import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.baselines.iota.node import IotaNetwork
from repro.baselines.pbft.cluster import PbftCluster
from repro.campaign.spec import expand_grid
from repro.canonical import sha256_lines
from repro.faults import FaultEvent, FaultScheduleSpec
from repro.metrics.units import bits_to_mb
from repro.net.deployment import WiredDeployment
from repro.scenario import (
    DEFAULT_BACKEND,
    AdversarySpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    backend_names,
    create_backend,
    get_scenario,
)
from repro.scenario.runner import SERIES_KEYS
from repro.telemetry import (
    SpanRecorder,
    TelemetryError,
    TelemetryRecorder,
    read_streams,
    validate_streams,
)
from repro.telemetry.tracepath import trace_report

ALL_BACKENDS = ("2ldag", "pbft", "iota")

SCENARIOS_DOC = Path(__file__).resolve().parents[2] / "docs" / "scenarios.md"


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="backend-test",
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=6),
        seed=11,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestRegistry:
    def test_all_three_backends_registered(self):
        assert set(backend_names()) == set(ALL_BACKENDS)

    def test_default_backend_listed_first(self):
        assert backend_names()[0] == DEFAULT_BACKEND

    def test_create_backend_matches_spec(self):
        for name in ALL_BACKENDS:
            backend = create_backend(small_spec(backend=name))
            assert backend.name == name

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ScenarioError, match="2ldag, iota, pbft"):
            small_spec(backend="tendermint")

    def test_default_spec_uses_2ldag(self):
        assert small_spec().backend == DEFAULT_BACKEND


class TestValidation:
    def test_baseline_backends_reject_adversaries(self):
        for name in ("pbft", "iota"):
            with pytest.raises(ScenarioError, match="does not support adversaries"):
                small_spec(
                    backend=name,
                    adversaries=(AdversarySpec(kind="silent", count=2),),
                )

    def test_baseline_backends_accept_churn(self):
        # Churn is a crash/rejoin timeline, and every backend implements
        # both hooks.
        churn = FaultScheduleSpec(events=(
            FaultEvent(kind="node-crash", slot=2, nodes=(1,)),
            FaultEvent(kind="node-rejoin", slot=4, nodes=(1,)),
        ))
        for name in ("pbft", "iota"):
            spec = small_spec(
                backend=name, workload=WorkloadSpec(slots=6, faults=churn)
            )
            assert ScenarioRunner(spec).run().total_blocks > 0

    def test_a_backend_without_the_crash_hooks_cannot_be_built(self):
        # The two ledger-specific fault kinds are abstract hooks: a
        # backend that leaves them out fails at construction, before any
        # schedule could reach it.
        from repro.scenario.backends import LedgerBackend

        class NoCrashBackend(LedgerBackend):
            name = "no-crash"

            def build(self): ...
            def advance_slots(self, start_slot, count): ...
            def total_blocks(self): return 0
            def trace_lines(self): return []

        with pytest.raises(TypeError, match="abstract.*crash_nodes.*rejoin_nodes"):
            NoCrashBackend(small_spec())

    def test_baseline_backends_reject_other_generation_periods(self):
        for period in (2, "random-1-2"):
            with pytest.raises(ScenarioError, match="generation_period=1"):
                small_spec(
                    backend="iota",
                    workload=WorkloadSpec(slots=6, generation_period=period),
                )

    def test_with_backend_revalidates(self):
        spec = small_spec(adversaries=(AdversarySpec(kind="silent", count=2),))
        with pytest.raises(ScenarioError, match="does not support"):
            spec.with_backend("iota")


class TestBaselineDefaults:
    """The baseline backends drive their ledgers at the ledgers' own
    defaults, which are the values the deleted ``pbft`` / ``iota`` spec
    sections carried, so every baseline run is unchanged."""

    @pytest.mark.parametrize("function, parameter, value", [
        (PbftCluster.__init__, "view_change_timeout", 5.0),
        (PbftCluster.run_slots, "settle_time", 3.0),
        (IotaNetwork.run_slots, "settle_time", 2.0),
    ], ids=["pbft-view-change", "pbft-settle", "iota-settle"])
    def test_the_ledger_default_is_the_deleted_sections(self, function, parameter, value):
        assert inspect.signature(function).parameters[parameter].default == value


class TestRoundTrip:
    def test_default_backend_omitted_from_dict(self):
        # Byte-compatibility: pre-backend spec JSON must not change.
        payload = small_spec().to_dict()
        assert "backend" not in payload
        assert "pbft" not in payload
        assert "iota" not in payload

    def test_backend_field_round_trips(self):
        for name in ALL_BACKENDS:
            spec = small_spec(backend=name)
            again = ScenarioSpec.from_dict(spec.to_dict())
            assert again == spec
            assert again.backend == name

    def test_unknown_backend_rejected_on_load(self):
        payload = small_spec().to_dict()
        payload["backend"] = "nano"
        with pytest.raises(ScenarioError, match="unknown ledger backend"):
            ScenarioSpec.from_dict(payload)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_same_spec_same_trace_and_series(self, backend):
        spec = small_spec(backend=backend)
        first, second = ScenarioRunner(spec).run(), ScenarioRunner(spec).run()
        assert first.trace_sha256 == second.trace_sha256
        assert first.series == second.series
        assert first.per_node_storage_mb == second.per_node_storage_mb
        assert first.events == second.events

    def test_iota_seed_reaches_trace(self):
        # Tip selection draws from the seeded streams, so the master
        # seed must be observable in the tangle trace.
        first = ScenarioRunner(small_spec(backend="iota")).run()
        second = ScenarioRunner(small_spec(backend="iota", seed=12)).run()
        assert first.trace_sha256 != second.trace_sha256

    def test_backends_disagree_on_trace(self):
        digests = {
            ScenarioRunner(small_spec(backend=b)).run().trace_sha256
            for b in ALL_BACKENDS
        }
        assert len(digests) == len(ALL_BACKENDS)


class TestDispatch:
    def test_runner_exposes_2ldag_internals(self):
        runner = ScenarioRunner(small_spec()).build()
        assert runner.deployment is not None
        assert runner.workload is not None
        assert runner.backend.name == DEFAULT_BACKEND

    def test_baseline_runner_has_no_2ldag_internals(self):
        runner = ScenarioRunner(small_spec(backend="pbft")).build()
        assert runner.deployment is None
        assert runner.workload is None
        assert runner.backend.cluster is not None

    def test_result_series_shape_is_uniform(self):
        spec = small_spec(workload=WorkloadSpec(slots=6, sample_slots=(2, 4, 6)))
        for backend in ALL_BACKENDS:
            result = ScenarioRunner(dataclasses.replace(spec, backend=backend)).run()
            assert result.sample_slots == [2, 4, 6]
            for series in result.series.values():
                assert len(series) == 3
            assert result.storage_mb[0] < result.storage_mb[-1]

    def test_traffic_category_split(self):
        spec = small_spec()
        pbft = ScenarioRunner(spec.with_backend("pbft")).run()
        iota = ScenarioRunner(spec.with_backend("iota")).run()
        assert pbft.traffic_dag_mbit[-1] == 0.0
        assert pbft.traffic_pop_mbit[-1] == pbft.traffic_mbit[-1] > 0
        assert iota.traffic_pop_mbit[-1] == 0.0
        assert iota.traffic_dag_mbit[-1] == iota.traffic_mbit[-1] > 0

    def test_baselines_store_everything(self):
        # The comparative claim in miniature: full replication on the
        # baselines vs header-sized 2LDAG state.
        results = {
            b: ScenarioRunner(small_spec(backend=b)).run() for b in ALL_BACKENDS
        }
        assert results["pbft"].storage_mb[-1] > 5 * results["2ldag"].storage_mb[-1]
        assert results["iota"].storage_mb[-1] > 5 * results["2ldag"].storage_mb[-1]


#: crash + partition + heal + degrade (+ rejoin, restore) on the 3x3 grid.
MIXED_FAULTS = FaultScheduleSpec(events=(
    FaultEvent(kind="node-crash", slot=2, nodes=(4,)),
    FaultEvent(kind="partition", slot=3, groups=((0, 3, 6),)),
    FaultEvent(kind="heal", slot=5),
    FaultEvent(kind="link-degrade", slot=5, loss=0.2, extra_latency=0.002),
    FaultEvent(kind="node-rejoin", slot=6, nodes=(4,)),
    FaultEvent(kind="link-degrade", slot=7),
))


def faulted_spec(backend: str) -> ScenarioSpec:
    return small_spec(
        backend=backend,
        workload=WorkloadSpec(slots=8, sample_slots=(4, 8), faults=MIXED_FAULTS),
    )


@pytest.mark.parametrize("name", backend_names())
class TestBackendContract:
    """What :class:`LedgerBackend` answers from the wired deployment,
    held against direct reads of that deployment, on every backend."""

    #: The attribute each backend has always exposed its ledger under.
    LEDGER_ATTRIBUTE = {"2ldag": "deployment", "pbft": "cluster", "iota": "network"}

    @pytest.fixture()
    def backend(self, name):
        runner = ScenarioRunner(faulted_spec(name))
        runner.advance_to(7)  # node 4 was down for slots 2-5: nodes now differ
        return runner.backend

    def test_deployment_is_the_shared_base_type(self, backend, name):
        assert isinstance(backend.wired, WiredDeployment)
        # One more reference to the same object, not a second object.
        assert backend.wired is getattr(backend, self.LEDGER_ATTRIBUTE[name])

    def test_sample_has_exactly_the_series_keys(self, backend, name):
        sample = backend.sample()
        assert sorted(sample) == sorted(SERIES_KEYS)
        split = sample["traffic_dag_mbit"] + sample["traffic_pop_mbit"]
        assert sample["traffic_mbit"] > 0
        if name == DEFAULT_BACKEND:
            assert split == pytest.approx(sample["traffic_mbit"])
        else:  # a single category: the split is the total, bit for bit
            assert split == sample["traffic_mbit"]

    def test_collect_lists_follow_node_ids(self, backend, name):
        wired, metrics = backend.wired, backend.collect()
        members = getattr(wired, "replicas", None) or wired.nodes
        assert wired.node_ids == list(range(backend.spec.node_count))
        assert metrics.per_node_storage_mb == [
            bits_to_mb(members[n].storage_bits()) for n in wired.node_ids
        ]
        assert metrics.per_node_traffic_mb == [
            bits_to_mb(wired.traffic.total_bits(n)) for n in wired.node_ids
        ]
        assert len(set(metrics.per_node_storage_mb)) > 1  # order is observable
        assert metrics.total_blocks == backend.total_blocks() > 0
        assert (metrics.events, metrics.sim_now) == (
            wired.sim.processed_count, wired.sim.now
        )

    def test_clock_and_counters_are_the_kernels(self, backend, name):
        sim = backend.wired.sim
        assert sim.now > 0
        assert backend.current_time() == sim.now
        counters = backend.telemetry_counters()
        assert counters["events"] == sim.processed_count
        assert {**backend.ledger_counters(), "events": counters["events"]} == counters

    def test_digest_is_the_hash_of_the_trace_lines(self, backend, name):
        lines = backend.trace_lines()
        assert f"events {backend.wired.sim.processed_count}" in lines
        assert f"now {backend.wired.sim.now!r}" in lines
        assert backend.trace_digest() == sha256_lines(lines)


@pytest.fixture()
def documented_backend():
    """The "Adding a backend" example of docs/scenarios.md, executed.

    The doc's code block *is* this test's backend, so the two cannot
    drift apart.  Executing it registers the backend and its span
    collector row; both are removed again afterwards.
    """
    from repro.scenario.backends import _BACKENDS
    from repro.telemetry.spans import SPAN_COLLECTORS

    text = SCENARIOS_DOC.read_text(encoding="utf-8")
    section = text[text.index("**Adding a backend.**"):]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    try:
        exec(compile(code, str(SCENARIOS_DOC), "exec"), namespace)
        yield namespace["MiniTangleBackend"]
    finally:
        _BACKENDS.pop("mini-tangle", None)
        SPAN_COLLECTORS.pop("mini-tangle", None)


class TestMinimalBackend:
    """A fourth backend written against only the reduced surface."""

    def test_defines_nothing_the_base_answers(self, documented_backend):
        own = {k for k, v in vars(documented_backend).items() if callable(v)}
        assert own == {
            "build", "advance_slots", "crash_nodes", "rejoin_nodes",
            "total_blocks", "trace_lines", "ledger_counters",
        }

    def test_runs_end_to_end_under_faults_and_both_recorders(
        self, documented_backend, tmp_path
    ):
        spec = faulted_spec("mini-tangle")
        runner = ScenarioRunner(
            spec,
            telemetry=TelemetryRecorder(tmp_path),
            spans=SpanRecorder(tmp_path, sample=1.0),
        )
        # Stop where the runner pauses anyway (fault and sample slots),
        # so the chunking is the one-shot run's, and note the kernel's
        # clock at each boundary.
        clock = {}
        for stop in (2, 3, 4, 5, 6, 7, 8):
            runner.advance_to(stop)
            clock[stop] = runner.backend.wired.sim.now
        observed = runner.finish()
        assert len(runner.fault_engine.applied) == len(MIXED_FAULTS.events)

        streams, _, defects = validate_streams([tmp_path])
        assert defects == []
        assert len(streams) == 2
        # Recording is a no-op for the simulation.
        assert observed.trace_sha256 == ScenarioRunner(spec).run().trace_sha256

        # The substrate's clock, not a forgotten default of 0.0, stamps
        # every slot record, fault record and fault note.
        assert all(time > 0 for time in clock.values())
        ((_, slot_records),) = read_streams([tmp_path], 1)
        slots = [r for r in slot_records if r["event"] == "slot"]
        assert [r["slot"] for r in slots] == sorted(clock)
        assert [r["sim_now"] for r in slots] == [clock[r["slot"]] for r in slots]
        ((_, trace_records),) = read_streams([tmp_path], 2)
        # The reused collector's roster row carries the tangle's phase
        # order, so the critical-path report attributes this backend too.
        report = trace_report(read_streams([tmp_path], 2))
        assert report["attribution"]["mini-tangle"]["phases"]
        faults = [r for r in trace_records if r["event"] == "fault"]
        assert [(r["slot"], r["kind"]) for r in faults] == [
            (e.slot, e.kind) for e in MIXED_FAULTS.events
        ]
        notes = [
            note for r in trace_records if r["event"] == "block-trace"
            for note in r["faults"]
        ]
        assert notes, "open traces were annotated"
        for stamped in faults + notes:
            assert stamped["time"] == clock[stamped["slot"]]

    def test_tracing_a_backend_without_a_collector_is_refused(
        self, documented_backend, tmp_path
    ):
        from repro.telemetry.spans import SPAN_COLLECTORS

        del SPAN_COLLECTORS["mini-tangle"]
        runner = ScenarioRunner(
            small_spec(backend="mini-tangle"),
            telemetry=TelemetryRecorder(tmp_path),
            spans=SpanRecorder(tmp_path),
        )
        with pytest.raises(
            TelemetryError,
            match="mini-tangle backend has no span collector.*2ldag, iota, pbft",
        ):
            runner.build()
        assert list(tmp_path.iterdir()) == []  # no stream file was opened

    def test_trace_report_refuses_a_backend_without_a_collector(
        self, documented_backend, tmp_path, capsys
    ):
        # A process that never registered the backend (a fresh `python -m
        # repro`) has no phase order for its spans: exit 2, not "0 confirmed".
        from repro.cli import main
        from repro.telemetry.spans import SPAN_COLLECTORS

        ScenarioRunner(small_spec(backend="mini-tangle"), spans=SpanRecorder(tmp_path, sample=1.0)).run()
        (stream,) = tmp_path.glob("trace-*.jsonl")
        del SPAN_COLLECTORS["mini-tangle"]
        assert main(["telemetry", "trace", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"{stream}: the mini-tangle backend has no span collector in this "
            "process; phases are known for: 2ldag, iota, pbft\n"
        )


class TestGridExpansion:
    def test_backend_axis_expands(self):
        cells = expand_grid(
            get_scenario("ledger-comparison"),
            {"backend": ["2ldag", "pbft", "iota"], "seed": [0, 1]},
        )
        assert len(cells) == 6
        assert {c.scenario.backend for c in cells} == set(ALL_BACKENDS)
        assert len({c.digest() for c in cells}) == 6

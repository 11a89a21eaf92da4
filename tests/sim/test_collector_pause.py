"""``Simulator.run`` pauses the cyclic collector, and that loses nothing.

The pause is safe only while a run leaves no cyclic garbage: reference
counting then frees everything the loop drops, and a collection would
find nothing.  ``TestRunsLeaveNoCycles`` checks that premise on every
backend with and without both recorders; the rest checks that the
caller's collector state survives ``run()``.
"""

import gc

import pytest

from repro.scenario import ScenarioRunner, get_scenario
from repro.sim.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.telemetry import SpanRecorder, TelemetryRecorder


@pytest.fixture(autouse=True)
def restore_collector():
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


class TestRunsLeaveNoCycles:
    @pytest.mark.parametrize("recorders", [False, True], ids=["plain", "recorded"])
    @pytest.mark.parametrize("backend", ["2ldag", "pbft", "iota"])
    def test_fault_demo_leaves_nothing_to_collect(self, backend, recorders, tmp_path):
        spec = get_scenario("fault-demo").with_backend(backend)
        kwargs = (
            dict(telemetry=TelemetryRecorder(tmp_path), spans=SpanRecorder(tmp_path, sample=0.25))
            if recorders else {}
        )
        runner = ScenarioRunner(spec, **kwargs).build()
        gc.enable()
        gc.collect()
        gc.disable()
        result = runner.finish()  # the runner stays referenced
        assert gc.collect() == 0
        assert result.events > 0 and runner.backend is not None


class TestCollectorState:
    def test_callbacks_run_with_the_collector_paused(self):
        sim, seen = Simulator(), []
        sim.call_in(1.0, lambda: seen.append(gc.isenabled()))
        sim.call_in_each(1.0, lambda _: seen.append(gc.isenabled()), [0, 1])
        gc.enable()
        sim.run()
        assert seen == [False] * 3
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        sim = Simulator()
        sim.call_in(1.0, print)
        gc.disable()
        sim.run()
        assert not gc.isenabled()

    def test_a_raising_callback_still_restores_the_collector(self):
        sim = Simulator()
        sim.call_in(1.0, int, "not a number")
        gc.enable()
        with pytest.raises(ValueError):
            sim.run()
        assert gc.isenabled()

    def test_an_exhausted_budget_still_restores_the_collector(self):
        sim = Simulator()

        def again():
            sim.call_in(1.0, again)

        sim.call_in(1.0, again)
        gc.enable()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=3)
        assert gc.isenabled()

    def test_step_and_peek_leave_the_collector_alone(self):
        sim, seen = Simulator(), []
        sim.call_in(1.0, lambda: seen.append(gc.isenabled()))
        gc.enable()
        assert sim.peek() == 1.0 and sim.step()
        assert seen == [True] and gc.isenabled()

    def test_a_refused_reentrant_run_changes_nothing(self):
        sim, seen = Simulator(), []

        def reenter():
            with pytest.raises(SimulationError, match="re-entrant"):
                sim.run()
            seen.append(gc.isenabled())

        sim.call_in(1.0, reenter)
        gc.enable()
        sim.run()
        assert seen == [False] and gc.isenabled()

"""Unit tests for generator-based processes."""

import sys

import pytest

from repro.sim.errors import StopProcess
from repro.sim.process import Process


class TestBasics:
    def test_process_advances_through_timeouts(self, sim):
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            yield sim.timeout(3.0)
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_resumed_generator_runs_three_frames_under_the_drain_loop(self, sim):
        # _drain -> Event._process -> Process._resume -> _advance -> generator:
        # a wrapper put back between a reply and the validator fails here.
        stacks = []

        def snapshot():
            frame, names = sys._getframe(2), []
            while frame is not None and len(names) < 4:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(names)

        def worker():
            snapshot()
            yield sim.timeout(1.0)
            snapshot()
            try:
                yield sim.event().fail(RuntimeError("boom"))
            except RuntimeError:
                snapshot()

        sim.process(worker())
        sim.run()
        assert stacks == [["_advance", "_resume", "_process", "_drain"]] * 3

    def test_return_value_becomes_process_value(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return 42

        process = sim.process(worker())
        sim.run()
        assert process.triggered
        assert process.value == 42

    def test_timeout_value_is_delivered_to_yield(self, sim):
        got = []

        def worker():
            value = yield sim.timeout(1.0, value="tick")
            got.append(value)

        sim.process(worker())
        sim.run()
        assert got == ["tick"]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_yielding_non_event_raises_inside_process(self, sim):
        def worker():
            yield "not an event"

        sim.process(worker())
        with pytest.raises(TypeError):
            sim.run()


class TestComposition:
    def test_process_waits_on_another_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return "inner-result"

        def outer():
            result = yield sim.process(inner())
            return ("outer", result, sim.now)

        process = sim.process(outer())
        sim.run()
        assert process.value == ("outer", "inner-result", 2.0)

    def test_waiting_on_already_completed_event(self, sim):
        timeout = sim.timeout(1.0, value="early")

        def worker():
            yield sim.timeout(5.0)
            value = yield timeout  # long since processed
            return value

        process = sim.process(worker())
        sim.run()
        assert process.value == "early"

    def test_two_processes_interleave(self, sim):
        trace = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((name, sim.now))

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 3.0))
        sim.run()
        # At t=6 both fire; b's timeout was enqueued at t=3 (before a's
        # at t=4), so the kernel's schedule-order tie-break runs b first.
        assert trace == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0),
        ]


class TestFailures:
    def test_failed_event_throws_into_process(self, sim):
        caught = []

        def worker():
            event = sim.event()
            event.fail(RuntimeError("boom"))
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(worker())
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_exception_propagates_without_waiters(self, sim):
        def worker():
            yield sim.timeout(1.0)
            raise ValueError("unhandled")

        sim.process(worker())
        with pytest.raises(ValueError):
            sim.run()

    def test_exception_delivered_to_waiting_process(self, sim):
        outcome = []

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("inner failure")

        def waiter():
            try:
                yield sim.process(failing())
            except ValueError as exc:
                outcome.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert outcome == ["inner failure"]


class TestInterrupt:
    def test_interrupt_stops_process(self, sim):
        trace = []

        def worker():
            trace.append("start")
            yield sim.timeout(10.0)
            trace.append("never")

        process = sim.process(worker())
        sim.call_at(1.0, lambda: process.interrupt())
        sim.run()
        assert trace == ["start"]
        assert process.triggered

    def test_interrupt_allows_cleanup(self, sim):
        trace = []

        def worker():
            try:
                yield sim.timeout(10.0)
            except StopProcess:
                trace.append("cleanup")
                raise

        process = sim.process(worker())
        sim.call_at(1.0, lambda: process.interrupt())
        sim.run()
        assert trace == ["cleanup"]

    def test_interrupt_after_completion_is_noop(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(worker())
        sim.run()
        process.interrupt()
        assert process.value == "done"

"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.errors import EventStateError, SchedulingError, SimulationError
from repro.sim.kernel import PRIORITY_HIGH, PRIORITY_LOW, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_call_at_runs_at_absolute_time(self, sim):
        hits = []
        sim.call_at(3.5, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [3.5]

    def test_call_in_runs_relative(self, sim):
        hits = []
        sim.call_at(2.0, lambda: sim.call_in(1.5, lambda: hits.append(sim.now)))
        sim.run()
        assert hits == [3.5]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.call_in(-0.1, lambda: None)

    def test_same_time_events_run_in_schedule_order(self, sim):
        order = []
        for tag in range(5):
            sim.call_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_overrides_schedule_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("low"), priority=PRIORITY_LOW)
        sim.call_at(1.0, lambda: order.append("high"), priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "low"]

    def test_events_run_in_time_order_regardless_of_insert_order(self, sim):
        order = []
        sim.call_at(5.0, lambda: order.append(5))
        sim.call_at(1.0, lambda: order.append(1))
        sim.call_at(3.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 3, 5]


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        hits = []
        sim.call_at(1.0, lambda: hits.append(1))
        sim.call_at(10.0, lambda: hits.append(10))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_resumable_after_until(self, sim):
        hits = []
        sim.call_at(10.0, lambda: hits.append(10))
        sim.run(until=5.0)
        sim.run()
        assert hits == [10]

    def test_max_events_budget(self, sim):
        def reschedule():
            sim.call_in(1.0, reschedule)

        sim.call_in(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_processed_count(self, sim):
        for t in range(3):
            sim.call_at(float(t), lambda: None)
        sim.run()
        assert sim.processed_count == 3

    def test_peek_returns_next_time(self, sim):
        sim.call_at(7.0, lambda: None)
        assert sim.peek() == 7.0

    def test_peek_none_when_empty(self, sim):
        assert sim.peek() is None


class TestEvents:
    def test_cancelled_event_does_not_run(self, sim):
        hits = []
        event = sim.call_at(1.0, lambda: hits.append(1))
        event.cancel()
        sim.run()
        assert hits == []

    def test_cancel_after_processing_raises(self, sim):
        event = sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(EventStateError):
            event.cancel()


class TestDeterminism:
    def test_identical_schedules_identical_orders(self):
        def run_once():
            sim = Simulator()
            order = []
            for tag in range(20):
                sim.call_at(float(tag % 4), lambda t=tag: order.append(t))
            sim.run()
            return order

        assert run_once() == run_once()

"""ScheduledCall fast path and unified lazy cancellation."""

import pytest

from repro.sim.errors import EventStateError
from repro.sim.kernel import PRIORITY_HIGH, ScheduledCall, Simulator


class TestScheduledCall:
    def test_call_at_returns_scheduled_call(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        assert isinstance(handle, ScheduledCall)
        assert not handle.processed
        assert not handle.cancelled

    def test_processed_after_run(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        assert handle.processed

    def test_cancel_prevents_run(self, sim):
        hits = []
        handle = sim.call_in(1.0, lambda: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []
        assert handle.cancelled
        assert not handle.processed

    def test_cancel_after_processing_raises(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(EventStateError):
            handle.cancel()

    def test_cancel_drops_closure(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        handle.cancel()
        assert handle.fn is None

    def test_positional_arguments_reach_the_callable(self, sim):
        got = []
        sim.call_at(2.0, lambda *args: got.append((sim.now, args)), "a", 1)
        sim.call_in(1.0, lambda *args: got.append((sim.now, args)), "b")
        sim.call_in(3.0, lambda *args: got.append((sim.now, args)))
        sim.run()
        assert got == [(1.0, ("b",)), (2.0, ("a", 1)), (3.0, ())]

    def test_priority_is_keyword_only(self, sim):
        # A third positional value is an argument of ``fn``, never the priority.
        order = []
        sim.call_at(1.0, order.append, "normal")
        sim.call_at(1.0, order.append, PRIORITY_HIGH)
        sim.call_at(1.0, order.append, "high", priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal", PRIORITY_HIGH]

    def test_cancel_and_run_both_drop_the_arguments(self, sim):
        payload = object()
        cancelled = sim.call_in(1.0, lambda _p: None, payload)
        ran = sim.call_in(1.0, lambda _p: None, payload)
        assert cancelled.args == ran.args == (payload,)
        cancelled.cancel()
        sim.run()
        assert cancelled.args == () and cancelled.fn is None
        assert ran.args == () and ran.fn is None and ran.processed


class TestOrderingWithFullEvents:
    def test_priority_still_beats_schedule_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("normal"))
        sim.call_at(1.0, lambda: order.append("high"), priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal"]

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for tag in range(30):
                if tag % 3 == 0:  # the heap's other entry kind, a batch
                    sim.call_in_each(float(tag % 5), order.append, [tag, -tag])
                else:
                    sim.call_at(float(tag % 5), lambda t=tag: order.append(t))
            sim.run()
            return order

        assert run_once() == run_once()


class TestCancelledCount:
    def test_counts_cancelled_pops(self, sim):
        handles = [sim.call_at(1.0, lambda: None) for _ in range(5)]
        for handle in handles[:3]:
            handle.cancel()
        sim.run()
        assert sim.cancelled_count == 3
        assert sim.processed_count == 2

    def test_peek_and_step_count_each_discard_once(self, sim):
        first = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0          # discards the cancelled head
        assert sim.cancelled_count == 1
        assert sim.step() is True          # must not double-count
        assert sim.cancelled_count == 1
        assert sim.processed_count == 1

    def test_zero_when_nothing_cancelled(self, sim):
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.cancelled_count == 0

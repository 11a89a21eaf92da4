"""The kernel's one entry shape: a plain ``(time, sequence, fn, args)`` tuple."""

import sys

from repro.sim.kernel import Simulator


class TestEntryShape:
    def test_a_call_is_queued_as_a_bare_tuple(self, sim):
        sim.call_at(2.0, print, "a", 1)
        sim.call_in(1.0, print)
        assert sorted(sim._heap) == [(1.0, 1, print, ()), (2.0, 0, print, ("a", 1))]

    def test_a_fan_out_is_one_tuple_with_a_members_iterator(self, sim):
        sim.call_in_each(1.0, print, [1, 2, 3])
        ((time, sequence, fn, members),) = sim._heap
        assert (time, sequence, fn) == (1.0, 0, print)
        assert list(members) == [1, 2, 3]

    def test_the_callback_runs_directly_under_the_drain_loop(self, sim):
        frames = []
        sim.call_in(1.0, lambda: frames.append(sys._getframe(1).f_code.co_name))
        sim.call_in_each(1.0, lambda _: frames.append(sys._getframe(1).f_code.co_name), [0, 1])
        sim.run()
        assert frames == ["_drain"] * 3

    def test_positional_arguments_reach_the_callable(self, sim):
        got = []
        sim.call_at(2.0, lambda *args: got.append((sim.now, args)), "a", 1)
        sim.call_in(1.0, lambda *args: got.append((sim.now, args)), "b")
        sim.call_in(3.0, lambda *args: got.append((sim.now, args)))
        sim.run()
        assert got == [(1.0, ("b",)), (2.0, ("a", 1)), (3.0, ())]

    def test_a_run_drops_every_entry(self, sim):
        sim.call_at(1.0, print, object())
        sim.call_in_each(1.0, len, [(), ()])
        sim.run()
        assert sim._heap == [] and sim.pending_count == 0
        assert sim.cancelled_count == 0


class TestOrdering:
    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for tag in range(30):
                if tag % 3 == 0:  # a fan-out, the other use of the entry shape
                    sim.call_in_each(float(tag % 5), order.append, [tag, -tag])
                else:
                    sim.call_at(float(tag % 5), lambda t=tag: order.append(t))
            sim.run()
            return order

        assert run_once() == run_once()

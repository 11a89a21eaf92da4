"""Property-based tests on the simulation kernel and CDF."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cdf import EmpiricalCDF
from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.kernel import Simulator


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.call_at(t, lambda t=t: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def chain(remaining):
            observed.append(sim.now)
            if remaining:
                sim.call_in(remaining[0], lambda: chain(remaining[1:]))

        chain(delays)
        sim.run()
        assert observed == sorted(observed)


#: Few distinct times, so same-time ties are the common case.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 4.0])
#: What an entry does when it runs: nothing, or schedule a child.
_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.5, 1.5])),
)
_ENTRIES = st.lists(st.tuples(_TIMES, _ACTIONS), min_size=0, max_size=25)


def _build(entries, carry_args=True):
    """A simulator loaded with ``entries`` and the log its callbacks write.

    Calls are scheduled as ``call_*(t, fn, *args)``, or — the form that
    replaced — as ``call_*(t, partial(fn, *args))``.
    """
    sim, log = Simulator(), []

    def call(scheduler, when, fn, *args):
        if carry_args:
            scheduler(when, fn, *args)
        else:
            scheduler(when, partial(fn, *args))

    def act(tag, action):
        log.append((tag, sim.now, sim.processed_count, sim.pending_count))
        if action[0] == "spawn":
            call(sim.call_in, action[1], act, f"child-of-{tag}", ("noop",))

    for tag, (time, action) in enumerate(entries):
        call(sim.call_at, time, act, tag, action)
    return sim, log


def _reference_run(sim, until, max_events):
    """``run()`` as it was written on ``peek()`` and ``step()``."""
    processed = 0
    while True:
        next_time = sim.peek()
        if next_time is None or (until is not None and next_time > until):
            break
        assert sim.step()
        processed += 1
        if max_events is not None and processed >= max_events:
            return "budget"
    return "done"


class TestRunIsRepeatedStep:
    """``run()`` ≡ ``while step()``: one drain loop serves both."""

    @given(
        _ENTRIES,
        st.one_of(st.none(), st.sampled_from([0.0, 0.75, 1.0, 2.5, 3.0, 9.0])),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_order_clock_and_counters(self, entries, until, max_events):
        ran, ran_log = _build(entries)
        stepped, stepped_log = _build(entries)
        try:
            ran.run(until=until, max_events=max_events)
            verdict = "done"
        except SimulationError:
            verdict = "budget"
        assert _reference_run(stepped, until, max_events) == verdict
        assert ran_log == stepped_log
        assert ran.processed_count == stepped.processed_count
        assert ran.pending_count == stepped.pending_count
        if verdict == "done" and until is not None:
            # run() parks the clock on ``until``; step() cannot.
            assert ran.now == max(stepped.now, until)
        else:
            assert ran.now == stepped.now

    @given(_ENTRIES)
    @settings(max_examples=100, deadline=None)
    def test_draining_by_step_alone(self, entries):
        ran, ran_log = _build(entries)
        stepped, stepped_log = _build(entries)
        ran.run()
        while stepped.step():
            pass
        assert ran_log == stepped_log
        assert (ran.now, ran.processed_count) == (stepped.now, stepped.processed_count)
        assert stepped.peek() is None and stepped.pending_count == 0


class TestArgumentCarryingCalls:
    """``call_in(d, fn, *args)`` ≡ ``call_in(d, partial(fn, *args))``."""

    @given(_ENTRIES, st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 9.0])))
    @settings(max_examples=200, deadline=None)
    def test_same_order_clock_and_counters(self, entries, until):
        carried, carried_log = _build(entries, carry_args=True)
        wrapped, wrapped_log = _build(entries, carry_args=False)
        carried.run(until=until)
        wrapped.run(until=until)
        assert carried_log == wrapped_log
        assert (carried.now, carried.processed_count, carried.pending_count) == (
            wrapped.now, wrapped.processed_count, wrapped.pending_count
        )


#: What a fan-out member does: nothing, schedule a child (a same-time
#: one among them), or fan out again.
_MEMBER_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.0, 0.5])),
    st.tuples(st.just("fan"), st.sampled_from([0.0, 0.5]), st.integers(1, 3)),
)
#: One step of a schedule: a single call, or a run of same-time calls.
_SCHEDULE = st.lists(
    st.one_of(
        st.tuples(st.just("call"), _TIMES, _MEMBER_ACTIONS),
        st.tuples(st.just("run"), _TIMES, st.lists(_MEMBER_ACTIONS, max_size=6)),
    ),
    min_size=0, max_size=12,
)


def _build_fanouts(schedule, batched):
    """``schedule`` loaded with every run as one ``call_in_each`` or as N ``call_in``."""
    sim, log = Simulator(), []

    def fan_out(delay, members):
        if batched:
            sim.call_in_each(delay, act, members)
        else:
            for member in members:
                sim.call_in(delay, act, member)

    def act(member):
        tag, action = member
        log.append((tag, sim.now, sim.processed_count, sim.pending_count))
        if action[0] == "spawn":
            sim.call_in(action[1], act, (f"child-of-{tag}", ("noop",)))
        elif action[0] == "fan":
            fan_out(action[1], [(f"fan-{i}-of-{tag}", ("noop",)) for i in range(action[2])])

    for position, step in enumerate(schedule):
        if step[0] == "call":
            _, time, action = step
            sim.call_at(time, act, (position, action))
        else:
            _, time, actions = step
            fan_out(time, [((position, i), action) for i, action in enumerate(actions)])
    return sim, log


def _state(sim):
    return sim.now, sim.processed_count, sim.pending_count


class TestBatchIsConsecutiveCalls:
    """``call_in_each(d, fn, items)`` ≡ ``for item in items: call_in(d, fn, item)``."""

    @given(
        _SCHEDULE,
        st.one_of(st.none(), st.sampled_from([0.0, 0.75, 1.0, 2.5, 9.0])),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_until_and_budget(self, schedule, until, max_events):
        verdicts = []
        (batched, batched_log), (plain, plain_log) = (
            _build_fanouts(schedule, True), _build_fanouts(schedule, False)
        )
        for sim in (batched, plain):
            try:
                sim.run(until=until, max_events=max_events)
                verdicts.append("done")
            except SimulationError:
                verdicts.append("budget")
        assert verdicts[0] == verdicts[1]
        assert batched_log == plain_log
        assert _state(batched) == _state(plain)
        # What the budget or ``until`` cut off is still there, in order.
        batched.run()
        plain.run()
        assert batched_log == plain_log
        assert _state(batched) == _state(plain)

    @given(_SCHEDULE, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_budget_resumed_until_drained(self, schedule, budget):
        logs = []
        for batched in (True, False):
            sim, log = _build_fanouts(schedule, batched)
            for _ in range(400):
                try:
                    sim.run(max_events=budget)
                    break
                except SimulationError:
                    log.append(("budget",) + _state(sim))
            logs.append(log)
        assert logs[0] == logs[1]

    @given(_SCHEDULE)
    @settings(max_examples=200, deadline=None)
    def test_step_runs_one_member_and_peek_sees_the_rest(self, schedule):
        logs = []
        for batched in (True, False):
            sim, log = _build_fanouts(schedule, batched)
            while True:
                log.append(("peek", sim.peek()) + _state(sim))
                if not sim.step():
                    break
            assert sim.pending_count == 0
            logs.append(log)
        assert logs[0] == logs[1]

    def test_same_time_children_run_after_the_remaining_members(self):
        sim, order = Simulator(), []

        def member(name):
            order.append(name)
            if name == "a":
                sim.call_in(0.0, order.append, "after")
                sim.call_in(1.0, order.append, "later")

        sim.call_in_each(2.0, member, ["a", "b", "c"])
        sim.call_in(2.0, order.append, "next")
        assert sim.pending_count == 4
        sim.run()
        assert order == ["a", "b", "c", "next", "after", "later"]
        assert (sim.now, sim.processed_count, sim.pending_count) == (3.0, 6, 0)

    def test_budget_lands_mid_batch_and_the_rest_stays_queued(self):
        sim, order = Simulator(), []
        sim.call_in_each(1.0, order.append, range(5))
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        assert (order, sim.processed_count, sim.pending_count) == ([0, 1], 2, 3)
        assert sim.peek() == 1.0 and sim.step()
        assert (order, sim.processed_count, sim.pending_count) == ([0, 1, 2], 3, 2)
        sim.run()
        assert (order, sim.processed_count, sim.pending_count) == ([0, 1, 2, 3, 4], 5, 0)

    def test_a_raising_member_is_not_counted_and_loses_nothing_behind_it(self):
        sim, order = Simulator(), []

        def member(item):
            if item == 1:
                raise RuntimeError("boom")
            order.append(item)

        sim.call_in_each(0.5, member, [0, 1, 2, 3])
        with pytest.raises(RuntimeError):
            sim.run()
        assert (order, sim.processed_count, sim.pending_count) == ([0], 1, 2)
        sim.run()
        assert (order, sim.processed_count, sim.pending_count) == ([0, 2, 3], 3, 0)

    def test_a_raising_call_is_not_counted(self):
        sim = Simulator()
        sim.call_in(0.5, int, "not a number")
        sim.call_in(0.5, print)
        with pytest.raises(ValueError):
            sim.run()
        assert (sim.now, sim.processed_count, sim.pending_count) == (0.5, 0, 1)

    def test_empty_fan_out_schedules_nothing_and_negative_delay_is_refused(self):
        sim = Simulator()
        sim.call_in_each(1.0, print, [])
        assert sim.pending_count == 0 and sim.peek() is None
        with pytest.raises(SchedulingError):
            sim.call_in_each(-0.1, print, [1])


class TestCdfProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF(samples)
        points = [cdf(x) for x in sorted(samples)]
        assert all(0.0 <= p <= 1.0 for p in points)
        assert points == sorted(points)
        assert cdf(cdf.max) == 1.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_quantile_inverts_cdf(self, samples, level):
        cdf = EmpiricalCDF(samples)
        value = cdf.quantile(level)
        assert cdf(value) >= level

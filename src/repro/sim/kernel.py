"""Event heap and simulator core.

The kernel is a classic discrete-event loop over a heap of plain
``(time, sequence, fn, args)`` tuples.  The sequence number is unique
and makes the order of same-time events equal to their scheduling
order, which keeps whole simulations reproducible from a single seed;
because it is unique, no comparison ever reaches ``fn``.

There is one scheduling style, the callback, and one entry shape:
:meth:`Simulator.call_at` / :meth:`Simulator.call_in` queue
``fn(*args)`` with the positional arguments as the ``args`` tuple, and
:meth:`Simulator.call_in_each` queues a whole fan-out, one event per
item, as one entry with an iterator over its members in the ``args``
slot.  No handle is returned and nothing is cancelled: anything that
waits — the PoP validator on a reply or its timeout — keeps its own
state and is re-entered by the call it scheduled.

:meth:`Simulator.run` pauses Python's cyclic garbage collector while it
drains and restores the caller's setting on the way out.  Reference
counting already frees everything the loop drops; a full collection
would only re-scan the whole live ledger and find nothing.
``tests/sim/test_collector_pause.py`` keeps that true: a finished run,
on every backend and with both telemetry recorders, leaves no cyclic
garbage behind.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from operator import length_hint
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.errors import SchedulingError, SimulationError


class Simulator:
    """The discrete-event loop.

    Parameters
    ----------
    start_time:
        Initial value of :attr:`now`; the paper's evaluation uses
        integer "time slots" starting at 0.

    Notes
    -----
    The simulator makes a determinism guarantee: given the same sequence
    of ``call_*`` invocations, events run in exactly the same order,
    because ties are broken by a monotone sequence counter.  An entry
    is a tuple and nothing else — no object, and no frame of its own
    between :meth:`_drain` and the callback.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # ``args`` is a tuple for a call and a member iterator for a fan-out.
        self._heap: List[Tuple[float, int, Callable[..., None], Any]] = []
        self._sequence = itertools.count()
        # Fan-out members not yet started, beyond one per fan-out heap entry.
        self._batched = 0
        self._running = False
        self._processed_count = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events still queued."""
        return len(self._heap) + self._batched

    @property
    def processed_count(self) -> int:
        """Total number of events processed since construction."""
        return self._processed_count

    @property
    def cancelled_count(self) -> int:
        """Always 0: nothing is cancelled.

        Kept because the repo benchmark reports it as ``sim.cancelled``;
        it goes when that row does.
        """
        return 0

    # -- event creation -------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:  # also refuses NaN
            raise SchedulingError(f"cannot schedule at {time}; now is {self._now}")
        heapq.heappush(self._heap, (time, next(self._sequence), fn, args))

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` units from now."""
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), fn, args))

    def call_in_each(
        self, delay: float, fn: Callable[[Any], None], items: Iterable[Any]
    ) -> None:
        """``for item in items: call_in(delay, fn, item)`` as one heap entry.

        Still one event per item for :attr:`processed_count`, ``step()``
        and ``max_events``, and whatever a member schedules runs where
        it would have.
        """
        if not delay >= 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        members = tuple(items)
        if members:
            heapq.heappush(
                self._heap, (self._now + delay, next(self._sequence), fn, iter(members))
            )
            self._batched += len(members) - 1

    # -- execution ---------------------------------------------------------
    def _drain(self, until: Optional[float], limit: Optional[int]) -> int:
        """The one event loop behind :meth:`step` and :meth:`run`.

        Stops at the first entry later than ``until``, otherwise pops it
        and dispatches it in ``(time, sequence)`` order; stops once
        ``limit`` events have run.  An event is counted once its call
        returns.  Returns the number of events processed.
        """
        heap = self._heap
        done = 0
        while heap:
            head = heap[0]
            time, _seq, fn, args = head
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if time < self._now:
                raise SimulationError("event heap corrupted: time moved backwards")
            self._now = time
            if args.__class__ is tuple:
                fn(*args)
                self._processed_count += 1
                done += 1
            else:
                # A fan-out.  Whatever a member schedules gets a later
                # sequence and no earlier time, so nothing can sort before
                # the members after it: they run back to back until the
                # budget is spent or one raises, and the rest go back
                # under the same key.
                self._batched += 1
                try:
                    for item in args:
                        self._batched -= 1
                        fn(item)
                        self._processed_count += 1
                        done += 1
                        if limit is not None and done >= limit:
                            break
                finally:
                    if length_hint(args):
                        heapq.heappush(heap, head)
                        self._batched -= 1
            if limit is not None and done >= limit:
                break
        return done

    def peek(self) -> Optional[float]:  # repro: allow[test-only-public-name] test oracle of the kernel property test
        """Time of the next queued event, or ``None`` if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Process the single next event.  Returns ``False`` if none remain."""
        return self._drain(None, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or a budget hits.

        The cyclic garbage collector is paused for the drain and left as
        the caller had it afterwards, also when an event raises.

        Parameters
        ----------
        until:
            If given, stop once the next event's time strictly exceeds
            this value; :attr:`now` is then advanced to ``until``.
        max_events:
            Safety budget on the number of processed events — useful in
            tests to catch livelocks.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            done = self._drain(until, max_events)
            # The budget is looked at after each event, so even one
            # below 1 lets a first event run before it trips.
            if max_events is not None and done >= max(max_events, 1):
                raise SimulationError(f"max_events budget of {max_events} exhausted")
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False
            if collecting:
                gc.enable()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now} pending={self.pending_count}>"

"""Event heap and simulator core.

The kernel is a classic discrete-event loop: a priority queue of
scheduled calls ordered by ``(time, priority, sequence)``.  The
sequence number makes the order of same-time, same-priority events equal
to their scheduling order, which keeps whole simulations reproducible
from a single seed.

There is one scheduling style, the callback: :meth:`Simulator.call_at` /
:meth:`Simulator.call_in` run ``fn(*args)`` at a simulated time (one
lightweight :class:`ScheduledCall` each), and
:meth:`Simulator.call_in_each` queues a whole fan-out, one event per
item, as a single :class:`ScheduledBatch`.  Anything that waits — the
PoP validator on a reply or its timeout — keeps its own state and is
re-entered by the call it scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from operator import length_hint
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.errors import EventStateError, SchedulingError, SimulationError

#: Priority given to ordinary events.
PRIORITY_NORMAL = 10
#: Priority for bookkeeping events that must run before normal ones.
PRIORITY_HIGH = 0
#: Priority for events that must observe everything else at a time step.
PRIORITY_LOW = 20

#: An ``until`` earlier than every event: drains cancelled heads only.
_BEFORE_ALL = float("-inf")


class ScheduledCall:
    """The ``call_at``/``call_in`` entry: a one-shot callback.

    Callback scheduling is the kernel's hottest operation (every digest
    push, transport delivery, reply hand-over and slot tick goes through
    it), so a ``ScheduledCall`` carries only the callable and its
    positional arguments — callers need no ``partial`` or closure.

    The handle answers ``processed``/``cancelled`` and cancels lazily:
    ``cancel`` before processing works (the heap entry lingers until it
    surfaces); cancelling after processing raises.
    """

    __slots__ = ("fn", "args", "_processed", "_cancelled")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...] = ()) -> None:
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self._processed = False
        self._cancelled = False

    @property
    def processed(self) -> bool:
        """Whether the callback has already run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """Whether the call was cancelled before running."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent a scheduled-but-unprocessed call from running."""
        if self._processed:
            raise EventStateError("cannot cancel a processed event")
        self._cancelled = True
        self.fn, self.args = None, ()  # drop the call early; the heap entry lingers

    def _process(self) -> None:
        fn, args = self.fn, self.args
        if fn is None:  # cancelled: cancel() dropped the callable
            return
        self._processed = True
        self.fn, self.args = None, ()
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled" if self._cancelled
            else "processed" if self._processed
            else "scheduled"
        )
        return f"<ScheduledCall {state}>"


class ScheduledBatch:
    """The ``call_in_each`` entry: a run of ``fn(item)`` events under one key.

    A fan-out schedules one delivery per recipient back to back, so no
    other entry can sort between them; ``Simulator._drain`` runs the
    batch member by member, each counted as one event.  ``members``
    iterates over those not yet run.  There is no handle to cancel.
    """

    __slots__ = ("fn", "members")
    _cancelled = False

    def __init__(self, fn: Callable[[Any], None], items: Tuple[Any, ...]) -> None:
        self.fn = fn
        self.members = iter(items)


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
    of ``schedule``/``call_*`` invocations, events run in exactly the
    same order, because ties are broken by a monotone sequence counter.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap entries hold a ScheduledCall or a ScheduledBatch; both
        # expose ._cancelled, all _drain() asks before dispatching.
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._sequence = itertools.count()
        # Batch members not yet started, beyond one per batch heap entry.
        self._batched = 0
        self._running = False
        self._processed_count = 0
        self._cancelled_count = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap) + self._batched

    @property
    def processed_count(self) -> int:
        """Total number of events processed since construction."""
        return self._processed_count

    @property
    def cancelled_count(self) -> int:
        """Cancelled entries discarded from the heap (lazy cancellation)."""
        return self._cancelled_count

    # -- event creation -------------------------------------------------------
    def call_at(
        self, time: float, fn: Callable[..., None], *args: Any, priority: int = PRIORITY_NORMAL
    ) -> "ScheduledCall":
        """Run ``fn(*args)`` at absolute simulated ``time``.

        Returns a lightweight :class:`ScheduledCall` handle (supports
        ``cancel()``); scheduling order still breaks same-time ties.
        """
        if time < self._now:
            raise SchedulingError(f"cannot schedule at {time} < now {self._now}")
        entry = ScheduledCall(fn, args)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), entry))
        return entry

    def call_in(
        self, delay: float, fn: Callable[..., None], *args: Any, priority: int = PRIORITY_NORMAL
    ) -> "ScheduledCall":
        """Run ``fn(*args)`` ``delay`` units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        entry = ScheduledCall(fn, args)
        heapq.heappush(self._heap, (self._now + delay, priority, next(self._sequence), entry))
        return entry

    def call_in_each(
        self, delay: float, fn: Callable[[Any], None], items: Iterable[Any],
        *, priority: int = PRIORITY_NORMAL,
    ) -> None:
        """``for item in items: call_in(delay, fn, item)`` as one heap entry.

        Still one event per item for :attr:`processed_count`, ``step()``
        and ``max_events``, and whatever a member schedules runs where
        it would have.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        members = tuple(items)
        if members:
            entry = ScheduledBatch(fn, members)
            heapq.heappush(self._heap, (self._now + delay, priority, next(self._sequence), entry))
            self._batched += len(members) - 1

    # -- execution ---------------------------------------------------------
    def _drain(self, until: Optional[float], limit: Optional[int]) -> int:
        """The one event loop behind :meth:`peek`, :meth:`step` and :meth:`run`.

        Discards cancelled heads (lazy cancellation — the single place
        it happens, so every discard is counted once in
        :attr:`cancelled_count`), stops at the first live entry later
        than ``until``, otherwise pops and dispatches it in
        ``(time, priority, sequence)`` order; stops once ``limit``
        events have run.  Returns the number of events processed.
        """
        heap = self._heap
        done = 0
        while heap:
            head = heap[0]
            time, _priority, _seq, entry = head
            if entry._cancelled:
                heapq.heappop(heap)
                self._cancelled_count += 1
                continue
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if time < self._now:
                raise SimulationError("event heap corrupted: time moved backwards")
            self._now = time
            if entry.__class__ is ScheduledBatch:
                # Members run back to back until the budget is spent or one
                # scheduled something that sorts first; the rest go back.
                fn, members = entry.fn, entry.members
                self._batched += 1
                try:
                    for item in members:
                        self._batched -= 1
                        fn(item)
                        self._processed_count += 1
                        done += 1
                        if (limit is not None and done >= limit) or (heap and heap[0] < head):
                            break
                finally:
                    if length_hint(members):
                        heapq.heappush(heap, head)
                        self._batched -= 1
            else:
                entry._process()
                self._processed_count += 1
                done += 1
            if limit is not None and done >= limit:
                break
        return done

    def peek(self) -> Optional[float]:
        """Time of the next queued event, or ``None`` if the heap is empty."""
        self._drain(_BEFORE_ALL, None)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Process the single next event.  Returns ``False`` if none remain."""
        return self._drain(None, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or a budget hits.

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now} pending={self.pending_count}>"

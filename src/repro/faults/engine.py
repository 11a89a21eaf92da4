"""The fault engine: replay a schedule against a ledger backend.

:class:`FaultEngine` owns the timeline position; the
:class:`~repro.scenario.runner.ScenarioRunner` pauses at every
:attr:`~repro.faults.spec.FaultScheduleSpec.boundary_slots` entry and
calls :meth:`FaultEngine.apply_due`, which dispatches each due event
through the backend's ``apply_fault`` hook (see
:class:`~repro.scenario.backends.LedgerBackend`: every backend honours
every kind, so there is no roster to check).  Events fire in timeline
order exactly once, *before* their slot is scheduled.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.faults.spec import FaultEvent, FaultScheduleSpec

#: Called after each applied event with (event, slot it fired before).
FaultObserver = Callable[[FaultEvent, int], None]


class FaultEngine:
    """Apply a :class:`FaultScheduleSpec` to a backend at slot boundaries.

    ``observer`` is an optional pure-observation callback fired *after*
    each event is applied (the telemetry layer's hook); it must not
    touch simulation state — the engine's behaviour is identical with
    or without one.
    """

    def __init__(
        self,
        schedule: FaultScheduleSpec,
        backend,
        observer: Optional[FaultObserver] = None,
    ) -> None:
        self.schedule = schedule
        self.backend = backend
        self.applied: List[FaultEvent] = []
        self._position = 0
        self._observer = observer

    @property
    def boundary_slots(self) -> Tuple[int, ...]:
        """Slots the runner must stop at so events fire on time."""
        return self.schedule.boundary_slots

    @property
    def pending(self) -> int:
        """Events not yet applied."""
        return len(self.schedule.events) - self._position

    def apply_due(self, slot: int) -> None:
        """Fire every not-yet-applied event whose slot is ``<= slot``.

        Called with the next slot about to be scheduled, so an event at
        slot ``s`` takes effect before any slot-``s`` work is enqueued.
        """
        events = self.schedule.events
        while self._position < len(events) and events[self._position].slot <= slot:
            event = events[self._position]
            self.backend.apply_fault(event)
            self.applied.append(event)
            self._position += 1
            if self._observer is not None:
                self._observer(event, slot)

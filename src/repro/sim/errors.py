"""Exception types raised by the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level failures.

    Raised for misuse of the kernel itself (scheduling into the past,
    cancelling a call that already ran, re-entering ``run()``).
    Protocol-level failures never use this type.
    """


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class EventStateError(SimulationError):
    """A scheduled call was cancelled in an incompatible state."""

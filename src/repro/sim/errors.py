"""Exception types raised by the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level failures.

    Raised for misuse of the kernel itself (scheduling into the past,
    re-entering ``run()``, an exhausted ``max_events`` budget).
    Protocol-level failures never use this type.
    """


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (in the past, or NaN)."""

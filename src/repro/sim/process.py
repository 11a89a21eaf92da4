"""Generator-based simulation processes.

A :class:`Process` drives a generator that models a concurrent activity.
The generator ``yield``\\ s :class:`~repro.sim.kernel.Event` objects and
is resumed — with the event's value — when the event is processed.  A
``return`` (or ``StopIteration``) value becomes the process's own event
value, so processes compose: one process may ``yield`` another.

This is the style used for the PoP validator, which alternates between
sending requests and waiting (with a timeout) for replies.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.errors import StopProcess
from repro.sim.kernel import Event, Simulator


class Process(Event):
    """An event representing the completion of a running generator."""

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        self._generator = generator
        self._target: Event | None = None
        # Kick off on the next kernel step so construction order does not
        # matter within a time instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()
        self._target = bootstrap

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`StopProcess` into the generator immediately.

        The event the process was waiting on is detached first so that a
        later trigger of that event does not resume a dead process.
        """
        if self.triggered:
            return
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._throw(StopProcess(reason))

    # -- internal ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event._ok:
            self._advance(self._generator.send, event._value)
        else:
            self._advance(self._generator.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        self._advance(self._generator.throw, exc)

    def _advance(self, step: Callable[[Any], Any], value: Any) -> None:
        try:
            target = step(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except StopProcess:
            self.succeed(None)
            return
        except BaseException as exc:  # propagate into waiters
            if self.callbacks:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            self._throw(TypeError(f"process yielded non-event: {target!r}"))
            return
        if target.processed:
            # Already-processed events resume the process on the next step.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay.fail(target.value)
            self._target = relay
        else:
            target.callbacks.append(self._resume)
            self._target = target

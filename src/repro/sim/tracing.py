"""Structured event tracing.

Protocols emit :class:`TraceRecord`\\ s through a :class:`Tracer`; tests
and experiment runners subscribe to categories to observe behaviour
without instrumenting protocol code.  Tracing is off until the first
subscriber and costs one predicate check per emit while off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class TraceRecord(NamedTuple):
    """One traced occurrence.

    A named tuple rather than a dataclass: records are built on every
    enabled emission inside hot simulation loops, and tuple
    construction keeps that path cheap.  Records are immutable and
    read-only by convention (``detail`` is owned by the emitter).

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Dotted category, e.g. ``"pop.req_child"`` or ``"block.generated"``.
    node:
        Identifier of the node the record concerns (or ``None``).
    detail:
        Free-form payload dictionary.
    """

    time: float
    category: str
    node: Optional[int] = None
    detail: Dict[str, Any] = {}


class Tracer:
    """Dispatches :class:`TraceRecord` objects to prefix subscribers.

    :attr:`enabled` stays ``False`` — every :meth:`emit` a no-op — until
    the first :meth:`subscribe`; emission sites read it to skip building
    a record's detail.  Nothing is retained: a subscriber that wants the
    records keeps them (``tracer.subscribe("", records.append)``).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        #: Exact category -> matching callbacks, built lazily per
        #: category so the hot emit path is one dict lookup instead of
        #: a prefix scan; invalidated whenever a subscriber is added.
        self._dispatch: Dict[str, Tuple[Callable[[TraceRecord], None], ...]] = {}
        #: Cooperative source-level pre-filters for high-frequency
        #: categories; see :meth:`set_interest`.
        self.interests: Dict[str, Any] = {}

    def subscribe(self, category_prefix: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for records whose category has this prefix."""
        self._subscribers.setdefault(category_prefix, []).append(callback)
        self._dispatch.clear()
        self.enabled = True

    def set_interest(self, category: str, container: Any) -> None:
        """Install a cooperative pre-filter for a high-frequency category.

        Emission sites of categories documented as *filterable* consult
        :attr:`interests` before emitting: when a container is
        registered for the category, a record is emitted only for keys
        present in it (``key in container``).  A subscriber that
        samples a small population can thereby suppress the per-event
        emission cost of the unsampled majority at the source, instead
        of discarding records after they were built and dispatched.
        The filter is category-wide: it also hides the skipped
        emissions from every other subscriber of that category.
        """
        self.interests[category] = container

    def emit(self, time: float, category: str, node: Optional[int] = None, **detail: Any) -> None:
        """Emit a record; cheap no-op when tracing is disabled."""
        if not self.enabled:
            return
        callbacks = self._dispatch.get(category)
        if callbacks is None:
            callbacks = tuple(
                callback
                for prefix, registered in self._subscribers.items()
                if category.startswith(prefix)
                for callback in registered
            )
            self._dispatch[category] = callbacks
        if not callbacks:
            return
        record = TraceRecord(time, category, node, detail)
        for callback in callbacks:
            callback(record)

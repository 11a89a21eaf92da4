"""Fault timelines: typed events, validated schedules, JSON round-trip.

A :class:`FaultEvent` names one fault at one slot; a
:class:`FaultScheduleSpec` is the ordered timeline a scenario declares
(``workload.faults``) and the :class:`~repro.faults.engine.FaultEngine`
replays.  Both are frozen, validate on construction, and round-trip
through JSON (:meth:`FaultScheduleSpec.to_dict` /
:meth:`FaultScheduleSpec.from_dict` / :meth:`FaultScheduleSpec.from_file`)
so a schedule can be committed, diffed and replayed byte-identically —
the same contract the scenario spec tree keeps.

Event kinds
-----------

``node-crash``
    ``nodes`` go down just before ``slot`` is scheduled: they stop
    generating/submitting/issuing and ignore traffic until they rejoin.
``node-rejoin``
    Previously crashed ``nodes`` come back; on the 2LDAG backend
    ``forgive`` additionally records renewed cooperation everywhere
    (§IV-D-6 blacklist forgiveness — ignored by ledgers without one).
``partition``
    The network splits along ``groups``: any hop between nodes of
    different groups is dropped (nodes not named in any group form one
    implicit remainder group).  Only one partition may be active.
``heal``
    The active partition is removed.
``link-degrade``
    Every hop loses frames with probability ``loss`` and pays
    ``extra_latency`` additional seconds, applied through
    :mod:`repro.net.linkmodels`.  A later ``link-degrade`` *replaces*
    the active degradation, so ``loss=0, extra_latency=0`` restores
    healthy links.

This module deliberately imports nothing from :mod:`repro.scenario`
(the scenario spec imports *us*); schedule validation is therefore
shape-only — the scenario layer checks node ids against its topology
and slots against its workload.  For the same reason the one typed
reader of spec JSON (:data:`LEAF_READERS`, :func:`read_leaf`,
:func:`read_section`) lives here, below both of its other users, the
scenario spec and the campaign grid.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

#: The typed fault event kinds, in documentation order.
NODE_CRASH = "node-crash"
NODE_REJOIN = "node-rejoin"
PARTITION = "partition"
HEAL = "heal"
LINK_DEGRADE = "link-degrade"

FAULT_KINDS = (NODE_CRASH, NODE_REJOIN, PARTITION, HEAL, LINK_DEGRADE)


class FaultError(ValueError):
    """A fault event or schedule that cannot describe a runnable timeline."""


# -- typed leaves --------------------------------------------------------------

def _int(value: Any) -> int:
    """A JSON number without a fractional part, never a JSON boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError
    return value


def _float(value: Any) -> float:
    """A JSON number, never a JSON boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)


def _bool(value: Any) -> bool:
    """A JSON boolean, or its ``0`` / ``1`` spelling."""
    if type(value) not in (bool, int) or value not in (0, 1):
        raise TypeError
    return bool(value)


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _tuple_of(item: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """Reader of a JSON array (a tuple, from in-process callers) of ``item``."""

    def read(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        return tuple(item(entry) for entry in value)

    return read


#: Field annotation -> reader of the one JSON value shape a spec leaf of
#: that annotation admits; the reader returns the value as the annotated
#: type or raises ``TypeError``.  Nested sections go unlisted (they are
#: read section by section) and pass through unchanged.
LEAF_READERS: Dict[str, Callable[[Any], Any]] = {
    "int": _int,
    "float": _float,
    "bool": _bool,
    "str": _str,
    "Optional[int]": lambda value: None if value is None else _int(value),
    "Union[int, str]": lambda value: value if isinstance(value, str) else _int(value),
    "Tuple[int, ...]": _tuple_of(_int),
    "Tuple[Tuple[int, ...], ...]": _tuple_of(_tuple_of(_int)),
    "Tuple[AdversarySpec, ...]": _tuple_of(lambda entry: entry),
}


def read_leaf(
    field: dataclasses.Field, where: str, value: Any, error: Type[ValueError]
) -> Any:
    """``value`` as ``field``'s annotated type, or ``error`` naming ``where``."""
    reader = LEAF_READERS.get(field.type)
    if reader is None:
        return value
    try:
        return reader(value)
    except (TypeError, OverflowError):
        raise error(f"{where} must be {field.type}, got {value!r}") from None


def read_section(
    cls_: type, where: str, raw: Any, error: Type[ValueError]
) -> Dict[str, Any]:
    """The JSON object ``raw`` as keyword arguments for dataclass ``cls_``.

    Raises ``error`` naming ``where`` (and the field) for a non-object,
    an unknown or missing field, or a wrongly typed leaf.
    """
    if not isinstance(raw, dict):
        raise error(f"{where} must be a JSON object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls_)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise error(f"unknown {where} field(s): {', '.join(sorted(unknown))}")
    kwargs: Dict[str, Any] = {}
    for name, f in fields.items():
        if name in raw:
            kwargs[name] = read_leaf(f, f"{where}.{name}", raw[name], error)
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise error(f"{where} needs a {name!r} field")
    return kwargs


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault at one workload slot.

    Only the fields the ``kind`` reads are meaningful; the others must
    keep their defaults (validated), so serialized events stay minimal
    and two equal timelines always serialize identically.
    """

    kind: str
    slot: int
    nodes: Tuple[int, ...] = ()
    groups: Tuple[Tuple[int, ...], ...] = ()
    loss: float = 0.0
    extra_latency: float = 0.0
    forgive: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.slot < 0:
            raise FaultError(f"fault slot must be non-negative, got {self.slot}")
        if self.kind in (NODE_CRASH, NODE_REJOIN):
            if not self.nodes:
                raise FaultError(f"{self.kind} event needs a non-empty nodes list")
            if len(set(self.nodes)) != len(self.nodes):
                raise FaultError(f"{self.kind} event names duplicate nodes: {self.nodes}")
        elif self.nodes:
            raise FaultError(f"{self.kind} event takes no nodes, got {self.nodes}")
        if self.kind == PARTITION:
            if not self.groups:
                raise FaultError("partition event needs at least one group")
            seen: set = set()
            for group in self.groups:
                if not group:
                    raise FaultError("partition groups must be non-empty")
                overlap = seen & set(group)
                if overlap:
                    raise FaultError(
                        f"partition groups overlap on node(s) {sorted(overlap)}"
                    )
                seen |= set(group)
        elif self.groups:
            raise FaultError(f"{self.kind} event takes no groups, got {self.groups}")
        if self.kind == LINK_DEGRADE:
            if not 0.0 <= self.loss <= 1.0:
                raise FaultError(f"loss must be in [0, 1], got {self.loss}")
            if self.extra_latency < 0:
                raise FaultError(
                    f"extra_latency must be non-negative, got {self.extra_latency}"
                )
        elif self.loss or self.extra_latency:
            raise FaultError(f"{self.kind} event takes no loss/extra_latency")
        if self.kind != NODE_REJOIN and self.forgive is not True:
            raise FaultError(f"forgive applies to {NODE_REJOIN} events only")

    @property
    def referenced_nodes(self) -> Tuple[int, ...]:
        """Every node id this event names (for topology validation)."""
        if self.kind in (NODE_CRASH, NODE_REJOIN):
            return self.nodes
        if self.kind == PARTITION:
            return tuple(node for group in self.groups for node in group)
        return ()

    def describe(self) -> str:
        """A compact one-line rendering for CLI timelines."""
        if self.kind in (NODE_CRASH, NODE_REJOIN):
            detail = f"nodes={','.join(str(n) for n in self.nodes)}"
            if self.kind == NODE_REJOIN and not self.forgive:
                detail += " forgive=no"
        elif self.kind == PARTITION:
            detail = "|".join(
                ",".join(str(n) for n in group) for group in self.groups
            )
            detail = f"groups={detail}"
        elif self.kind == LINK_DEGRADE:
            detail = f"loss={self.loss:g} extra_latency={self.extra_latency:g}s"
        else:
            detail = ""
        return f"slot {self.slot}: {self.kind}" + (f" ({detail})" if detail else "")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A minimal JSON-ready dict (kind-relevant fields only)."""
        payload: Dict[str, Any] = {"kind": self.kind, "slot": self.slot}
        if self.kind in (NODE_CRASH, NODE_REJOIN):
            payload["nodes"] = list(self.nodes)
        if self.kind == NODE_REJOIN:
            payload["forgive"] = self.forgive
        if self.kind == PARTITION:
            payload["groups"] = [list(group) for group in self.groups]
        if self.kind == LINK_DEGRADE:
            payload["loss"] = self.loss
            payload["extra_latency"] = self.extra_latency
        return payload

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], where: str = "fault event"
    ) -> "FaultEvent":
        """Rebuild one event; unknown fields and mistyped leaves are rejected."""
        return cls(**read_section(cls, where, payload, FaultError))


@dataclass(frozen=True)
class FaultScheduleSpec:
    """An ordered, validated timeline of fault events.

    Events must be sorted by slot (ties keep declaration order) and
    describe a consistent story: a node may only rejoin while crashed,
    only one partition may be active, and ``heal`` needs one.  The
    linear replay the validator performs is exactly what the
    :class:`~repro.faults.engine.FaultEngine` will do at run time, so a
    schedule that constructs is a schedule that executes.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.events:
            raise FaultError("fault schedule with no events is meaningless")
        slots = [event.slot for event in self.events]
        if slots != sorted(slots):
            raise FaultError(
                f"fault events must be ordered by slot, got slots {slots}"
            )
        crashed: set = set()
        partitioned = False
        for event in self.events:
            if event.kind == NODE_CRASH:
                already = crashed & set(event.nodes)
                if already:
                    raise FaultError(
                        f"slot {event.slot}: node(s) {sorted(already)} are already crashed"
                    )
                crashed |= set(event.nodes)
            elif event.kind == NODE_REJOIN:
                missing = set(event.nodes) - crashed
                if missing:
                    raise FaultError(
                        f"slot {event.slot}: node(s) {sorted(missing)} rejoin "
                        f"without having crashed"
                    )
                crashed -= set(event.nodes)
            elif event.kind == PARTITION:
                if partitioned:
                    raise FaultError(
                        f"slot {event.slot}: a partition is already active; heal it first"
                    )
                partitioned = True
            elif event.kind == HEAL:
                if not partitioned:
                    raise FaultError(
                        f"slot {event.slot}: heal without an active partition"
                    )
                partitioned = False

    # -- derived -----------------------------------------------------------
    @property
    def boundary_slots(self) -> Tuple[int, ...]:
        """Sorted unique slots where the runner must pause to apply events."""
        return tuple(sorted({event.slot for event in self.events}))

    @property
    def max_slot(self) -> int:
        """The latest event slot (for workload-length validation)."""
        return self.events[-1].slot

    @property
    def kinds(self) -> FrozenSet[str]:
        """The set of event kinds used (for capability validation)."""
        return frozenset(event.kind for event in self.events)

    @property
    def referenced_nodes(self) -> Tuple[int, ...]:
        """Sorted unique node ids any event names."""
        return tuple(
            sorted({n for event in self.events for n in event.referenced_nodes})
        )

    def describe(self) -> List[str]:
        """One compact line per event, in timeline order."""
        return [event.describe() for event in self.events]

    # -- churn sugar -------------------------------------------------------
    @classmethod
    def from_churn(
        cls,
        offline_nodes: Iterable[int],
        offline_slot: int,
        rejoin_slot: Optional[int] = None,
        forgive_on_rejoin: bool = True,
    ) -> "FaultScheduleSpec":
        """Compile the legacy ChurnSpec fields to a crash(+rejoin) timeline.

        Duplicate node ids are collapsed (first occurrence wins): the
        legacy churn hooks applied them idempotently, so a spec that
        listed a node twice must keep loading and running.
        """
        nodes = tuple(dict.fromkeys(offline_nodes))
        events: List[FaultEvent] = [
            FaultEvent(kind=NODE_CRASH, slot=offline_slot, nodes=nodes)
        ]
        if rejoin_slot is not None:
            events.append(
                FaultEvent(
                    kind=NODE_REJOIN,
                    slot=rejoin_slot,
                    nodes=nodes,
                    forgive=forgive_on_rejoin,
                )
            )
        return cls(events=tuple(events))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {"events": [event.to_dict() for event in self.events]}

    def to_json(self, indent: int = 2) -> str:
        """The canonical JSON text of this schedule."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultScheduleSpec":
        """Rebuild a schedule from :meth:`to_dict` output; validates fully."""
        if not isinstance(payload, dict):
            raise FaultError(f"fault schedule must be an object, got {payload!r}")
        data = dict(payload)
        entries = data.pop("events", None)
        if data:
            raise FaultError(
                f"unknown fault schedule field(s): {', '.join(sorted(data))}"
            )
        if not isinstance(entries, list) or not entries:
            raise FaultError("fault schedule needs a non-empty 'events' list")
        return cls(
            events=tuple(
                FaultEvent.from_dict(entry, f"events[{index}]")
                for index, entry in enumerate(entries)
            )
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultScheduleSpec":
        """Load a schedule from a JSON file written by :meth:`to_json`."""
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as error:
            raise FaultError(f"fault schedule file {path} is not valid JSON: {error}")
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        """Write the canonical JSON of this schedule to ``path`` atomically."""
        from repro.experiments.persistence import atomic_write_text

        atomic_write_text(path, self.to_json())

"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single source of truth for one 2LDAG
run: protocol knobs, a named+parameterized topology, the slot workload
(its fault timeline included), an optional adversary roster and the
master seed.
Specs are frozen, validated on construction, and round-trip through
JSON (:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict` /
:meth:`ScenarioSpec.from_file`), so a scenario can be committed,
diffed, and replayed byte-identically — new workloads are data, not
copy-pasted wiring code.

The companion modules supply the other two stages of the pipeline:
:mod:`repro.scenario.registry` names the canonical specs and
:mod:`repro.scenario.runner` turns any spec into a deployment and a
structured :class:`~repro.scenario.runner.ScenarioResult`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.faults.spec import FaultError, FaultScheduleSpec, read_section
from repro.metrics.units import bits_to_mb, mb_to_bits

#: Format marker for serialized specs, bumped on breaking layout changes.
SPEC_FORMAT_VERSION = 1

#: Topology kinds :func:`repro.scenario.backends.build_topology` understands.
TOPOLOGY_KINDS = ("sequential-geometric", "grid")

#: Coalition adversary kinds -> behaviour factories live in the 2LDAG
#: backend (:class:`repro.scenario.backends.TwoLayerDagBackend`).
COALITION_KINDS = ("silent", "corrupt")

#: All adversary kinds (coalitions plus the structural attacks).
ADVERSARY_KINDS = COALITION_KINDS + ("eclipse", "sybil")

#: The default ledger backend (the paper's two-layer DAG).
DEFAULT_BACKEND = "2ldag"

#: The sentinel generation period reproducing Fig. 9's workload.
RANDOM_1_2 = "random-1-2"


class ScenarioError(ValueError):
    """A spec that cannot describe a runnable scenario."""


def _build(cls_: type, where: str, raw: Any) -> Any:
    """Dataclass ``cls_`` built from the JSON object ``raw``."""
    return cls_(**read_section(cls_, where, raw, ScenarioError))


def _reject_constant(token: str) -> Any:
    """``json.loads(parse_constant=...)`` hook: no NaN / Infinity in a spec."""
    raise ScenarioError(f"non-finite number {token} in a scenario document")


def known_backend_names() -> Tuple[str, ...]:
    """The registered ledger backend names (lazily imported registry).

    The registry lives in :mod:`repro.scenario.backends` (which imports
    this module); resolving it lazily keeps spec validation in sync
    with whatever backends are registered without an import cycle.
    """
    from repro.scenario.backends import backend_names

    return tuple(backend_names())


@dataclass(frozen=True)
class TopologySpec:
    """A named, parameterized physical graph.

    ``kind`` selects the builder; only the parameters that kind reads
    are meaningful (the rest keep their defaults and are ignored):

    * ``sequential-geometric`` — the paper's §VI placement
      (``node_count``, ``area_side``, ``comm_range``);
    * ``grid`` — deterministic ``rows`` × ``cols`` lattice
      (``spacing``, ``comm_range``).
    """

    kind: str = "sequential-geometric"
    node_count: int = 50
    area_side: float = 1000.0
    comm_range: float = 50.0
    rows: int = 0
    cols: int = 0
    spacing: float = 40.0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ScenarioError(
                f"unknown topology kind {self.kind!r}; "
                f"known: {', '.join(TOPOLOGY_KINDS)}"
            )
        if self.kind == "grid":
            if self.rows <= 0 or self.cols <= 0:
                raise ScenarioError(
                    f"grid topology needs positive rows/cols, "
                    f"got {self.rows}x{self.cols}"
                )
        elif self.node_count <= 0:
            raise ScenarioError(
                f"node_count must be positive, got {self.node_count}"
            )

    @property
    def size(self) -> int:
        """``|V|`` the built topology will have."""
        if self.kind == "grid":
            return self.rows * self.cols
        return self.node_count


@dataclass(frozen=True)
class ProtocolSpec:
    """The :class:`~repro.core.config.ProtocolConfig` knobs runs vary.

    Field widths (``f_v``, ``f_H``, …) always stay at the paper's Fig. 2
    values; what scenarios sweep is the body size ``C``, the tolerance
    γ, the PoP reply timeout τ and the nonce-puzzle difficulty.
    """

    body_bits: int = mb_to_bits(0.5)
    gamma: int = 16
    reply_timeout: float = 0.5
    puzzle_difficulty_bits: int = 0

    def __post_init__(self) -> None:
        if self.body_bits < 0:
            raise ScenarioError(f"body_bits must be non-negative, got {self.body_bits}")
        if self.gamma < 0:
            raise ScenarioError(f"gamma must be non-negative, got {self.gamma}")
        if self.reply_timeout <= 0:
            raise ScenarioError(
                f"reply_timeout must be positive, got {self.reply_timeout}"
            )

    @property
    def body_mb(self) -> float:
        """``C`` in decimal megabytes (the unit Fig. 7 sweeps)."""
        return bits_to_mb(self.body_bits)

    @classmethod
    def paper(
        cls, gamma: int, body_mb: float = 0.5, **overrides: Any
    ) -> "ProtocolSpec":
        """The §VI settings with ``C`` given in MB."""
        return cls(body_bits=mb_to_bits(body_mb), gamma=gamma, **overrides)


@dataclass(frozen=True)
class WorkloadSpec:
    """The slot-driven workload (§VI) a scenario runs.

    Mirrors :class:`~repro.core.protocol.SlotSimulation`'s knobs plus
    the sampling and drain behaviour the experiment loops used to
    hand-roll: ``sample_slots`` are the slots at which the runner
    snapshots storage/traffic series, ``run_until_quiet`` drains
    in-flight validations after the last slot.

    ``faults`` declares the fault timeline
    (:class:`~repro.faults.spec.FaultScheduleSpec`) — crashes and
    rejoins (§VII dynamic membership) included — or is ``None`` for a
    fault-free run.
    """

    slots: int = 40
    generation_period: Union[int, str] = 1
    validate: bool = False
    fetch_body: bool = False
    validation_min_age_slots: Optional[int] = None
    intra_slot_jitter: float = 0.3
    run_until_quiet: bool = False
    quiet_time: float = 50.0
    sample_slots: Tuple[int, ...] = ()
    faults: Optional[FaultScheduleSpec] = None

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ScenarioError(f"slots must be positive, got {self.slots}")
        if isinstance(self.generation_period, str):
            if self.generation_period != RANDOM_1_2:
                raise ScenarioError(
                    f"unknown generation_period {self.generation_period!r}; "
                    f"use an integer or {RANDOM_1_2!r}"
                )
        elif self.generation_period < 1:
            raise ScenarioError(
                f"generation_period must be >= 1, got {self.generation_period}"
            )
        if self.intra_slot_jitter < 0:
            raise ScenarioError(
                f"intra_slot_jitter must be non-negative, got {self.intra_slot_jitter}"
            )
        if self.quiet_time < 0:
            raise ScenarioError(f"quiet_time must be non-negative, got {self.quiet_time}")
        if self.validation_min_age_slots is not None and self.validation_min_age_slots < 0:
            raise ScenarioError(
                "validation_min_age_slots must be non-negative, "
                f"got {self.validation_min_age_slots}"
            )
        if self.sample_slots:
            if list(self.sample_slots) != sorted(set(self.sample_slots)):
                raise ScenarioError(
                    f"sample_slots must be strictly increasing, got {self.sample_slots}"
                )
            if self.sample_slots[0] <= 0:
                raise ScenarioError("sample_slots must be positive")
            if self.sample_slots[-1] > self.slots:
                raise ScenarioError(
                    f"sample slot {self.sample_slots[-1]} exceeds the "
                    f"{self.slots}-slot workload"
                )
        if self.faults is not None and self.faults.max_slot >= self.slots:
            raise ScenarioError(
                f"fault event at slot {self.faults.max_slot} is past the "
                f"{self.slots}-slot workload"
            )


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary in the scenario's roster.

    Coalition kinds (``silent``, ``corrupt``) pick ``count`` nodes via
    :func:`repro.attacks.majority.make_coalition` on the named stream,
    sparing ``protect``.  ``eclipse`` installs the
    :func:`repro.attacks.eclipse.eclipse_victim` drop rule around
    ``victim``.  ``sybil`` fabricates ``count`` forged identities
    controlled by ``attacker`` (exposed on the built runner — they
    never enter the deployment, which is the point of the defence).
    """

    kind: str
    count: int = 0
    protect: Tuple[int, ...] = ()
    stream_name: str = "coalition"
    victim: int = -1
    attacker: int = -1

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ScenarioError(
                f"unknown adversary kind {self.kind!r}; "
                f"known: {', '.join(ADVERSARY_KINDS)}"
            )
        if self.kind in COALITION_KINDS and self.count <= 0:
            raise ScenarioError(
                f"{self.kind} coalition needs a positive count, got {self.count}"
            )
        if self.kind == "eclipse" and self.victim < 0:
            raise ScenarioError("eclipse adversary needs a victim node id")
        if self.kind == "sybil":
            if self.attacker < 0:
                raise ScenarioError("sybil adversary needs an attacker node id")
            if self.count <= 0:
                raise ScenarioError(
                    f"sybil adversary needs a positive identity count, got {self.count}"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable 2LDAG scenario.

    The whole run is declared here — hand a spec to
    :class:`~repro.scenario.runner.ScenarioRunner` and nothing else is
    needed.  ``backend`` names the ledger implementation the runner
    dispatches to (``"2ldag"`` — the paper's protocol — by default;
    ``"pbft"`` and ``"iota"`` run the comparison baselines on the same
    topology, workload and seed).
    """

    name: str = "custom"
    description: str = ""
    backend: str = DEFAULT_BACKEND
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    adversaries: Tuple[AdversarySpec, ...] = ()
    seed: int = 0
    per_hop_latency: float = 0.001

    def __post_init__(self) -> None:
        registered = known_backend_names()
        if self.backend not in registered:
            raise ScenarioError(
                f"unknown ledger backend {self.backend!r}; "
                f"registered: {', '.join(registered)}"
            )
        if self.backend != DEFAULT_BACKEND:
            if self.adversaries:
                raise ScenarioError(
                    f"the {self.backend} backend does not support adversaries; "
                    f"remove them or use backend {DEFAULT_BACKEND!r}"
                )
            if self.workload.generation_period != 1:
                # The baseline adapters hardwire one request/transaction
                # per node per slot; admitting another period would
                # silently compare different workloads across backends.
                raise ScenarioError(
                    f"the {self.backend} backend only supports "
                    f"generation_period=1, got "
                    f"{self.workload.generation_period!r}"
                )
        schedule = self.workload.faults
        size = self.topology.size
        if schedule is not None:
            bad = [n for n in schedule.referenced_nodes if n < 0 or n >= size]
            if bad:
                raise ScenarioError(
                    f"fault event node(s) {bad} are not among the {size} "
                    f"topology nodes"
                )
        if self.protocol.gamma + 1 > size:
            raise ScenarioError(
                f"gamma={self.protocol.gamma} needs a consensus path of "
                f"{self.protocol.gamma + 1} distinct nodes but the "
                f"{self.topology.kind} topology only has {size}"
            )
        if self.per_hop_latency < 0:
            raise ScenarioError(
                f"per_hop_latency must be non-negative, got {self.per_hop_latency}"
            )
        for adversary in self.adversaries:
            if adversary.kind in COALITION_KINDS:
                eligible = size - len(set(adversary.protect))
                if adversary.count > eligible:
                    raise ScenarioError(
                        f"{adversary.kind} coalition of {adversary.count} cannot "
                        f"be drawn from {eligible} eligible nodes"
                    )
            if adversary.kind == "eclipse" and adversary.victim >= size:
                raise ScenarioError(
                    f"eclipse victim {adversary.victim} is not one of the "
                    f"{size} topology nodes"
                )
            if adversary.kind == "sybil" and adversary.attacker >= size:
                raise ScenarioError(
                    f"sybil attacker {adversary.attacker} is not one of the "
                    f"{size} topology nodes"
                )

    # -- derived -----------------------------------------------------------
    @property
    def node_count(self) -> int:
        """``|V|`` of the scenario's topology."""
        return self.topology.size

    def with_workload(self, **changes: Any) -> "ScenarioSpec":
        """Copy with workload fields replaced (validation re-runs)."""
        return replace(self, workload=replace(self.workload, **changes))

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """Copy targeting another ledger backend (validation re-runs)."""
        return replace(self, backend=backend)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`).

        Pure JSON values throughout (tuples become lists), so the dict
        equals its own ``json.dumps``/``loads`` round-trip — a property
        the campaign result cache relies on.
        """

        def listify(value: Any) -> Any:
            if isinstance(value, (list, tuple)):
                return [listify(item) for item in value]
            if isinstance(value, dict):
                return {key: listify(item) for key, item in value.items()}
            return value

        payload: Dict[str, Any] = listify(dataclasses.asdict(self))
        payload["format_version"] = SPEC_FORMAT_VERSION
        # Fault timelines serialize through their own canonical form
        # (kind-relevant event fields only); fault-free workloads omit
        # the key entirely so pre-fault spec JSON — and every campaign
        # cell digest derived from it — is byte-identical.
        if self.workload.faults is None:
            payload["workload"].pop("faults")
        else:
            payload["workload"]["faults"] = self.workload.faults.to_dict()
        # The default backend is omitted so pre-backend specs (and their
        # campaign cell digests) serialize byte-identically.
        if self.backend == DEFAULT_BACKEND:
            payload.pop("backend")
        return payload

    def to_json(self, indent: int = 2) -> str:
        """The canonical JSON text of this spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output; validates fully.

        Whatever :meth:`to_dict` could not have written — a non-object
        document or section, an unknown field, a wrongly typed leaf — is
        a :class:`ScenarioError` naming the section and the field.
        """
        if isinstance(payload, dict):
            payload = dict(payload)
            version = payload.pop("format_version", SPEC_FORMAT_VERSION)
            if version != SPEC_FORMAT_VERSION:
                raise ScenarioError(f"unsupported scenario format {version!r}")
        data = read_section(cls, "scenario", payload, ScenarioError)
        workload = read_section(
            WorkloadSpec, "workload", data.get("workload", {}), ScenarioError
        )
        if workload.get("faults") is not None:
            try:
                workload["faults"] = FaultScheduleSpec.from_dict(workload["faults"])
            except FaultError as error:
                raise ScenarioError(f"invalid fault schedule: {error}")
        data["workload"] = WorkloadSpec(**workload)
        for name, cls_ in (("protocol", ProtocolSpec), ("topology", TopologySpec)):
            if name in data:
                data[name] = _build(cls_, name, data[name])
        data["adversaries"] = tuple(
            _build(AdversarySpec, f"adversaries[{index}]", entry)
            for index, entry in enumerate(data.get("adversaries", ()))
        )
        return cls(**data)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec from a JSON file written by :meth:`to_json`."""
        text = Path(path).read_text()
        return cls.from_dict(json.loads(text, parse_constant=_reject_constant))

    def save(self, path: Union[str, Path]) -> None:
        """Write the canonical JSON of this spec to ``path`` atomically."""
        from repro.persistence import atomic_write_text

        atomic_write_text(path, self.to_json())

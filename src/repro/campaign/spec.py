"""Campaign specifications: declarative fleets of scenario cells.

A *campaign* is an ordered set of runnable cells.  Each
:class:`CellSpec` pairs a :class:`~repro.scenario.spec.ScenarioSpec`
with a *cell kind* (what to do with the built deployment — run the
slot workload, probe it Fig. 9-style, audit it under attack, …) and a
small JSON ``params`` dict the kind interprets.  Because a cell is a
pure function of its spec, it has a stable content digest
(:meth:`CellSpec.digest`) that keys the on-disk result cache and makes
re-running a campaign compute only missing or invalidated cells.

Campaigns are built three ways, all converging on the same cell tuple:

* programmatically — :func:`expand_grid` applies a cartesian product
  of dotted-path overrides (``"protocol.gamma": [4, 8]``) to a base
  scenario, :func:`replicate_seeds` is the seed-replication shorthand;
* from JSON — :meth:`CampaignSpec.from_file` reads a campaign document
  whose cell entries reference presets or inline scenario specs plus
  optional ``grid`` / ``seeds`` expansions;
* from the preset registry — :mod:`repro.campaign.presets` names the
  canonical fleets (``smoke``, ``bench-grid``, ``gamma-sweep``, …).

Execution lives in :mod:`repro.campaign.executor`; cell kinds in
:mod:`repro.campaign.cells`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.canonical import canonical_json, sha256_lines
from repro.faults.spec import read_leaf
from repro.scenario.registry import get_scenario, scenario_names
from repro.scenario.spec import ScenarioError, ScenarioSpec

#: Format marker for serialized campaign documents.
CAMPAIGN_FORMAT_VERSION = 1

#: Bumped whenever cell execution semantics change in a way that makes
#: previously cached payloads wrong; part of every cell digest, so a
#: bump invalidates the whole result cache at once.
CAMPAIGN_CODE_VERSION = 1


class CampaignError(ValueError):
    """A campaign that cannot describe a runnable fleet."""


@dataclass(frozen=True)
class CellSpec:
    """One unit of campaign work: a scenario plus how to execute it.

    ``kind`` selects the registered cell runner (see
    :mod:`repro.campaign.cells`); ``params`` are kind-specific knobs
    (e.g. probe counts) and must be JSON-serializable — they are part
    of the cell's cache digest.
    """

    scenario: ScenarioSpec
    kind: str = "scenario"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise CampaignError(f"cell kind must be a non-empty string, got {self.kind!r}")
        try:
            canonical_json(dict(self.params))
        except (TypeError, ValueError) as error:
            raise CampaignError(f"cell params must be JSON-serializable: {error}")

    @property
    def label(self) -> str:
        """Human-readable identity for progress lines and journals."""
        if self.kind == "scenario":
            return self.scenario.name
        return f"{self.kind}:{self.scenario.name}"

    def digest(self) -> str:
        """Stable content digest keying this cell's cached result.

        Covers the cell kind, its params, the full scenario spec (which
        embeds the spec format version) and the campaign code version —
        any change to what the cell would compute, or to how cells are
        computed, yields a different digest and therefore a cache miss.

        Execution knobs are deliberately *excluded*: worker count,
        caching, retries, timeouts and chaos schedules affect how (and
        whether) a cell gets computed, never what it computes, so a
        payload cached under any of them is valid under all of them.
        """
        document = {
            "code_version": CAMPAIGN_CODE_VERSION,
            "kind": self.kind,
            "params": dict(self.params),
            "scenario": self.scenario.to_dict(),
        }
        return sha256_lines([canonical_json(document)])

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "scenario": self.scenario.to_dict(),
        }
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellSpec":
        """Rebuild one expanded cell (``scenario`` or ``preset`` form)."""
        data = dict(payload)
        kind = data.pop("kind", "scenario")
        params = data.pop("params", {})
        preset = data.pop("preset", None)
        scenario_data = data.pop("scenario", None)
        if data:
            raise CampaignError(
                f"unknown cell field(s): {', '.join(sorted(data))}"
            )
        scenario = _resolve_base_scenario(preset, scenario_data)
        if not isinstance(params, Mapping):
            raise CampaignError(f"cell params must be an object, got {params!r}")
        return cls(scenario=scenario, kind=kind, params=dict(params))


# -- grid expansion -----------------------------------------------------------

def apply_override(spec: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """Return ``spec`` with the dotted-``path`` field replaced by ``value``.

    ``path`` addresses nested spec sections (``"protocol.gamma"``,
    ``"workload.slots"``, ``"topology.node_count"``, plain ``"seed"``);
    the value is read as the field's annotated type, exactly as the
    scenario reader reads it from a spec file (JSON lists become
    tuples).  Validation re-runs on the rebuilt spec, so an override can
    never produce a spec the scenario layer would reject at run time.
    """
    parts = path.split(".")

    def descend(obj: Any, remaining: List[str], trail: List[str]) -> Any:
        name = remaining[0]
        known = {f.name: f for f in dataclasses.fields(obj)}
        if name not in known:
            raise CampaignError(
                f"unknown override field {'.'.join(trail + [name])!r}; "
                f"{type(obj).__name__} has: {', '.join(sorted(known))}"
            )
        if len(remaining) == 1:
            leaf = read_leaf(known[name], f"override {path}", value, CampaignError)
            return replace(obj, **{name: leaf})
        child = getattr(obj, name)
        if not dataclasses.is_dataclass(child) or child is None:
            raise CampaignError(
                f"override field {'.'.join(trail + [name])!r} is not a nested section"
            )
        return replace(obj, **{name: descend(child, remaining[1:], trail + [name])})

    try:
        return descend(spec, parts, [])
    except ScenarioError as error:
        raise CampaignError(
            f"override {path}={value!r} produces an invalid scenario: {error}"
        )


def expand_grid(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    kind: str = "scenario",
    params: Mapping[str, Any] = None,
) -> Tuple[CellSpec, ...]:
    """One cell per point of the cartesian product of ``axes``.

    ``axes`` maps dotted field paths to value lists; expansion order is
    the axes' declaration order (row-major), so a campaign document
    always expands to the same ordered cell tuple.  Expanded scenarios
    are renamed ``base[axis=value,...]`` so progress lines and cached
    entries are self-describing.
    """
    if not axes:
        return (CellSpec(scenario=base, kind=kind, params=dict(params or {})),)
    paths = list(axes)
    for path in paths:
        values = axes[path]
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise CampaignError(
                f"grid axis {path!r} needs a non-empty list of values, got {values!r}"
            )
    cells: List[CellSpec] = []
    for combo in itertools.product(*(list(axes[path]) for path in paths)):
        spec = base
        for path, value in zip(paths, combo):
            spec = apply_override(spec, path, value)
        label = ",".join(f"{path}={value}" for path, value in zip(paths, combo))
        spec = replace(spec, name=f"{base.name}[{label}]")
        cells.append(CellSpec(scenario=spec, kind=kind, params=dict(params or {})))
    return tuple(cells)


def replicate_seeds(
    base: ScenarioSpec,
    seeds: Sequence[int],
    kind: str = "scenario",
    params: Mapping[str, Any] = None,
) -> Tuple[CellSpec, ...]:
    """Seed replication: the same scenario once per master seed."""
    return expand_grid(base, {"seed": list(seeds)}, kind=kind, params=params)


def _resolve_base_scenario(preset: Any, scenario_data: Any) -> ScenarioSpec:
    """The base scenario a cell entry names (exactly one source)."""
    if (preset is None) == (scenario_data is None):
        raise CampaignError(
            "cell entry needs exactly one of 'preset' or 'scenario'"
        )
    if preset is not None:
        try:
            return get_scenario(str(preset))
        except KeyError:
            raise CampaignError(
                f"unknown scenario preset {preset!r}; "
                f"known: {', '.join(scenario_names())}"
            )
    try:
        return ScenarioSpec.from_dict(dict(scenario_data))
    except (ScenarioError, TypeError, ValueError) as error:
        raise CampaignError(f"invalid inline scenario: {error}")


def _cells_from_entry(entry: Any, index: int) -> Tuple[CellSpec, ...]:
    """Expand one campaign-document cell entry into concrete cells."""
    if not isinstance(entry, Mapping):
        raise CampaignError(f"cell entry {index} must be an object, got {entry!r}")
    data = dict(entry)
    kind = data.pop("kind", "scenario")
    params = data.pop("params", {})
    grid = data.pop("grid", {})
    seeds = data.pop("seeds", None)
    preset = data.pop("preset", None)
    scenario_data = data.pop("scenario", None)
    if data:
        raise CampaignError(
            f"cell entry {index}: unknown field(s) {', '.join(sorted(data))}"
        )
    if not isinstance(grid, Mapping):
        raise CampaignError(f"cell entry {index}: 'grid' must be an object")
    if not isinstance(params, Mapping):
        raise CampaignError(f"cell entry {index}: 'params' must be an object")
    try:
        base = _resolve_base_scenario(preset, scenario_data)
    except CampaignError as error:
        raise CampaignError(f"cell entry {index}: {error}")
    axes: Dict[str, Sequence[Any]] = dict(grid)
    if seeds is not None:
        if "seed" in axes:
            raise CampaignError(
                f"cell entry {index}: give either 'seeds' or a 'seed' grid axis, not both"
            )
        axes["seed"] = seeds
    try:
        return expand_grid(base, axes, kind=kind, params=params)
    except CampaignError as error:
        raise CampaignError(f"cell entry {index}: {error}")


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered, content-addressed fleet of cells.

    Cell order is meaningful (results come back in campaign order
    regardless of completion order) and duplicate cells are rejected —
    two cells with equal digests would compute the same thing twice and
    make "this cached entry belongs to that cell" ambiguous.
    """

    name: str
    description: str = ""
    cells: Tuple[CellSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a non-empty name")
        if not self.cells:
            raise CampaignError(f"campaign {self.name!r} has no cells")
        seen: Dict[str, str] = {}
        for cell in self.cells:
            digest = cell.digest()
            if digest in seen:
                raise CampaignError(
                    f"campaign {self.name!r} contains duplicate cells: "
                    f"{seen[digest]!r} and {cell.label!r} have identical specs"
                )
            seen[digest] = cell.label

    def digest(self) -> str:
        """Stable identity of this campaign (names its journal file)."""
        document = {
            "name": self.name,
            "cells": [cell.digest() for cell in self.cells],
        }
        return sha256_lines([canonical_json(document)])

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The fully expanded JSON form (round-trips via :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "format_version": CAMPAIGN_FORMAT_VERSION,
            "name": self.name,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        if self.description:
            payload["description"] = self.description
        return payload

    def to_json(self, indent: int = 2) -> str:
        """The canonical JSON text of this campaign."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Build a campaign from a document; grids/seeds are expanded."""
        if not isinstance(payload, Mapping):
            raise CampaignError(f"campaign document must be an object, got {payload!r}")
        data = dict(payload)
        version = data.pop("format_version", CAMPAIGN_FORMAT_VERSION)
        if version != CAMPAIGN_FORMAT_VERSION:
            raise CampaignError(f"unsupported campaign format {version!r}")
        name = data.pop("name", "")
        description = data.pop("description", "")
        entries = data.pop("cells", None)
        if data:
            raise CampaignError(
                f"unknown campaign field(s): {', '.join(sorted(data))}"
            )
        if not isinstance(entries, list) or not entries:
            raise CampaignError("campaign needs a non-empty 'cells' list")
        cells: List[CellSpec] = []
        for index, entry in enumerate(entries):
            cells.extend(_cells_from_entry(entry, index))
        return cls(name=str(name), description=str(description), cells=tuple(cells))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a campaign document from a JSON file."""
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as error:
            raise CampaignError(f"campaign file {path} is not valid JSON: {error}")
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> None:
        """Write the expanded canonical JSON of this campaign atomically."""
        from repro.experiments.persistence import atomic_write_text

        atomic_write_text(path, self.to_json())

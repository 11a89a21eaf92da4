"""One leaf check, three readers: scenario files, fault events, campaign grids.

Hostile values are generated from the dataclass fields themselves (the
way ``tests/telemetry/test_stream.py`` generates from ``SCHEMAS``), so a
field added to a spec section is covered the moment it lands: one
wrongly typed value per leaf per reader, each a typed error naming the
section (event, cell entry) and the field — never a traceback, never a
document that loads and means something else.  The literal cases below
the generated ones are the inputs that used to do exactly that.
"""

import dataclasses
import json
from typing import Callable, NamedTuple, Optional

import pytest

from repro.campaign import CampaignError, CampaignSpec, campaign_names, get_campaign
from repro.campaign.spec import CellSpec, apply_override
from repro.cli import main
from repro.faults import (
    FaultError,
    FaultEvent,
    FaultScheduleSpec,
    build_fault_preset,
    fault_preset_names,
)
from repro.faults.spec import LEAF_READERS
from repro.scenario import (
    AdversarySpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    scenario_names,
)

#: Annotation -> a JSON value that is not one.
WRONG = {
    "int": 1.5,
    "float": "x",
    "bool": "no",
    "str": 7,
    "Optional[int]": 1.5,
    "Union[int, str]": 1.5,
    "Tuple[int, ...]": [1.5],
    "Tuple[Tuple[int, ...], ...]": [1, 2],
    "Tuple[AdversarySpec, ...]": 3,
}

class Section(NamedTuple):
    cls: type
    #: The scenario document around one section body.
    document: Callable[[dict], dict]
    #: The dotted override prefix, or None when a grid cannot address it.
    grid_prefix: Optional[str]


#: Section name in error messages -> how to reach it.
SECTIONS = {
    "scenario": Section(ScenarioSpec, lambda body: body, ""),
    "protocol": Section(ProtocolSpec, lambda body: {"protocol": body}, "protocol."),
    "topology": Section(TopologySpec, lambda body: {"topology": body}, "topology."),
    "workload": Section(WorkloadSpec, lambda body: {"workload": body}, "workload."),
    "adversaries[0]": Section(
        AdversarySpec,
        lambda body: {"adversaries": [{"kind": "silent", **body}]},
        None,
    ),
}

SCENARIO_LEAVES = [
    (where, field.name, field.type)
    for where, section in SECTIONS.items()
    for field in dataclasses.fields(section.cls)
    if field.type in LEAF_READERS
]
NUMERIC = ("int", "float", "Optional[int]", "Union[int, str]")
EVENT_LEAVES = [(f.name, f.type) for f in dataclasses.fields(FaultEvent)]


def test_every_annotation_in_the_table_has_a_hostile_value():
    assert set(WRONG) == set(LEAF_READERS)
    assert {annotation for _, annotation in EVENT_LEAVES} <= set(WRONG)


class TestScenarioReader:
    @pytest.mark.parametrize("where, name, annotation", SCENARIO_LEAVES)
    def test_wrongly_typed_leaf(self, where, name, annotation):
        document = SECTIONS[where].document({name: WRONG[annotation]})
        with pytest.raises(ScenarioError) as raised:
            ScenarioSpec.from_dict(document)
        assert str(raised.value).startswith(f"{where}.{name} must be {annotation}, got ")

    @pytest.mark.parametrize(
        "where, name, annotation",
        [leaf for leaf in SCENARIO_LEAVES if leaf[2] in NUMERIC],
    )
    def test_a_json_boolean_is_not_a_number(self, where, name, annotation):
        document = SECTIONS[where].document({name: True})
        with pytest.raises(ScenarioError, match=f"{name} must be .*, got True"):
            ScenarioSpec.from_dict(document)


class TestFaultEventReader:
    @pytest.mark.parametrize("name, annotation", EVENT_LEAVES)
    def test_wrongly_typed_leaf(self, name, annotation):
        payload = {"kind": "heal", "slot": 1, name: WRONG[annotation]}
        with pytest.raises(FaultError) as raised:
            FaultEvent.from_dict(payload)
        assert str(raised.value).startswith(f"fault event.{name} must be {annotation}")
        with pytest.raises(FaultError, match=rf"^events\[1\]\.{name} must be "):
            FaultScheduleSpec.from_dict(
                {"events": [{"kind": "partition", "slot": 0, "groups": [[0]]}, payload]}
            )
        with pytest.raises(
            ScenarioError, match=rf"^invalid fault schedule: events\[0\]\.{name} must be "
        ):
            ScenarioSpec.from_dict({"workload": {"faults": {"events": [payload]}}})

    @pytest.mark.parametrize("field, value, shown", [
        # Accepted as nodes='12' / (('a','b'),('c','d')), then "'<' not
        # supported" out of ScenarioSpec.from_dict.
        ("nodes", "12", "'12'"),
        ("groups", ["ab", "cd"], r"\['ab', 'cd'\]"),
        # "'int' object is not iterable" out of from_dict itself.
        ("groups", [1, 2], r"\[1, 2\]"),
        # Accepted — and forgave.
        ("forgive", "no", "'no'"),
        ("slot", 1.5, "1.5"),
        ("nodes", [1.5], r"\[1.5\]"),
    ])
    def test_the_inputs_that_used_to_load_or_leak(self, field, value, shown, tmp_path):
        payload = {"kind": "node-rejoin", "slot": 3, "nodes": [1], field: value}
        with pytest.raises(FaultError, match=f"fault event.{field} must be .*{shown}"):
            FaultEvent.from_dict(payload)
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"events": [payload]}))
        with pytest.raises(SystemExit, match=rf"events\[0\]\.{field} must be ") as raised:
            main(["simulate", "--scenario", "quickstart", "--faults", str(path)])
        assert str(raised.value).startswith(f"invalid fault schedule file {path}: ")

    def test_natural_spellings_stay_accepted(self):
        event = FaultEvent.from_dict(
            {"kind": "link-degrade", "slot": 2.0, "loss": 0, "extra_latency": 1}
        )
        assert event == FaultEvent(kind="link-degrade", slot=2, extra_latency=1.0)
        assert isinstance(event.slot, int) and isinstance(event.loss, float)
        rejoin = FaultEvent.from_dict(
            {"kind": "node-rejoin", "slot": 1, "nodes": [2.0], "forgive": 0}
        )
        assert rejoin.nodes == (2,) and rejoin.forgive is False


class TestCampaignGridReader:
    GRID_LEAVES = [
        (SECTIONS[where].grid_prefix + name, annotation)
        for where, name, annotation in SCENARIO_LEAVES
        if SECTIONS[where].grid_prefix is not None
    ]

    @pytest.mark.parametrize("path, annotation", GRID_LEAVES)
    def test_wrongly_typed_override(self, path, annotation):
        base = get_scenario("churn")
        with pytest.raises(CampaignError) as raised:
            apply_override(base, path, WRONG[annotation])
        assert str(raised.value).startswith(f"override {path} must be {annotation}")
        with pytest.raises(
            CampaignError, match=rf"^cell entry 0: override {path} must be "
        ):
            CampaignSpec.from_dict({
                "name": "c",
                "cells": [{"preset": "churn", "grid": {path: [WRONG[annotation]]}}],
            })

    @pytest.mark.parametrize("entry, located", [
        # TypeError tracebacks.
        ({"grid": {"protocol.gamma": ["x"]}}, "override protocol.gamma must be int"),
        ({"grid": {"workload.sample_slots": ["ab"]}},
         "override workload.sample_slots must be Tuple"),
        ({"seeds": 5}, "grid axis 'seed' needs a non-empty list of values, got 5"),
        ({"params": [1]}, "'params' must be an object"),
        # Turned validation on.
        ({"grid": {"workload.validate": ["no"]}},
         "override workload.validate must be bool"),
        # Expanded to cells with seeds 'a' and 'b', and to seed 1.5.
        ({"seeds": "ab"}, "grid axis 'seed' needs a non-empty list of values, got 'ab'"),
        ({"seeds": [1.5]}, "override seed must be int, got 1.5"),
    ])
    def test_the_inputs_that_used_to_load_or_leak(self, entry, located, tmp_path, capsys):
        document = {"name": "c", "cells": [{"preset": "quickstart", **entry}]}
        with pytest.raises(CampaignError, match=f"^cell entry 0: {located}"):
            CampaignSpec.from_dict(document)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit, match=located) as raised:
            main(["campaign", "show", str(path)])
        assert str(raised.value).startswith(f"invalid campaign file {path}: ")
        assert capsys.readouterr().out == ""

    def test_natural_spellings_stay_accepted(self):
        campaign = CampaignSpec.from_dict({
            "name": "c",
            "cells": [{
                "preset": "quickstart",
                "seeds": [1, 2.0],
                "grid": {"workload.validate": [1], "protocol.reply_timeout": [1]},
            }],
        })
        first, second = (cell.scenario for cell in campaign.cells)
        assert (first.seed, second.seed) == (1, 2) and isinstance(second.seed, int)
        assert first.workload.validate is True
        assert isinstance(first.protocol.reply_timeout, float)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteFloats:
    """A float leaf is finite: NaN used to load, and then ran silently."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "where, name", [(w, n) for w, n, a in SCENARIO_LEAVES if a == "float"]
    )
    def test_scenario_and_override_readers(self, where, name, value):
        with pytest.raises(ScenarioError, match=rf"^{where}\.{name} must be float, got {value!r}"):
            ScenarioSpec.from_dict(SECTIONS[where].document({name: value}))
        prefix = SECTIONS[where].grid_prefix
        if prefix is not None:
            with pytest.raises(CampaignError, match=rf"^override {prefix}{name} must be float"):
                apply_override(get_scenario("churn"), prefix + name, value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("name", ["loss", "extra_latency"])
    def test_fault_event_reader(self, name, value):
        with pytest.raises(FaultError, match=rf"^fault event\.{name} must be float"):
            FaultEvent.from_dict({"kind": "link-degrade", "slot": 1, name: value})

    def test_a_constructed_event_refuses_a_nan_latency(self):
        with pytest.raises(FaultError, match="extra_latency must be non-negative, got nan"):
            FaultEvent(kind="link-degrade", slot=1, extra_latency=float("nan"))

    def test_simulate_exits_1_naming_the_leaf(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"events": [
            {"kind": "link-degrade", "slot": 2, "loss": 0.1, "extra_latency": float("nan")}
        ]}))
        assert "NaN" in path.read_text()
        with pytest.raises(SystemExit) as raised:
            main(["simulate", "--scenario", "quickstart", "--faults", str(path)])
        # A string exit code: the interpreter prints it and exits with 1.
        assert raised.value.code == (
            f"invalid fault schedule file {path}: events[0].extra_latency must be float, got nan"
        )
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_cell_params_reader(self, value):
        entry = {"kind": "attack-audit", "preset": "quickstart", "params": {"audits": value}}
        with pytest.raises(CampaignError, match=(
            rf"^cell entry 0: cell params {{'audits': {value!r}}} must be "
            "JSON-serializable with finite numbers"
        )):
            CampaignSpec.from_dict({"cells": [entry]})

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_a_constructed_cell_refuses_a_nested_non_finite_param(self, value):
        params = {"probes": [1, {"weight": value}]}
        with pytest.raises(CampaignError, match=(
            rf"^cell params {{'probes': \[1, {{'weight': {value!r}}}\]}} must be "
            "JSON-serializable with finite numbers"
        )):
            CellSpec(scenario=get_scenario("quickstart"), kind="attack-audit", params=params)

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_campaign_run_exits_1_before_any_cell_runs(self, value, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"cells": [
            {"kind": "attack-audit", "preset": "quickstart", "params": {"audits": value}}
        ]}))
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as raised:
            main(["--cache-dir", str(cache), "campaign", "run", str(path)])
        assert raised.value.code.startswith(
            f"invalid campaign file {path}: cell entry 0: "
            f"cell params {{'audits': {value!r}}} must be JSON-serializable"
        )
        assert capsys.readouterr().out == ""
        assert not cache.exists()

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_campaign_show_exits_1_naming_the_params(self, value, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"cells": [
            {"kind": "attack-audit", "preset": "quickstart", "params": {"audits": value}}
        ]}))
        with pytest.raises(SystemExit) as raised:
            main(["campaign", "show", str(path)])
        assert raised.value.code.startswith(
            f"invalid campaign file {path}: cell entry 0: "
            f"cell params {{'audits': {value!r}}} must be JSON-serializable"
        )
        assert capsys.readouterr().out == ""


class TestEverythingTheTreeWritesStillLoads:
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_presets(self, name):
        spec = get_scenario(name)
        loaded = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert loaded == spec and loaded.to_json() == spec.to_json()

    @pytest.mark.parametrize("name", fault_preset_names())
    def test_fault_presets(self, name):
        schedule = build_fault_preset(name, 9, 30)
        loaded = FaultScheduleSpec.from_dict(json.loads(schedule.to_json()))
        assert loaded == schedule and loaded.to_json() == schedule.to_json()

    @pytest.mark.parametrize("name", campaign_names())
    def test_campaign_presets(self, name):
        campaign = get_campaign(name)
        loaded = CampaignSpec.from_dict(json.loads(campaign.to_json()))
        assert loaded.digest() == campaign.digest()
        assert [c.digest() for c in loaded.cells] == [c.digest() for c in campaign.cells]

"""Every value the scenario reader accepts is one some run declares.

A kind, a backend or a spec leaf that no preset, campaign cell, report
figure cell or headline-gate cell sets is surface no run exercises, and
ROADMAP's invariant deletes such surface rather than keep it for tests.
Spec JSON picks kinds and sections by string, so the
``test-only-public-name`` rule cannot see them; this module reads the
specs the runs build instead.
"""

import collections
import dataclasses

import pytest

from repro.campaign import campaign_names, get_campaign
from repro.experiments.fig8_comm import fig8_scenarios
from repro.experiments.fig9_consensus import (
    PAPER_PANELS,
    PAPER_PROBES,
    fig9_cells,
    fig9_sample_slots,
    paper_panel,
)
from repro.experiments.headline import gate_scenario
from repro.experiments.report import FIG7_BODIES_MB
from repro.faults import FAULT_KINDS
from repro.scenario import (
    PAPER_SCALE,
    QUICK_SCALE,
    backend_names,
    fig7_scenario,
    get_scenario,
    scenario_names,
)
from repro.scenario.spec import ADVERSARY_KINDS, TOPOLOGY_KINDS

#: Leaves that take one value in every run, each with why it stays.
#: The allowlist may only shrink: delete an entry when its leaf goes or
#: a run declares a second value, never add one.
SINGLE_VALUED_LEAVES = {
    "protocol.puzzle_difficulty_bits": "serialized: deleting it changes every cell digest",
    "topology.spacing": "serialized: deleting it changes every cell digest",
    "workload.fetch_body": "serialized: deleting it changes every cell digest",
    "workload.quiet_time": "serialized: deleting it changes every cell digest",
    "workload.faults.events[].forgive": (
        "serialized in every node-rejoin event: deleting it changes every "
        "fault cell digest"
    ),
}
SINGLE_VALUED_LEAVES_CEILING = 5


def figure_specs(base):
    """The scenarios ``report`` runs at ``base``'s size: Fig. 7's three
    bodies, Fig. 8's two tolerances and every Fig. 9 panel's series, at
    ``run_fig9``'s default sample slots."""
    specs = [fig7_scenario(body_mb, base) for body_mb in FIG7_BODIES_MB]
    specs += fig8_scenarios(base)
    for panel in PAPER_PANELS:
        gamma, malicious = paper_panel(panel, base.node_count)
        slots = fig9_sample_slots(gamma)
        specs += [
            cell.scenario
            for cell in fig9_cells(gamma, malicious, slots, base, PAPER_PROBES)
        ]
    return specs


@pytest.fixture(scope="module")
def declared():
    """Every spec a run builds: the presets, every campaign preset's
    cells, the report's figure cells at both scales and the headline's
    model gate."""
    specs = [get_scenario(name) for name in scenario_names()]
    specs += [cell.scenario for name in campaign_names() for cell in get_campaign(name).cells]
    specs += figure_specs(QUICK_SCALE) + figure_specs(PAPER_SCALE)
    specs += [gate_scenario("pbft"), gate_scenario("iota")]
    return specs


def leaf_values(specs):
    """Dotted leaf path -> the set of values it takes across ``specs``.

    Sections recurse, and a tuple of sections (adversaries, fault
    events) contributes each entry's leaves under ``path[]``.  A section
    some spec leaves out (``None``, an empty tuple) is no leaf of its
    own unless every spec leaves it out: then it is one value.
    """
    values = collections.defaultdict(set)
    sections = set()

    def walk(value, path):
        if dataclasses.is_dataclass(value):
            sections.add(path)
            for field in dataclasses.fields(value):
                name = f"{path}.{field.name}" if path else field.name
                walk(getattr(value, field.name), name)
        elif isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            sections.add(path)
            for entry in value:
                walk(entry, f"{path}[]")
        else:
            values[path].add(value)

    for spec in specs:
        walk(spec, "")
    return {path: seen for path, seen in values.items() if path not in sections}


def test_the_walk_finds_a_planted_single_value_and_an_absent_section():
    from repro.scenario import AdversarySpec, ScenarioSpec, TopologySpec

    grid = TopologySpec(kind="grid", rows=5, cols=5)
    silent = (AdversarySpec(kind="silent", count=2),)
    specs = [
        ScenarioSpec(topology=grid, seed=1),
        ScenarioSpec(topology=grid, seed=2, adversaries=silent),
    ]
    values = leaf_values(specs)
    assert values["seed"] == {1, 2}
    assert values["topology.kind"] == {"grid"}
    # One spec has adversaries, so the tuple is a section, not a leaf.
    assert "adversaries" not in values and values["adversaries[].kind"] == {"silent"}
    # No spec has a fault timeline: the absent section is one value.
    assert values["workload.faults"] == {None}


@pytest.mark.parametrize("kinds, where", [
    (TOPOLOGY_KINDS, "topology.kind"),
    (ADVERSARY_KINDS, "adversaries[].kind"),
    (FAULT_KINDS, "workload.faults.events[].kind"),
    (tuple(backend_names()), "backend"),
], ids=["topology", "adversary", "fault", "backend"])
def test_every_kind_is_declared_by_some_run(declared, kinds, where):
    undeclared = sorted(set(kinds) - leaf_values(declared)[where])
    assert undeclared == [], f"{where}: no run declares {undeclared}"


def test_every_leaf_takes_two_values_or_is_allowlisted(declared):
    single = {path for path, seen in leaf_values(declared).items() if len(seen) < 2}
    assert single - set(SINGLE_VALUED_LEAVES) == set(), "no run varies these leaves"
    # An entry whose leaf varies (or is gone) is idle: delete it.
    assert set(SINGLE_VALUED_LEAVES) - single == set()


def test_the_single_value_allowlist_only_shrinks():
    assert len(SINGLE_VALUED_LEAVES) <= SINGLE_VALUED_LEAVES_CEILING
    assert all(reason for reason in SINGLE_VALUED_LEAVES.values())

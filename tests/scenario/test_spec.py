"""ScenarioSpec construction, validation, and JSON round-trip."""

import json

import pytest

from repro.faults import NODE_CRASH, NODE_REJOIN, FaultEvent, FaultScheduleSpec
from repro.scenario import (
    AdversarySpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="test",
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=10),
        seed=1,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestValidation:
    def test_bad_topology_kind(self):
        with pytest.raises(ScenarioError, match="unknown topology kind"):
            TopologySpec(kind="torus")

    def test_negative_slots(self):
        with pytest.raises(ScenarioError, match="slots must be positive"):
            WorkloadSpec(slots=-5)

    def test_zero_slots(self):
        with pytest.raises(ScenarioError, match="slots must be positive"):
            WorkloadSpec(slots=0)

    def test_gamma_node_count_mismatch(self):
        with pytest.raises(ScenarioError, match="gamma=9"):
            small_spec(protocol=ProtocolSpec(body_bits=8_000, gamma=9))

    def test_gamma_equal_to_quorum_capacity_is_allowed(self):
        spec = small_spec(protocol=ProtocolSpec(body_bits=8_000, gamma=8))
        assert spec.protocol.gamma + 1 == spec.node_count

    def test_grid_needs_rows_and_cols(self):
        with pytest.raises(ScenarioError, match="rows/cols"):
            TopologySpec(kind="grid")

    def test_nonpositive_node_count(self):
        with pytest.raises(ScenarioError, match="node_count"):
            TopologySpec(kind="ring", node_count=0)

    def test_unknown_generation_period_string(self):
        with pytest.raises(ScenarioError, match="generation_period"):
            WorkloadSpec(slots=10, generation_period="random-3-4")

    def test_sample_slots_must_fit_workload(self):
        with pytest.raises(ScenarioError, match="exceeds"):
            WorkloadSpec(slots=10, sample_slots=(5, 20))

    def test_sample_slots_must_increase(self):
        with pytest.raises(ScenarioError, match="increasing"):
            WorkloadSpec(slots=10, sample_slots=(5, 5, 8))

    def test_unknown_adversary_kind(self):
        with pytest.raises(ScenarioError, match="unknown adversary kind"):
            AdversarySpec(kind="bribery", count=2)

    def test_coalition_needs_positive_count(self):
        with pytest.raises(ScenarioError, match="positive count"):
            AdversarySpec(kind="silent", count=0)

    def test_coalition_cannot_exceed_eligible_nodes(self):
        with pytest.raises(ScenarioError, match="cannot be drawn"):
            small_spec(
                protocol=ProtocolSpec(body_bits=8_000, gamma=2),
                adversaries=(AdversarySpec(kind="silent", count=9, protect=(0,)),),
            )

    def test_eclipse_victim_must_exist(self):
        with pytest.raises(ScenarioError, match="victim"):
            small_spec(adversaries=(AdversarySpec(kind="eclipse", victim=99),))

    def test_sybil_attacker_must_exist(self):
        with pytest.raises(ScenarioError, match="attacker 99"):
            small_spec(
                adversaries=(AdversarySpec(kind="sybil", attacker=99, count=2),)
            )

    def test_crash_must_fit_workload(self):
        crash = FaultEvent(kind=NODE_CRASH, slot=15, nodes=(1,))
        with pytest.raises(ScenarioError, match="past the"):
            small_spec(
                workload=WorkloadSpec(
                    slots=10, faults=FaultScheduleSpec(events=(crash,))
                )
            )

    def test_negative_reply_timeout(self):
        with pytest.raises(ScenarioError, match="reply_timeout"):
            ProtocolSpec(reply_timeout=-1.0)

    def test_zero_quiet_time_and_minimum_age_are_allowed(self):
        workload = WorkloadSpec(quiet_time=0.0, validation_min_age_slots=0)
        assert (workload.quiet_time, workload.validation_min_age_slots) == (0.0, 0)


class TestRoundTrip:
    def test_plain_spec(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_text(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_full_featured_spec(self):
        spec = small_spec(
            topology=TopologySpec(node_count=20, comm_range=60.0),
            workload=WorkloadSpec(
                slots=30,
                generation_period="random-1-2",
                validate=True,
                sample_slots=(10, 20, 30),
                faults=FaultScheduleSpec(events=(
                    FaultEvent(kind=NODE_CRASH, slot=10, nodes=(2, 4)),
                    FaultEvent(kind=NODE_REJOIN, slot=20, nodes=(2, 4)),
                )),
            ),
            adversaries=(
                AdversarySpec(kind="silent", count=3, protect=(0, 1)),
                AdversarySpec(kind="eclipse", victim=5),
                AdversarySpec(kind="sybil", attacker=1, count=4),
            ),
            protocol=ProtocolSpec(body_bits=80_000, gamma=4, reply_timeout=0.05),
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.workload.faults.events[1].nodes == (2, 4)
        assert again.adversaries[1].victim == 5

    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.from_file(path) == spec

    def test_unknown_field_rejected(self):
        payload = small_spec().to_dict()
        payload["workload"]["warp_factor"] = 9
        with pytest.raises(ScenarioError, match="warp_factor"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_top_level_field_rejected(self):
        payload = small_spec().to_dict()
        payload["adversarys"] = [{"kind": "silent", "count": 2}]
        with pytest.raises(ScenarioError, match="adversarys"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_format_version_rejected(self):
        payload = small_spec().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ScenarioError, match="format"):
            ScenarioSpec.from_dict(payload)

    def test_validation_runs_on_load(self):
        payload = small_spec().to_dict()
        payload["workload"]["slots"] = -3
        with pytest.raises(ScenarioError, match="slots"):
            ScenarioSpec.from_dict(payload)


class TestDerived:
    def test_node_count(self):
        assert small_spec().node_count == 9
        assert small_spec(
            topology=TopologySpec(node_count=12)
        ).node_count == 12

    def test_with_workload(self):
        spec = small_spec().with_workload(slots=5, validate=True)
        assert spec.workload.slots == 5
        assert spec.workload.validate
        assert spec.protocol == small_spec().protocol

    def test_body_mb(self):
        assert ProtocolSpec.paper(gamma=3, body_mb=0.5).body_mb == 0.5


#: Hostile documents -> what the located error must name.  The first
#: six left ``from_dict`` as a bare ``TypeError`` (a CLI traceback); the
#: two ``scale`` documents are the deleted second size block, which
#: used to be the one unvalidated part of the reader.
HOSTILE_DOCUMENTS = [
    ([1, 2], "scenario must be a JSON object"),
    ({"protocol": 5}, "protocol must be a JSON object"),
    # The deleted churn shorthand: its migration message is the typed
    # unknown-field error (write a node-crash / node-rejoin timeline).
    ({"workload": {"churn": 5}}, r"unknown workload field\(s\): churn"),
    ({"adversaries": 3}, "scenario.adversaries"),
    ({"workload": {"slots": "a"}}, "workload.slots must be int"),
    ({"topology": {"node_count": "9"}}, "topology.node_count must be int"),
    ({"scale": {}}, r"unknown scenario field\(s\): scale"),
    (
        {"scale": {"node_count": 3, "sample_slots": [999]}, "name": "x"},
        r"unknown scenario field\(s\): scale",
    ),
    # Same family, found while fixing the six.
    ({"workload": 5}, "workload must be a JSON object"),
    ({"seed": [1]}, "scenario.seed must be int"),
    ({"per_hop_latency": "x"}, "scenario.per_hop_latency must be float"),
    ({"adversaries": [3]}, r"adversaries\[0\] must be a JSON object"),
    ({"adversaries": [{"count": 2}]}, r"adversaries\[0\] needs a 'kind' field"),
    ({"workload": {"sample_slots": ["a"]}}, "workload.sample_slots"),
    ({"workload": {"sample_slots": 5}}, "workload.sample_slots"),
    ({"workload": {"faults": {"events": [
        {"kind": "node-crash", "slot": 1, "nodes": ["x"]}]}}},
     r"invalid fault schedule: events\[0\].nodes must be Tuple"),
    ({"workload": {"faults": 5}}, "invalid fault schedule"),
    ({"iota": {"mcmc_alpha": None}}, "iota.mcmc_alpha must be float"),
    # A leaf has the type its annotation says.  The first four loaded and
    # meant something else ("no" ran with validation on, 1.9 and true
    # became seed 1, gamma 2.5 ran with no validations); the last three
    # loaded and died in run() on range(10.5).
    ({"workload": {"validate": "no"}}, "workload.validate must be bool"),
    ({"seed": 1.9}, "scenario.seed must be int, got 1.9"),
    ({"seed": True}, "scenario.seed must be int, got True"),
    ({"protocol": {"gamma": 2.5}}, "protocol.gamma must be int"),
    ({"workload": {"slots": 10.5}}, "workload.slots must be int"),
    ({"workload": {"sample_slots": [1.5]}}, "workload.sample_slots must be Tuple"),
    ({"topology": {"kind": "ring", "node_count": 9.5}},
     "topology.node_count must be int"),
    ({"per_hop_latency": True}, "scenario.per_hop_latency must be float"),
    ({"workload": {"faults": {"events": [{"kind": "heal", "slot": 1.5}]}}},
     r"invalid fault schedule: events\[0\].slot must be int"),
    # Both loaded: a negative quiet time skipped the drain, a negative
    # minimum age acted as 0.
    ({"workload": {"quiet_time": -5.0}}, "quiet_time must be non-negative"),
    ({"workload": {"validation_min_age_slots": -3}},
     "validation_min_age_slots must be non-negative"),
]


class TestHostileDocuments:
    @pytest.mark.parametrize("document, located", HOSTILE_DOCUMENTS)
    def test_from_dict_raises_a_located_scenario_error(self, document, located):
        with pytest.raises(ScenarioError, match=located):
            ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize("document, located", HOSTILE_DOCUMENTS)
    def test_scenarios_validate_prints_invalid_and_exits_2(
        self, document, located, tmp_path, capsys
    ):
        import re

        from repro.cli import main

        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(document))
        assert main(["scenarios", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"INVALID {path}: ")
        assert re.search(located, captured.err)
        assert "Traceback" not in captured.err and captured.out == ""

    def test_simulate_refuses_a_hostile_file_without_a_traceback(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"workload": {"slots": "a"}}))
        with pytest.raises(SystemExit, match="invalid scenario file .*slots"):
            main(["simulate", "--scenario", str(path)])

    @pytest.mark.parametrize("document, located", HOSTILE_DOCUMENTS)
    def test_simulate_refuses_every_hostile_file(self, document, located, tmp_path):
        from repro.cli import main

        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit, match=located) as raised:
            main(["simulate", "--scenario", str(path)])
        assert str(raised.value).startswith(f"invalid scenario file {path}: ")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_from_file_rejects_non_finite_numbers(self, constant, tmp_path):
        # Python's json reads these three tokens although JSON has no
        # such numbers; `"slots": NaN` used to validate (NaN <= 0 is
        # false) and `"seed": Infinity` was an OverflowError.
        path = tmp_path / "nan.json"
        path.write_text('{"workload": {"slots": %s}}' % constant)
        with pytest.raises(ScenarioError, match=f"non-finite number {constant}"):
            ScenarioSpec.from_file(path)

    def test_accepted_documents_stay_accepted(self):
        # JSON-natural spellings a hand-written spec may use: an int
        # where a float is declared, an integral float where an int is,
        # null for an optional section, 0 / 1 for a flag.
        spec = ScenarioSpec.from_dict({
            "topology": {"node_count": 9, "comm_range": 50},
            "protocol": {"gamma": 2, "reply_timeout": 1},
            "workload": {"slots": 5, "faults": None, "quiet_time": 0,
                         "validate": 1, "validation_min_age_slots": None},
            "adversaries": [],
            "seed": 3.0,
            "per_hop_latency": 0,
        })
        assert (spec.node_count, spec.seed, spec.per_hop_latency) == (9, 3, 0.0)
        assert isinstance(spec.seed, int)
        assert isinstance(spec.per_hop_latency, float)
        assert spec.workload.validate is True

    def test_every_leaf_annotation_is_typed_or_deliberately_open(self):
        # A new field with an annotation the table does not know would
        # silently go unchecked; make that a decision, not an accident.
        import dataclasses

        from repro.faults import FaultEvent
        from repro.faults.spec import LEAF_READERS
        from repro.scenario import IotaParams, PbftParams

        open_annotations = {
            "ProtocolSpec", "TopologySpec", "WorkloadSpec",
            "PbftParams", "IotaParams", "Optional[FaultScheduleSpec]",
        }
        for cls in (ScenarioSpec, ProtocolSpec, TopologySpec, WorkloadSpec,
                    AdversarySpec, PbftParams, IotaParams, FaultEvent):
            for field in dataclasses.fields(cls):
                assert field.type in LEAF_READERS or field.type in open_annotations, (
                    f"{cls.__name__}.{field.name}: {field.type}"
                )


class TestChurnShorthandRetired:
    """``workload.churn`` is gone; a document that still carries it fails
    with the typed unknown-field error, the one migration message."""

    CHURN = {"offline_nodes": [3, 6], "offline_slot": 15, "rejoin_slot": 25}

    def test_spec_document_names_the_field(self):
        payload = small_spec().to_dict()
        payload["workload"]["churn"] = self.CHURN
        with pytest.raises(ScenarioError, match=r"unknown workload field\(s\): churn"):
            ScenarioSpec.from_dict(payload)

    def test_campaign_document_names_the_cell_and_the_field(self):
        from repro.campaign import CampaignError, CampaignSpec

        scenario = small_spec().to_dict()
        scenario["workload"]["churn"] = self.CHURN
        document = {"name": "old", "cells": [{"scenario": scenario}]}
        with pytest.raises(
            CampaignError,
            match=r"cell entry 0: invalid inline scenario: "
                  r"unknown workload field\(s\): churn",
        ):
            CampaignSpec.from_dict(document)

    def test_campaign_grid_cannot_reach_it(self):
        from repro.campaign import CampaignError, CampaignSpec

        document = {"name": "old", "cells": [
            {"preset": "churn", "grid": {"workload.churn.offline_slot": [5]}},
        ]}
        with pytest.raises(CampaignError, match="unknown override field 'workload.churn'"):
            CampaignSpec.from_dict(document)

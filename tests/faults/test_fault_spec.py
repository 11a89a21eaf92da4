"""FaultEvent/FaultScheduleSpec: validation, ordering, round-trip, sugar."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultError,
    FaultEvent,
    FaultScheduleSpec,
    build_fault_preset,
    fault_preset_names,
)


def crash(slot, nodes=(0,)):
    return FaultEvent(kind="node-crash", slot=slot, nodes=tuple(nodes))


def rejoin(slot, nodes=(0,), forgive=True):
    return FaultEvent(kind="node-rejoin", slot=slot, nodes=tuple(nodes), forgive=forgive)


class TestEventValidation:
    def test_unknown_kind_lists_roster(self):
        with pytest.raises(FaultError, match=", ".join(FAULT_KINDS)):
            FaultEvent(kind="meteor-strike", slot=1)

    def test_negative_slot_rejected(self):
        with pytest.raises(FaultError, match="non-negative"):
            crash(-1)

    def test_crash_needs_nodes(self):
        with pytest.raises(FaultError, match="non-empty nodes"):
            FaultEvent(kind="node-crash", slot=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(FaultError, match="duplicate"):
            crash(1, nodes=(2, 2))

    def test_partition_needs_groups(self):
        with pytest.raises(FaultError, match="at least one group"):
            FaultEvent(kind="partition", slot=1)

    def test_partition_groups_must_not_overlap(self):
        with pytest.raises(FaultError, match="overlap"):
            FaultEvent(kind="partition", slot=1, groups=((0, 1), (1, 2)))

    def test_partition_groups_must_be_non_empty(self):
        with pytest.raises(FaultError, match="non-empty"):
            FaultEvent(kind="partition", slot=1, groups=((),))

    def test_heal_takes_no_nodes(self):
        with pytest.raises(FaultError, match="takes no nodes"):
            FaultEvent(kind="heal", slot=1, nodes=(0,))

    def test_loss_bounds(self):
        with pytest.raises(FaultError, match=r"\[0, 1\]"):
            FaultEvent(kind="link-degrade", slot=1, loss=1.5)

    def test_negative_extra_latency_rejected(self):
        with pytest.raises(FaultError, match="non-negative"):
            FaultEvent(kind="link-degrade", slot=1, extra_latency=-0.1)

    def test_loss_on_crash_rejected(self):
        with pytest.raises(FaultError, match="takes no loss"):
            FaultEvent(kind="node-crash", slot=1, nodes=(0,), loss=0.5)

    def test_forgive_only_on_rejoin(self):
        with pytest.raises(FaultError, match="forgive"):
            FaultEvent(kind="node-crash", slot=1, nodes=(0,), forgive=False)


class TestScheduleValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(FaultError, match="meaningless"):
            FaultScheduleSpec(events=())

    def test_unordered_slots_rejected(self):
        with pytest.raises(FaultError, match="ordered by slot"):
            FaultScheduleSpec(events=(crash(5), rejoin(3)))

    def test_double_crash_rejected(self):
        with pytest.raises(FaultError, match="already crashed"):
            FaultScheduleSpec(events=(crash(1), crash(2)))

    def test_rejoin_without_crash_rejected(self):
        with pytest.raises(FaultError, match="without having crashed"):
            FaultScheduleSpec(events=(rejoin(2),))

    def test_crash_rejoin_crash_again_allowed(self):
        schedule = FaultScheduleSpec(events=(crash(1), rejoin(2), crash(3)))
        assert schedule.max_slot == 3

    def test_second_partition_rejected(self):
        with pytest.raises(FaultError, match="already active"):
            FaultScheduleSpec(events=(
                FaultEvent(kind="partition", slot=1, groups=((0,),)),
                FaultEvent(kind="partition", slot=2, groups=((1,),)),
            ))

    def test_heal_without_partition_rejected(self):
        with pytest.raises(FaultError, match="heal without"):
            FaultScheduleSpec(events=(FaultEvent(kind="heal", slot=1),))

    def test_boundary_slots_unique_and_sorted(self):
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="link-degrade", slot=2, loss=0.1),
            crash(2, nodes=(1,)),
            rejoin(6, nodes=(1,)),
        ))
        assert schedule.boundary_slots == (2, 6)

    def test_referenced_nodes_are_sorted_and_unique(self):
        schedule = FaultScheduleSpec(events=(
            FaultEvent(kind="partition", slot=1, groups=((4, 2),)),
            FaultEvent(kind="heal", slot=3),
            crash(5, nodes=(7,)),
        ))
        assert schedule.referenced_nodes == (2, 4, 7)


class TestRoundTrip:
    def full_schedule(self):
        return FaultScheduleSpec(events=(
            FaultEvent(kind="link-degrade", slot=1, loss=0.05, extra_latency=0.002),
            crash(2, nodes=(0, 3)),
            FaultEvent(kind="partition", slot=4, groups=((0, 1), (2, 3))),
            FaultEvent(kind="heal", slot=6),
            rejoin(7, nodes=(0, 3), forgive=False),
            FaultEvent(kind="link-degrade", slot=8),
        ))

    def test_dict_round_trip(self):
        schedule = self.full_schedule()
        again = FaultScheduleSpec.from_dict(schedule.to_dict())
        assert again == schedule

    def test_json_round_trip_is_pure(self):
        schedule = self.full_schedule()
        payload = schedule.to_dict()
        assert payload == json.loads(json.dumps(payload))

    def test_minimal_serialization(self):
        # Kind-irrelevant fields never serialize, so equal timelines
        # always serialize identically (cell digests rely on this).
        event_payload = crash(2, nodes=(1,)).to_dict()
        assert set(event_payload) == {"kind", "slot", "nodes"}
        heal_payload = FaultEvent(kind="heal", slot=3).to_dict()
        assert set(heal_payload) == {"kind", "slot"}

    def test_unknown_event_field_rejected(self):
        with pytest.raises(FaultError, match="blast_radius"):
            FaultEvent.from_dict({"kind": "heal", "slot": 1, "blast_radius": 3})

    def test_unknown_schedule_field_rejected(self):
        with pytest.raises(FaultError, match="severity"):
            FaultScheduleSpec.from_dict({"events": [], "severity": "high"})

    def test_file_round_trip(self, tmp_path):
        schedule = self.full_schedule()
        path = tmp_path / "faults.json"
        schedule.save(path)
        assert FaultScheduleSpec.from_file(path) == schedule

    def test_invalid_json_file_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultScheduleSpec.from_file(path)


class TestPresets:
    def test_roster(self):
        assert fault_preset_names() == [
            "lossy-links", "mid-crash", "partition-heal", "stress"
        ]

    @pytest.mark.parametrize("name", ["lossy-links", "mid-crash",
                                      "partition-heal", "stress"])
    @pytest.mark.parametrize("shape", [(4, 4), (9, 8), (20, 100), (50, 35)])
    def test_presets_validate_at_any_shape(self, name, shape):
        nodes, slots = shape
        schedule = build_fault_preset(name, nodes, slots)
        assert schedule.max_slot < slots
        assert all(n < nodes for n in schedule.referenced_nodes)

    def test_unknown_preset_lists_roster(self):
        with pytest.raises(FaultError, match="mid-crash"):
            build_fault_preset("earthquake", 10, 10)

    def test_tiny_shapes_rejected(self):
        with pytest.raises(FaultError, match="at least 4 nodes"):
            build_fault_preset("mid-crash", 2, 20)
        with pytest.raises(FaultError, match="at least 4 slots"):
            build_fault_preset("mid-crash", 10, 3)

    def test_mid_crash_targets_lowest_ids(self):
        schedule = build_fault_preset("mid-crash", 16, 24)
        assert schedule.events[0].nodes == (0, 1, 2, 3)

    def test_describe_lines(self):
        lines = build_fault_preset("stress", 9, 8).describe()
        assert len(lines) == 6
        assert lines[0].startswith("slot 2: link-degrade")

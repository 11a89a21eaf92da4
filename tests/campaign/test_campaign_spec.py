"""Tests for campaign specs: grid expansion, digests, JSON round-trip."""

import json
from dataclasses import replace

import pytest

from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    CellSpec,
    apply_override,
    expand_grid,
    replicate_seeds,
)
from repro.scenario import get_scenario


@pytest.fixture
def base():
    return get_scenario("quickstart")


class TestApplyOverride:
    def test_top_level_field(self, base):
        assert apply_override(base, "seed", 42).seed == 42

    def test_nested_field(self, base):
        spec = apply_override(base, "protocol.gamma", 2)
        assert spec.protocol.gamma == 2
        # the original is untouched (specs are frozen)
        assert base.protocol.gamma == 3

    def test_deep_workload_field(self, base):
        assert apply_override(base, "workload.slots", 7).workload.slots == 7

    def test_list_becomes_tuple(self, base):
        spec = apply_override(base, "workload.sample_slots", [10, 20])
        assert spec.workload.sample_slots == (10, 20)

    def test_unknown_field_rejected(self, base):
        with pytest.raises(CampaignError, match="unknown override field"):
            apply_override(base, "protocol.warp", 9)

    def test_unknown_section_rejected(self, base):
        with pytest.raises(CampaignError, match="unknown override field"):
            apply_override(base, "engine.gamma", 9)

    def test_invalid_value_rejected_at_expansion(self, base):
        # gamma+1 > |V| must be caught by scenario validation, rewrapped.
        with pytest.raises(CampaignError, match="invalid scenario"):
            apply_override(base, "protocol.gamma", 1000)


class TestExpandGrid:
    def test_cartesian_product_row_major(self, base):
        cells = expand_grid(base, {"protocol.gamma": [2, 3], "seed": [0, 1]})
        combos = [(c.scenario.protocol.gamma, c.scenario.seed) for c in cells]
        assert combos == [(2, 0), (2, 1), (3, 0), (3, 1)]

    def test_cells_are_renamed(self, base):
        cells = expand_grid(base, {"seed": [5]})
        assert cells[0].scenario.name == "quickstart[seed=5]"

    def test_no_axes_yields_single_cell(self, base):
        cells = expand_grid(base, {})
        assert len(cells) == 1
        assert cells[0].scenario == base

    def test_empty_axis_rejected(self, base):
        with pytest.raises(CampaignError, match="non-empty"):
            expand_grid(base, {"seed": []})

    def test_replicate_seeds(self, base):
        cells = replicate_seeds(base, (3, 4, 5))
        assert [c.scenario.seed for c in cells] == [3, 4, 5]


class TestCellDigest:
    def test_digest_is_stable(self, base):
        cell = CellSpec(scenario=base)
        assert cell.digest() == CellSpec(scenario=base).digest()

    def test_digest_changes_with_spec(self, base):
        a = CellSpec(scenario=base)
        b = CellSpec(scenario=apply_override(base, "seed", 99))
        assert a.digest() != b.digest()

    def test_digest_changes_with_kind_and_params(self, base):
        plain = CellSpec(scenario=base)
        other_params = CellSpec(scenario=base, params={"audits": 4})
        assert plain.digest() != other_params.digest()

    def test_labels_are_not_part_of_the_digest(self, base):
        relabelled = replace(base, name="elsewhere", description="another use")
        assert CellSpec(scenario=relabelled).digest() == CellSpec(scenario=base).digest()

    @pytest.mark.parametrize("path, value", [
        ("seed", 8),
        ("backend", "pbft"),
        ("per_hop_latency", 0.002),
        ("protocol.gamma", 2),
        ("protocol.body_bits", 16_000),
        ("topology.kind", "ring"),
        ("workload.slots", 31),
        ("workload.validate", True),
        ("workload.sample_slots", [10, 20]),
    ])
    def test_every_other_spec_leaf_is_part_of_the_digest(self, base, path, value):
        changed = apply_override(base, path, value)
        assert CellSpec(scenario=changed).digest() != CellSpec(scenario=base).digest()

    def test_kind_is_part_of_the_digest(self, base):
        assert (CellSpec(scenario=base, kind="attack-audit").digest()
                != CellSpec(scenario=base).digest())

    def test_unserializable_params_rejected(self, base):
        with pytest.raises(CampaignError, match="JSON-serializable"):
            CellSpec(scenario=base, params={"fn": lambda: None})


class TestCampaignSpec:
    def test_needs_cells(self):
        with pytest.raises(CampaignError, match="no cells"):
            CampaignSpec(name="empty")

    def test_duplicate_cells_rejected(self, base):
        cell = CellSpec(scenario=base)
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSpec(name="dup", cells=(cell, CellSpec(scenario=base)))

    def test_cells_that_differ_only_in_labels_are_duplicates(self, base):
        relabelled = CellSpec(scenario=replace(base, name="again"))
        with pytest.raises(CampaignError, match="'quickstart' and 'again' are the same run"):
            CampaignSpec(name="dup", cells=(CellSpec(scenario=base), relabelled))

    def test_digest_tracks_cells(self, base):
        a = CampaignSpec(name="c", cells=replicate_seeds(base, (0, 1)))
        b = CampaignSpec(name="c", cells=replicate_seeds(base, (0, 2)))
        assert a.digest() != b.digest()

    def test_json_round_trip(self, base):
        campaign = CampaignSpec(
            name="round-trip",
            description="grid over gamma",
            cells=expand_grid(base, {"protocol.gamma": [2, 3]}),
        )
        rebuilt = CampaignSpec.from_dict(json.loads(campaign.to_json()))
        assert rebuilt == campaign
        assert rebuilt.digest() == campaign.digest()

    def test_save_load_file(self, base, tmp_path):
        campaign = CampaignSpec(name="file", cells=replicate_seeds(base, (0, 1)))
        path = tmp_path / "c.json"
        campaign.save(path)
        assert CampaignSpec.from_file(path) == campaign


class TestCampaignDocument:
    def test_preset_reference_with_seeds(self):
        campaign = CampaignSpec.from_dict({
            "name": "doc",
            "cells": [{"preset": "quickstart", "seeds": [0, 1, 2]}],
        })
        assert len(campaign.cells) == 3
        assert campaign.cells[2].scenario.seed == 2

    def test_inline_scenario_with_grid(self):
        inline = get_scenario("quickstart").to_dict()
        campaign = CampaignSpec.from_dict({
            "name": "doc",
            "cells": [{"scenario": inline, "grid": {"workload.slots": [5, 10]}}],
        })
        assert [c.scenario.workload.slots for c in campaign.cells] == [5, 10]

    def test_unknown_preset_rejected(self):
        with pytest.raises(CampaignError, match="unknown scenario preset"):
            CampaignSpec.from_dict({
                "name": "doc", "cells": [{"preset": "warp-drive"}],
            })

    def test_unknown_kind_rejected_where_the_document_is_read(self):
        with pytest.raises(
            CampaignError, match="cell entry 1: unknown cell kind 'warp-drive'"
        ):
            CampaignSpec.from_dict({
                "name": "doc",
                "cells": [{"preset": "quickstart", "kind": "sweep-point",
                           "params": {"validations": 1}},
                          {"preset": "quickstart", "kind": "warp-drive"}],
            })

    def test_preset_and_scenario_mutually_exclusive(self):
        inline = get_scenario("quickstart").to_dict()
        with pytest.raises(CampaignError, match="exactly one"):
            CampaignSpec.from_dict({
                "name": "doc",
                "cells": [{"preset": "quickstart", "scenario": inline}],
            })

    def test_seeds_and_seed_axis_conflict(self):
        with pytest.raises(CampaignError, match="not both"):
            CampaignSpec.from_dict({
                "name": "doc",
                "cells": [{"preset": "quickstart", "seeds": [0],
                           "grid": {"seed": [1]}}],
            })

    def test_unknown_fields_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign field"):
            CampaignSpec.from_dict({
                "name": "doc", "cells": [{"preset": "quickstart"}], "extra": 1,
            })
        with pytest.raises(CampaignError, match="unknown field"):
            CampaignSpec.from_dict({
                "name": "doc", "cells": [{"preset": "quickstart", "bogus": 1}],
            })

    def test_unsupported_format_rejected(self):
        with pytest.raises(CampaignError, match="unsupported campaign format"):
            CampaignSpec.from_dict({
                "format_version": 99, "name": "doc",
                "cells": [{"preset": "quickstart"}],
            })


class TestPresets:
    def test_every_preset_builds(self):
        from repro.campaign.presets import campaign_names, get_campaign

        for name in campaign_names():
            campaign = get_campaign(name)
            assert campaign.name == name
            assert campaign.cells
            assert campaign.description

    def test_unknown_preset_raises_with_roster(self):
        from repro.campaign.presets import get_campaign

        with pytest.raises(KeyError, match="smoke"):
            get_campaign("warp-drive")

    def test_ledger_grid_spans_backends_and_seeds(self):
        from repro.campaign.presets import get_campaign

        campaign = get_campaign("ledger-grid")
        assert len(campaign.cells) == 12
        backends = [cell.scenario.backend for cell in campaign.cells]
        assert {b: backends.count(b) for b in set(backends)} == {
            "2ldag": 4, "pbft": 4, "iota": 4,
        }
        assert sorted({cell.scenario.seed for cell in campaign.cells}) == [0, 1, 2, 3]
        # Each cell self-describes its backend in the label.
        assert any("backend=pbft" in cell.label for cell in campaign.cells)

"""Tests for the attack-comparison scoreboard."""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.attack_compare import attack_roster_cells

#: A trimmed roster keeps this module CI-friendly: the clean grid
#: baseline, the eclipse demo (plus its victim view, added
#: automatically) and the sybil demo — all 9-node/20-slot scenarios.
ROSTER = ("quickstart", "attack-eclipse", "attack-sybil")


def scoreboard():
    """``(scenario name, payload)`` per ``attack-audit`` cell, in order."""
    campaign = CampaignSpec(
        name="attack-roster", cells=attack_roster_cells(ROSTER, audits=4)
    )
    payloads = run_campaign(campaign).payloads()
    return [(cell.scenario.name, payload) for cell, payload in zip(campaign.cells, payloads)]


@pytest.fixture(scope="module")
def points():
    return scoreboard()


class TestRoster:
    def test_cells_include_eclipse_victim_view(self):
        cells = attack_roster_cells(("quickstart", "attack-eclipse"))
        labels = [(cell.scenario.name, cell.params.get("validator")) for cell in cells]
        assert labels == [
            ("quickstart", None),
            ("attack-eclipse", None),
            ("attack-eclipse", 4),
        ]

    def test_victim_view_can_be_disabled(self):
        cells = attack_roster_cells(
            ("attack-eclipse",), include_victim_view=False
        )
        assert len(cells) == 1


class TestComparison:
    def test_one_row_per_cell_in_order(self, points):
        assert [name for name, _ in points] == [
            "quickstart", "attack-eclipse", "attack-eclipse", "attack-sybil",
        ]

    def test_clean_baseline_fully_succeeds(self, points):
        _, baseline = points[0]
        assert baseline["audits"] == 4
        assert baseline["success_rate"] == 1.0
        assert not baseline["eclipsed"]

    def test_honest_validator_mostly_survives_eclipse(self, points):
        # Not necessarily 1.0: PoP requests whose shortest route relays
        # through the victim's grid position are dropped too.
        _, honest_view = points[1]
        assert not honest_view["eclipsed"]
        assert honest_view["success_rate"] >= 0.5
        assert honest_view["success_rate"] > points[2][1]["success_rate"]

    def test_eclipse_victim_fails_every_audit(self, points):
        _, victim_view = points[2]
        assert victim_view["eclipsed"]
        assert victim_view["validator"] == 4
        assert victim_view["success_rate"] == 0.0

    def test_sybil_identities_reported_but_harmless(self, points):
        _, sybil = points[3]
        assert sybil["sybil_identities"] == 5
        assert sybil["success_rate"] == 1.0


class TestDeterminism:
    def test_points_are_reproducible(self, points):
        assert scoreboard() == points

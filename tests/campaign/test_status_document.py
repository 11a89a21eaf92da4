"""The pinned status document behind ``campaign status --json``."""

import json

import pytest

from repro.campaign import (
    STATUS_SCHEMA_VERSION,
    CampaignExecutor,
    CampaignSpec,
    replicate_seeds,
)
from repro.scenario import get_scenario


def tiny_spec():
    return get_scenario("ledger-comparison").with_workload(
        slots=8, validation_min_age_slots=4
    )


@pytest.fixture
def campaign():
    return CampaignSpec(name="status", cells=replicate_seeds(tiny_spec(), (0, 1)))


class TestStatusDocument:
    def test_schema_and_counts(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        document = executor.status_document(campaign)
        assert document["schema"] == STATUS_SCHEMA_VERSION
        assert document["campaign"] == "status"
        assert document["campaign_digest"] == campaign.digest()
        assert document["total"] == 2
        assert document["counts"] == {
            "done": 0, "failing": 0, "pending": 2, "quarantined": 0
        }
        assert [cell["index"] for cell in document["cells"]] == [0, 1]
        assert all(cell["state"] == "pending" for cell in document["cells"])

    def test_counts_track_completion(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        executor.run(campaign)
        document = executor.status_document(campaign)
        assert document["counts"]["done"] == 2
        assert all(cell["cached"] for cell in document["cells"])

    def test_document_is_json_serialisable(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        round_tripped = json.loads(
            json.dumps(executor.status_document(campaign), sort_keys=True)
        )
        assert round_tripped["total"] == 2

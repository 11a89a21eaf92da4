"""Property: how a campaign is executed never changes what it computes.

Over random small campaigns of preset ``scenario`` cells, a serial run,
a 2-worker run and a run under a seeded chaos schedule (in a pool or in
process) give equal payload digests, cell for cell.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cache import payload_digest
from repro.campaign.chaos import ChaosSpec
from repro.campaign.executor import CampaignExecutor
from repro.campaign.presets import get_campaign
from repro.campaign.spec import CampaignSpec

#: Every distinct cell of the small presets (smoke's are ledger-grid's).
PRESET_CELLS = tuple({
    cell.digest(): cell
    for name in ("ledger-grid", "fault-grid")
    for cell in get_campaign(name).cells
}.values())

_CAMPAIGNS = st.lists(
    st.sampled_from(PRESET_CELLS), min_size=1, max_size=6,
    unique_by=lambda cell: cell.digest(),
).map(lambda cells: CampaignSpec(name="drawn", cells=tuple(cells)))

# Kills and exceptions only: a hang costs its cell timeout.
_CHAOS = st.builds(
    ChaosSpec,
    seed=st.integers(0, 2**16),
    exceptions=st.integers(0, 2),
    kills=st.integers(0, 1),
)


def payload_digests(result):
    assert result.ok
    return [payload_digest(payload) for payload in result.payloads()]


@given(campaign=_CAMPAIGNS, chaos=_CHAOS, chaos_workers=st.sampled_from([0, 2]))
@settings(max_examples=8, deadline=None)
def test_serial_parallel_and_chaos_compute_the_same_payloads(
    campaign, chaos, chaos_workers
):
    serial = payload_digests(CampaignExecutor().run(campaign))
    assert payload_digests(CampaignExecutor(workers=2).run(campaign)) == serial
    chaotic = CampaignExecutor(workers=chaos_workers, chaos=chaos).run(campaign)
    assert payload_digests(chaotic) == serial

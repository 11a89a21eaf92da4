"""Property: how a campaign is executed never changes what it computes.

Over random small campaigns of preset ``scenario`` cells, a serial run,
a 2-worker run and a run under injected faults (in a pool or in process)
give equal payload digests, cell for cell.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cache import payload_digest
from repro.campaign.executor import CampaignExecutor
from repro.campaign.presets import get_campaign
from repro.campaign.spec import CampaignSpec

# tests/campaign/cell_faults.py; tests/ is on sys.path through its conftest
from campaign.cell_faults import KILL, RAISE, inject_faults

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

# Up to two exceptions and one kill over the (at most six) positions.  No
# hang: it costs its cell timeout.
_FAULTS = st.permutations([RAISE, RAISE, KILL, None, None, None])


def payload_digests(result):
    assert result.ok
    return [payload_digest(payload) for payload in result.payloads()]


@given(campaign=_CAMPAIGNS, faults=_FAULTS, faulted_workers=st.sampled_from([0, 2]))
@settings(max_examples=8, deadline=None)
def test_serial_parallel_and_fault_injected_runs_compute_the_same_payloads(
    campaign, faults, faulted_workers
):
    serial = payload_digests(CampaignExecutor().run(campaign))
    assert payload_digests(CampaignExecutor(workers=2).run(campaign)) == serial
    cells = campaign.cells
    plan = {
        position: fault for position, fault in enumerate(faults[:len(cells)]) if fault
    }
    with inject_faults(cells, plan):
        faulted = CampaignExecutor(workers=faulted_workers).run(campaign)
    assert payload_digests(faulted) == serial

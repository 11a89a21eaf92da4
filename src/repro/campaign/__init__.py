"""The campaign engine: parallel, cached, resumable scenario fleets.

Where :mod:`repro.scenario` makes one run a pure function of a
declarative spec, this package scales that property out: a
:class:`CampaignSpec` is an ordered set of cells (scenario + cell kind
+ params), and a :class:`CampaignExecutor` runs them concurrently
across worker processes, memoises each cell's result in a
content-addressed on-disk cache, and journals completions so an
interrupted fleet resumes where it left off.  Serial and parallel runs
are byte-identical — only wall-clock changes.

The executor is chaos-tolerant: failed attempts retry with
deterministic seeded backoff, hung cells are killed at a wall-clock
budget, a crashed worker pool respawns with only the lost cells
resubmitted, and ``keep_going`` quarantines incurable cells instead of
aborting the fleet.  A seeded :class:`ChaosSpec` (``$REPRO_CHAOS``)
injects harness faults on purpose to prove all of that converges to
byte-identical results — see :mod:`repro.campaign.chaos`.

Entry points: ``python -m repro campaign run/status/clean`` and the
``executor=`` parameter every multi-run experiment
(Figs. 7-9, the sweeps, the attack comparison) now accepts.  See ``docs/campaigns.md``.
"""

from repro.campaign.chaos import ChaosError
from repro.campaign.executor import STATUS_SCHEMA_VERSION, CampaignExecutor
from repro.campaign.presets import campaign_names, get_campaign
from repro.campaign.spec import CampaignError, CampaignSpec, replicate_seeds

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "CampaignError",
    "CampaignExecutor",
    "CampaignSpec",
    "ChaosError",
    "campaign_names",
    "get_campaign",
    "replicate_seeds",
]

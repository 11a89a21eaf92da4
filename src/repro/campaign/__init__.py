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
(``fig7``/``fig8``/``fig9``, the sweeps, the attack comparison) now
accepts.  See ``docs/campaigns.md``.
"""

from repro.campaign.cache import (
    CACHE_ENV_VAR,
    ResultCache,
    default_cache_dir,
    payload_digest,
    summarize_cell_events,
)
from repro.campaign.cells import (
    cell_kind_names,
    execute_cell,
    register_cell_kind,
    run_scenario_cells,
)
from repro.campaign.chaos import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosInjectedError,
    ChaosSpec,
    chaos_from_env,
    seeded_backoff,
)
from repro.campaign.executor import (
    STATUS_SCHEMA_VERSION,
    CampaignExecutor,
    CampaignResult,
    CellFailure,
    CellResult,
    CellStatus,
    run_campaign,
)
from repro.campaign.presets import (
    campaign_names,
    get_campaign,
    register_campaign,
)
from repro.campaign.spec import (
    CAMPAIGN_CODE_VERSION,
    CAMPAIGN_FORMAT_VERSION,
    CampaignError,
    CampaignSpec,
    CellSpec,
    apply_override,
    expand_grid,
    replicate_seeds,
)

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "CACHE_ENV_VAR",
    "CAMPAIGN_CODE_VERSION",
    "CAMPAIGN_FORMAT_VERSION",
    "CHAOS_ENV_VAR",
    "CampaignError",
    "CampaignExecutor",
    "CampaignResult",
    "CampaignSpec",
    "CellFailure",
    "CellResult",
    "CellSpec",
    "CellStatus",
    "ChaosError",
    "ChaosInjectedError",
    "ChaosSpec",
    "ResultCache",
    "apply_override",
    "campaign_names",
    "cell_kind_names",
    "chaos_from_env",
    "default_cache_dir",
    "execute_cell",
    "expand_grid",
    "get_campaign",
    "payload_digest",
    "register_campaign",
    "register_cell_kind",
    "replicate_seeds",
    "run_campaign",
    "run_scenario_cells",
    "seeded_backoff",
    "summarize_cell_events",
]

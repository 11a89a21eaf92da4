"""Named campaign presets.

Mirrors the scenario preset registry one level up: stable names map to
:class:`~repro.campaign.spec.CampaignSpec` factories so canonical
fleets are discoverable (``python -m repro campaign list``), runnable
(``campaign run NAME``) and exportable (``campaign show NAME``)
without hand-writing a campaign document.

Factories are registered by explicit name and may import experiment
modules lazily — the campaign package itself never depends on the
experiments layer at import time.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.campaign.spec import CampaignSpec, CellSpec, expand_grid, replicate_seeds
from repro.scenario.registry import (
    QUICK_SCALE,
    bench_scenario,
    fig7_scenario,
    get_scenario,
)

_CAMPAIGNS: Dict[str, Callable[[], CampaignSpec]] = {}


def register_campaign(
    name: str,
) -> Callable[[Callable[[], CampaignSpec]], Callable[[], CampaignSpec]]:
    """Register the decorated zero-argument factory under ``name``."""

    def decorate(factory: Callable[[], CampaignSpec]) -> Callable[[], CampaignSpec]:
        if name in _CAMPAIGNS:
            raise ValueError(f"campaign {name!r} is already registered")
        _CAMPAIGNS[name] = factory
        return factory

    return decorate


def campaign_names() -> List[str]:
    """All registered campaign preset names, sorted."""
    return sorted(_CAMPAIGNS)


def get_campaign(name: str) -> CampaignSpec:
    """A fresh campaign spec for ``name``; ``KeyError`` with the roster."""
    factory = _CAMPAIGNS.get(name)
    if factory is None:
        raise KeyError(
            f"unknown campaign {name!r}; known: {', '.join(campaign_names())}"
        )
    return factory()


@register_campaign("smoke")
def _smoke() -> CampaignSpec:
    """Four tiny seed replicas — the CI parallel-execution smoke.

    ``ledger-comparison`` runs generation-time PoP, so each seed's
    trace digest is distinct — a real determinism probe, not just a
    liveness check.
    """
    return CampaignSpec(
        name="smoke",
        description=(
            "ledger-comparison replicated over 4 seeds — a seconds-long "
            "fleet (with PoP, so traces are seed-sensitive) for verifying "
            "parallel execution and caching end to end"
        ),
        cells=replicate_seeds(get_scenario("ledger-comparison"), (0, 1, 2, 3)),
    )


@register_campaign("bench-grid")
def _bench_grid() -> CampaignSpec:
    """The bench macro workload replicated over seeds — the speedup demo."""
    return CampaignSpec(
        name="bench-grid",
        description=(
            "the bench-full macro workload (~1s per cell) over 6 seeds; "
            "run with --workers N to see near-linear wall-clock speedup, "
            "re-run to see every cell served from cache"
        ),
        cells=replicate_seeds(bench_scenario(fast=False), (0, 1, 2, 3, 4, 5)),
    )


@register_campaign("ledger-grid")
def _ledger_grid() -> CampaignSpec:
    """Every ledger backend × 4 seeds on the comparison workload."""
    return CampaignSpec(
        name="ledger-grid",
        description=(
            "the ledger-comparison workload on every registered backend "
            "(2LDAG, PBFT, IOTA) over 4 seeds — 12 cells; the three-ledger "
            "scoreboard as one parallel, cached fleet"
        ),
        cells=expand_grid(
            get_scenario("ledger-comparison"),
            {"backend": ["2ldag", "pbft", "iota"], "seed": [0, 1, 2, 3]},
        ),
    )


@register_campaign("fault-grid")
def _fault_grid() -> CampaignSpec:
    """Every backend under escalating fault intensity — the resilience grid."""
    from repro.experiments.fault_resilience import fault_grid_cells

    return CampaignSpec(
        name="fault-grid",
        description=(
            "fault resilience on every registered backend: 3 backends x "
            "fault intensities {none, crash, stress} x 2 seeds — 18 cells "
            "measuring consensus progress, storage and PoP success under "
            "crash/rejoin, partitions and degraded links"
        ),
        cells=fault_grid_cells(),
    )


@register_campaign("fig7-quick")
def _fig7_quick() -> CampaignSpec:
    """The three Fig. 7 body sizes at quick scale as one fleet."""
    return CampaignSpec(
        name="fig7-quick",
        description=(
            "Fig. 7 storage runs for C in {0.1, 0.5, 1.0} MB at quick scale"
        ),
        cells=tuple(
            CellSpec(scenario=fig7_scenario(body_mb, QUICK_SCALE))
            for body_mb in (0.1, 0.5, 1.0)
        ),
    )


@register_campaign("gamma-sweep")
def _gamma_sweep() -> CampaignSpec:
    """The γ message-cost sweep (Props. 4/6 bracketing) as cells."""
    from repro.experiments.sweeps import gamma_sweep_cells

    return CampaignSpec(
        name="gamma-sweep",
        description=(
            "cold-cache PoP message cost vs tolerance γ in {2, 4, 6, 8} "
            "(Propositions 4 and 6 bracket the measurements)"
        ),
        cells=gamma_sweep_cells((2, 4, 6, 8)),
    )


@register_campaign("density-sweep")
def _density_sweep() -> CampaignSpec:
    """The radio-range density sweep as cells."""
    from repro.experiments.sweeps import density_sweep_cells

    return CampaignSpec(
        name="density-sweep",
        description=(
            "digest overhead vs PoP cost across radio ranges "
            "{60, 100, 140} m (denser networks: bigger Δ, shorter paths)"
        ),
        cells=density_sweep_cells((60.0, 100.0, 140.0)),
    )


@register_campaign("attack-roster")
def _attack_roster() -> CampaignSpec:
    """Every attack preset audited from honest and victim viewpoints."""
    from repro.experiments.attack_compare import attack_roster_cells

    return CampaignSpec(
        name="attack-roster",
        description=(
            "PoP audit scoreboard across the adversary roster: clean "
            "baseline, majority coalition, eclipse (honest and victim "
            "views) and sybil"
        ),
        cells=attack_roster_cells(),
    )

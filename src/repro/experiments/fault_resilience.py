"""Fault-resilience sweep: every ledger under escalating fault intensity.

The paper pitches the two-layer DAG on resilience under imperfect edge
conditions; this experiment measures it against the comparison
baselines.  A grid of ``backend × fault intensity × seed`` cells runs
the same small workload on 2LDAG, PBFT and IOTA while the fault engine
replays an intensity-mapped timeline — ``none`` (the control),
``crash`` (a mid-run crash + rejoin of the low node ids, the view-0
PBFT primary included) and ``stress`` (degraded links, crash, a
partition, full recovery).

Each grid point is a plain ``scenario`` campaign cell, so points fan
out across workers and memoise in the result cache when the caller
passes a configured :class:`~repro.campaign.executor.CampaignExecutor`
(``python -m repro --workers 4 --cache-dir DIR campaign run
fault-grid``).  Without one, points run serially in-process.

Each cell's payload is its run's
:class:`~repro.scenario.runner.ScenarioResult`: consensus progress
(committed blocks / appended transactions), per-node storage, traffic,
and the PoP success rate and mean consensus latency where the backend
measures them, plus the canonical trace digest (the byte-identity
witness the CI fault-grid gate compares across worker counts).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import CellSpec
from repro.faults.presets import build_fault_preset
from repro.faults.spec import FaultScheduleSpec
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: Intensity name -> fault preset name (``None`` = fault-free control).
INTENSITY_PRESETS: Dict[str, Optional[str]] = {
    "none": None,
    "crash": "mid-crash",
    "stress": "stress",
}

#: The grid's canonical axes.
DEFAULT_BACKENDS = ("2ldag", "pbft", "iota")
DEFAULT_INTENSITIES = tuple(INTENSITY_PRESETS)
DEFAULT_SEEDS = (0, 1)

_GRID_NODES = 10
_GRID_SLOTS = 10


def fault_schedule_for(
    intensity: str, node_count: int, slots: int
) -> Optional[FaultScheduleSpec]:
    """The timeline ``intensity`` names, scaled to the workload shape."""
    try:
        preset = INTENSITY_PRESETS[intensity]
    except KeyError:
        raise ValueError(
            f"unknown fault intensity {intensity!r}; "
            f"known: {', '.join(INTENSITY_PRESETS)}"
        )
    if preset is None:
        return None
    return build_fault_preset(preset, node_count, slots)


def _grid_sample_slots() -> tuple:
    """The union of every intensity's fault boundary slots.

    Declared as the sample axis of *every* grid cell so the runner
    chunks all intensities identically: the baseline backends settle
    after each driven chunk, so unequal boundary sets would hand
    faulted cells more drain time than their fault-free control and
    confound the progress ratios.
    """
    slots = set()
    for intensity in INTENSITY_PRESETS:
        schedule = fault_schedule_for(intensity, _GRID_NODES, _GRID_SLOTS)
        if schedule is not None:
            slots.update(schedule.boundary_slots)
    return tuple(sorted(slots | {_GRID_SLOTS}))


def fault_grid_scenario(backend: str, intensity: str, seed: int) -> ScenarioSpec:
    """One grid point's scenario: small, seeded, intensity-faulted.

    Generation-time PoP runs on the 2LDAG backend (so the grid measures
    consensus success and latency under faults); the baselines ignore
    ``validate`` and report consensus progress through their committed
    chain / tangle instead.
    """
    is_2ldag = backend == "2ldag"
    return ScenarioSpec(
        name=f"fault-grid[backend={backend},intensity={intensity},seed={seed}]",
        description=f"fault-resilience grid point ({intensity} faults)",
        backend=backend,
        protocol=ProtocolSpec(body_bits=160_000, gamma=3, reply_timeout=0.1),
        topology=TopologySpec(node_count=_GRID_NODES),
        workload=WorkloadSpec(
            slots=_GRID_SLOTS,
            generation_period=1,
            validate=is_2ldag,
            validation_min_age_slots=5 if is_2ldag else None,
            run_until_quiet=is_2ldag,
            sample_slots=_grid_sample_slots(),
            faults=fault_schedule_for(intensity, _GRID_NODES, _GRID_SLOTS),
        ),
        seed=seed,
    )


def _grid_points(
    backends: Sequence[str], intensities: Sequence[str], seeds: Sequence[int]
) -> List[Tuple[str, str, int]]:
    """Every (backend, intensity, seed), in the grid's cell order."""
    return [
        (backend, intensity, seed)
        for backend in backends
        for intensity in intensities
        for seed in seeds
    ]


def fault_grid_cells(
    backends: Sequence[str] = DEFAULT_BACKENDS,
    intensities: Sequence[str] = DEFAULT_INTENSITIES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Tuple[CellSpec, ...]:
    """One ``scenario`` cell per backend × intensity × seed."""
    return tuple(
        CellSpec(scenario=fault_grid_scenario(*point))
        for point in _grid_points(backends, intensities, seeds)
    )


"""Fault-resilience sweep: every ledger under escalating fault intensity.

The paper pitches the two-layer DAG on resilience under imperfect edge
conditions; this experiment measures it against the comparison
baselines.  A grid of ``backend × fault intensity × seed`` cells runs
the same small workload on 2LDAG, PBFT and IOTA while the fault engine
replays an intensity-mapped timeline — ``none`` (the control),
``crash`` (a mid-run crash + rejoin of the low node ids, the view-0
PBFT primary included) and ``stress`` (degraded links, crash, a
partition, full recovery).

Each grid point is a campaign cell of kind ``fault-grid-point``: the
whole run-and-measure recipe executes inside the cell, so points fan
out across workers and memoise in the result cache when the caller
passes a configured :class:`~repro.campaign.executor.CampaignExecutor`
(``python -m repro --workers 4 campaign run fault-grid``).  Without
one, points run serially in-process.

Reported per point: consensus progress (committed blocks / appended
transactions), final per-node storage, traffic, the PoP success rate
and mean consensus latency where the backend measures them, and the
canonical trace digest (the byte-identity witness the CI fault-grid
gate compares across worker counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cells import observed_runner, register_cell_kind
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.faults.presets import build_fault_preset
from repro.faults.spec import FaultScheduleSpec
from repro.metrics.reporting import format_table
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


@register_cell_kind("fault-grid-point")
def run_fault_grid_cell(cell: CellSpec) -> Dict[str, Any]:
    """Run one grid point and measure its degradation metrics."""
    spec = cell.scenario
    runner = observed_runner(spec)
    result = runner.run()
    latency = None
    if runner.workload is not None and runner.workload.validations:
        durations = [
            record.outcome.finished_at - record.outcome.started_at
            for record in runner.workload.validations
            if record.outcome is not None and record.outcome.success
        ]
        if durations:
            latency = sum(durations) / len(durations)
    return {
        "backend": spec.backend,
        "intensity": str(cell.params.get("intensity", "none")),
        "seed": spec.seed,
        "blocks": result.total_blocks,
        "storage_mb": result.storage_mb[-1],
        "traffic_mbit": result.traffic_mbit[-1],
        "validations": result.validations,
        # None, not the BackendMetrics default of 1.0, when the backend
        # ran no PoP validations — a baseline must not read as "perfect
        # consensus success" in the table.
        "success_rate": result.success_rate if result.validations else None,
        "mean_consensus_s": latency,
        "events": result.events,
        "trace_sha256": result.trace_sha256,
    }


def fault_grid_cells(
    backends: Sequence[str] = DEFAULT_BACKENDS,
    intensities: Sequence[str] = DEFAULT_INTENSITIES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Tuple[CellSpec, ...]:
    """One ``fault-grid-point`` cell per backend × intensity × seed."""
    return tuple(
        CellSpec(
            scenario=fault_grid_scenario(backend, intensity, seed),
            kind="fault-grid-point",
            params={"intensity": intensity},
        )
        for backend in backends
        for intensity in intensities
        for seed in seeds
    )


@dataclass
class FaultGridPoint:
    """Seed-averaged measurements of one backend at one intensity."""

    backend: str
    intensity: str
    blocks: float
    storage_mb: float
    traffic_mbit: float
    #: PoP success rate; ``None`` on backends that run no validations.
    success_rate: Optional[float]
    mean_consensus_s: Optional[float]
    #: Consensus progress relative to the same backend's fault-free
    #: control (1.0 = no degradation; ``None`` when the sweep ran
    #: without a usable ``"none"`` control for this backend).
    progress_ratio: Optional[float]


@dataclass
class FaultGridResult:
    """The whole sweep, ready for tables and reports."""

    points: List[FaultGridPoint]

    def point(self, backend: str, intensity: str) -> FaultGridPoint:
        """The seed-averaged point for one grid coordinate."""
        for point in self.points:
            if point.backend == backend and point.intensity == intensity:
                return point
        raise KeyError(f"no grid point for {backend}/{intensity}")

    def to_table(self) -> str:
        """An aligned text table, one row per backend × intensity."""
        rows = []
        for point in self.points:
            rows.append([
                point.backend,
                point.intensity,
                f"{point.blocks:.1f}",
                "-" if point.progress_ratio is None
                else f"{point.progress_ratio:.3f}",
                f"{point.storage_mb:.2f}",
                f"{point.traffic_mbit:.3f}",
                "-" if point.success_rate is None
                else f"{point.success_rate:.3f}",
                "-" if point.mean_consensus_s is None
                else f"{point.mean_consensus_s:.4f}",
            ])
        return format_table(
            ["backend", "intensity", "blocks", "progress", "storage MB",
             "traffic Mbit", "pop success", "consensus s"],
            rows,
        )


def run_fault_resilience(
    backends: Sequence[str] = DEFAULT_BACKENDS,
    intensities: Sequence[str] = DEFAULT_INTENSITIES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    executor=None,
) -> FaultGridResult:
    """Run the grid and aggregate per-coordinate seed averages."""
    from repro.campaign.executor import run_campaign

    campaign = CampaignSpec(
        name="fault-resilience",
        cells=fault_grid_cells(backends, intensities, seeds),
    )
    payloads = list(run_campaign(campaign, executor).payloads())

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    # Controls first (order-independent of the intensities argument): a
    # missing or zero-progress control yields progress_ratio=None, never
    # a silent "no degradation" 1.0.
    baseline_blocks: Dict[str, float] = {}
    for backend in backends:
        control_group = [
            p for p in payloads
            if p["backend"] == backend and p["intensity"] == "none"
        ]
        if control_group:
            baseline_blocks[backend] = mean(
                [float(p["blocks"]) for p in control_group]
            )

    points: List[FaultGridPoint] = []
    for backend in backends:
        for intensity in intensities:
            group = [
                p for p in payloads
                if p["backend"] == backend and p["intensity"] == intensity
            ]
            blocks = mean([float(p["blocks"]) for p in group])
            latencies = [
                float(p["mean_consensus_s"]) for p in group
                if p["mean_consensus_s"] is not None
            ]
            successes = [
                float(p["success_rate"]) for p in group
                if p["success_rate"] is not None
            ]
            control = baseline_blocks.get(backend)
            points.append(
                FaultGridPoint(
                    backend=backend,
                    intensity=intensity,
                    blocks=blocks,
                    storage_mb=mean([float(p["storage_mb"]) for p in group]),
                    traffic_mbit=mean([float(p["traffic_mbit"]) for p in group]),
                    success_rate=mean(successes) if successes else None,
                    mean_consensus_s=mean(latencies) if latencies else None,
                    progress_ratio=blocks / control if control else None,
                )
            )
    return FaultGridResult(points=points)

"""Cell kinds: what executing one campaign cell means.

A *cell runner* is a function ``CellSpec -> dict`` whose return value
is pure JSON data — it crosses process boundaries (the parallel
executor runs cells in worker processes) and lands verbatim in the
on-disk result cache.  There are four kinds.  The built-in
``scenario`` kind runs the spec's whole slot workload and returns
:meth:`~repro.scenario.runner.ScenarioResult.to_dict`, which carries
the canonical trace digest — the byte-identity witness the campaign
determinism tests compare across worker counts.  Every cell that runs
a whole scenario (the figures, the ledger and fault grids) is a
``scenario`` cell.  The other three probe a grown deployment
(``fig9-series``, ``sweep-point``, ``attack-audit``) and register
from their home module through :func:`register_cell_kind`;
:data:`KIND_HOME_MODULES` lets any process — a fresh worker included
— resolve a kind it has not imported yet.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.spec import CampaignError, CampaignSpec, CellSpec
from repro.scenario.runner import ScenarioResult, ScenarioRunner
from repro.scenario.spec import ScenarioSpec

#: A cell runner: executes one cell, returns a JSON-serializable payload.
CellRunner = Callable[[CellSpec], Dict[str, Any]]

_CELL_KINDS: Dict[str, CellRunner] = {}

#: kind -> module that registers it, imported on demand.  This keeps
#: the campaign package free of experiment imports (no cycles) while
#: letting worker processes execute kinds their parent registered via
#: a plain module import — safe under both fork and spawn.
KIND_HOME_MODULES: Dict[str, str] = {
    "scenario": "repro.campaign.cells",
    "fig9-series": "repro.experiments.fig9_consensus",
    "sweep-point": "repro.experiments.sweeps",
    "attack-audit": "repro.experiments.attack_compare",
}


def register_cell_kind(name: str) -> Callable[[CellRunner], CellRunner]:
    """Register the decorated function as the runner for ``name``.

    The runner's defining module is recorded as the kind's home, so a
    fresh worker process (spawn start method included) can resolve a
    consumer-registered kind by importing that module.
    """

    def decorate(runner: CellRunner) -> CellRunner:
        existing = _CELL_KINDS.get(name)
        if existing is not None and existing is not runner:
            raise ValueError(f"cell kind {name!r} is already registered")
        _CELL_KINDS[name] = runner
        KIND_HOME_MODULES.setdefault(name, runner.__module__)
        return runner

    return decorate


def cell_kind_names() -> List[str]:
    """Every kind executable right now (registered or resolvable)."""
    return sorted(set(_CELL_KINDS) | set(KIND_HOME_MODULES))


def resolve_cell_kind(kind: str) -> CellRunner:
    """The runner for ``kind``, importing its home module if needed."""
    runner = _CELL_KINDS.get(kind)
    if runner is None and kind in KIND_HOME_MODULES:
        importlib.import_module(KIND_HOME_MODULES[kind])
        runner = _CELL_KINDS.get(kind)
    if runner is None:
        raise CampaignError(
            f"unknown cell kind {kind!r}; known: {', '.join(cell_kind_names())}"
        )
    return runner


def execute_cell(cell: CellSpec) -> Dict[str, Any]:
    """Run one cell to completion; returns its JSON payload."""
    return resolve_cell_kind(cell.kind)(cell)


def observed_runner(spec: ScenarioSpec) -> ScenarioRunner:
    """A runner for ``spec`` with the recorders the environment asks for.

    Telemetry is env-driven so it reaches worker processes without
    widening the cell payload: ``$REPRO_TELEMETRY`` opts into per-slot
    streams, ``$REPRO_TRACE_SAMPLE`` into block-lifecycle trace
    streams.  Both recorders are pure observers — the payload (and its
    trace digest, the campaign's byte-identity witness) is identical
    with them on or off — and both truncate their stream on
    ``run_started``, so a chaos-retried cell rewrites cleanly.  Every
    ``scenario`` cell builds its runner here.
    """
    from repro.telemetry import (
        run_recorders,
        telemetry_dir_from_env,
        trace_sample_from_env,
    )

    telemetry, spans = run_recorders(
        telemetry_dir_from_env(), trace_sample_from_env()
    )
    return ScenarioRunner(spec, telemetry=telemetry, spans=spans)


@register_cell_kind("scenario")
def run_scenario_cell(cell: CellSpec) -> Dict[str, Any]:
    """The default kind: run the whole slot workload, return the result."""
    return observed_runner(cell.scenario).run().to_dict()


def run_scenario_cells(
    specs: Sequence[ScenarioSpec],
    executor: Optional[object] = None,
    name: str = "adhoc",
) -> List[ScenarioResult]:
    """Run plain scenario cells through an executor; results in order.

    The shared submission path for consumers (Fig. 7/8, the headline) whose
    cells are whole scenario runs.  Specs that share a cell digest —
    equal apart from their labels — are one cell, submitted once; each
    spec still gets its own result.  With ``executor=None`` an
    ephemeral serial, cache-free executor preserves the exact
    single-process behaviour (and golden digests); passing a configured
    :class:`~repro.campaign.executor.CampaignExecutor` adds parallelism
    and caching without touching the consumer.
    """
    from repro.campaign.executor import run_campaign

    digests = [CellSpec(scenario=spec).digest() for spec in specs]
    distinct: Dict[str, ScenarioSpec] = {}
    for digest, spec in zip(digests, specs):
        distinct.setdefault(digest, spec)
    campaign = CampaignSpec(
        name=name, cells=tuple(CellSpec(scenario=spec) for spec in distinct.values())
    )
    payloads = dict(zip(distinct, run_campaign(campaign, executor).payloads()))
    return [
        ScenarioResult.from_dict(payloads[digest], spec)
        for digest, spec in zip(digests, specs)
    ]

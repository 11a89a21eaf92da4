"""The unified scenario pipeline: declarative spec → runner → result.

One :class:`ScenarioSpec` declares a whole 2LDAG run — protocol knobs,
topology, workload (slots, validation, fault timeline), adversaries, and seeds
— with JSON round-trip for committing and replaying scenarios.  A
:class:`ScenarioRunner` builds the deployment, drives it, and returns
a structured :class:`ScenarioResult`.  Named presets (``quickstart``,
``paper-fig7``, ``paper-fig9``, ``attack-*``, ``bench-*`` …) live in
the registry; ``paper-fig7`` is the one paper-scale 2LDAG run, since
Fig. 7's C = 0.5 MB run, Fig. 8's 33% run and the headline ratios'
denominators are one spec apart from their labels.

Every entry point in the repository — the CLI, the paper experiments,
the examples, the attack demos and the repo benchmark — constructs its
deployment through this package, so new scenarios are data, not code.

Specs name a *ledger backend* (``backend="2ldag"|"pbft"|"iota"``): the
runner dispatches through the :mod:`repro.scenario.backends` registry,
so the same spec — same topology, workload and seed — runs on the
paper's two-layer DAG or on the PBFT/IOTA comparison baselines.
"""

from repro.scenario.backends import (
    backend_names,
    build_topology,
    create_backend,
)
from repro.scenario.registry import (
    PAPER_SCALE,
    QUICK_SCALE,
    bench_scenario,
    fig7_scenario,
    fig8_scenario,
    fig9_scenario,
    figure_base,
    get_scenario,
    scenario_names,
)
from repro.scenario.runner import (
    ScenarioResult,
    ScenarioRunner,
    run_scenario,
)
from repro.scenario.spec import (
    DEFAULT_BACKEND,
    AdversarySpec,
    IotaParams,
    PbftParams,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "DEFAULT_BACKEND",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "AdversarySpec",
    "IotaParams",
    "PbftParams",
    "ProtocolSpec",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "backend_names",
    "bench_scenario",
    "build_topology",
    "create_backend",
    "fig7_scenario",
    "fig8_scenario",
    "fig9_scenario",
    "figure_base",
    "get_scenario",
    "run_scenario",
    "scenario_names",
]

"""Named scenario presets.

The registry maps stable names to :class:`ScenarioSpec` factories so
canonical runs — the paper figures, the README quickstart, the attack
demos, the ``bench-*`` macro workloads — are discoverable (``python -m repro
scenarios list``), exportable (``scenarios show NAME > spec.json``) and
replayable (``simulate --scenario NAME``) without touching code.

Factories, not constants: every lookup builds a fresh spec, so callers
may freely derive variants with :func:`dataclasses.replace`.

The parameterized builders (:func:`fig7_scenario`,
:func:`fig8_scenario`, :func:`fig9_scenario`, :func:`bench_scenario`)
are what the experiment and campaign layers call; the presets are those
builders evaluated at their canonical parameters.  A figure builder is
sized by a base :class:`ScenarioSpec` — :data:`PAPER_SCALE`,
:data:`QUICK_SCALE`, or any spec of the caller's — from which it reads
the node count, slots, sample slots, ``validate`` and seed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.faults.presets import build_fault_preset
from repro.faults.spec import NODE_CRASH, NODE_REJOIN, FaultEvent, FaultScheduleSpec
from repro.metrics.units import mb_to_bits
from repro.scenario.spec import (
    RANDOM_1_2,
    AdversarySpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: name -> zero-argument spec factory.
_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(factory: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Register ``factory`` under the name of the spec it builds."""
    spec = factory()
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = factory
    return factory


def scenario_names() -> List[str]:
    """All registered preset names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """The preset spec for ``name``; raises ``KeyError`` with the roster."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    return factory()


# -- parameterized builders (experiment/campaign backbone) --------------------

def figure_base(
    node_count: int,
    slots: int,
    sample_slots: Sequence[int] = (),
    validate: bool = True,
    seed: int = 0,
) -> ScenarioSpec:
    """A spec carrying just the five values the figure builders read.

    γ = 1 fits any topology of two or more nodes; each builder sets its
    own.
    """
    return ScenarioSpec(
        name="figure-base",
        protocol=ProtocolSpec(gamma=1),
        topology=TopologySpec(node_count=node_count),
        workload=WorkloadSpec(
            slots=slots, validate=validate, sample_slots=tuple(sample_slots)
        ),
        seed=seed,
    )


#: The §VI size: 50 nodes × 200 slots, sampled every 25.
PAPER_SCALE = figure_base(50, 200, range(25, 201, 25))

#: A fast size with the same qualitative shape (CI-friendly).
QUICK_SCALE = figure_base(30, 80, (10, 20, 40, 60, 80))


def _sample_slots(base: ScenarioSpec) -> Tuple[int, ...]:
    """``base``'s sample slots; a spec declaring none samples its last slot."""
    return base.workload.sample_slots or (base.workload.slots,)


def fig7_scenario(body_mb: float, base: ScenarioSpec) -> ScenarioSpec:
    """The Fig. 7 storage run: 1 block/slot/node, γ = ⌈|V|/3⌉.

    Like every figure builder this reads ``base`` for its node count,
    slots, sample slots, ``validate`` and seed — nothing else.
    """
    gamma = max(1, round(base.node_count / 3))
    return ScenarioSpec(
        name=f"fig7-C{body_mb}",
        description=f"Fig. 7 storage workload, C = {body_mb} MB",
        protocol=ProtocolSpec.paper(gamma=gamma, body_mb=body_mb),
        topology=TopologySpec(node_count=base.node_count),
        workload=WorkloadSpec(
            slots=base.workload.slots,
            generation_period=1,
            validate=base.workload.validate,
            sample_slots=_sample_slots(base),
        ),
        seed=base.seed,
    )


def fig8_gamma(node_count: int, tolerance_fraction: float) -> int:
    """The γ giving a consensus path of ⌈fraction·|V|⌉ + 1 nodes."""
    return max(1, math.ceil(node_count * tolerance_fraction))


def fig8_scenario(tolerance_fraction: float, base: ScenarioSpec) -> ScenarioSpec:
    """One Fig. 8 communication run at a malicious-tolerance fraction."""
    gamma = fig8_gamma(base.node_count, tolerance_fraction)
    return ScenarioSpec(
        name=f"fig8-{round(tolerance_fraction * 100)}pct",
        description=(
            f"Fig. 8 communication workload, "
            f"{round(tolerance_fraction * 100)}% malicious tolerance"
        ),
        protocol=ProtocolSpec.paper(gamma=gamma, body_mb=0.5),
        topology=TopologySpec(node_count=base.node_count),
        workload=WorkloadSpec(
            slots=base.workload.slots,
            generation_period=1,
            validate=True,
            sample_slots=_sample_slots(base),
        ),
        seed=base.seed,
    )


def fig9_scenario(
    gamma: int, malicious: int, slots: int, base: ScenarioSpec
) -> ScenarioSpec:
    """One Fig. 9 consensus-time run: a silent coalition of ``malicious``.

    Per the paper's workload each node generates one block per one or
    two slots; the short reply timeout and fast links keep each probe's
    sim-time well under a slot even with many silent responders.
    """
    adversaries = ()
    if malicious > 0:
        adversaries = (AdversarySpec(kind="silent", count=malicious),)
    return ScenarioSpec(
        name=f"fig9-g{gamma}-m{malicious}",
        description=(
            f"Fig. 9 consensus workload, gamma={gamma}, "
            f"{malicious} PoP-silent nodes"
        ),
        protocol=ProtocolSpec(
            body_bits=mb_to_bits(0.5), gamma=gamma, reply_timeout=0.02
        ),
        topology=TopologySpec(node_count=base.node_count),
        workload=WorkloadSpec(
            slots=slots, generation_period=RANDOM_1_2, validate=False
        ),
        adversaries=adversaries,
        seed=base.seed + malicious,
        per_hop_latency=0.0001,
    )


def bench_scenario(fast: bool) -> ScenarioSpec:
    """The ``bench-fast`` / ``bench-full`` macro slot-simulation workload.

    ``bench-full`` is the ``bench-grid`` campaign's cell; both digests
    are goldens of ``tests/integration/test_determinism_regression.py``.
    """
    return ScenarioSpec(
        name="bench-fast" if fast else "bench-full",
        description=(
            "benchmark macro workload "
            + ("(smoke scale)" if fast else "(full scale)")
        ),
        protocol=ProtocolSpec.paper(gamma=3 if fast else 4, body_mb=0.1),
        topology=TopologySpec(node_count=12 if fast else 20),
        workload=WorkloadSpec(
            slots=25 if fast else 100,
            generation_period=1,
            validate=True,
            run_until_quiet=True,
        ),
        seed=7,
    )


# -- presets -------------------------------------------------------------------

@register_scenario
def _quickstart() -> ScenarioSpec:
    return ScenarioSpec(
        name="quickstart",
        description="9-node grid, 30 slots, small blocks — the README walk-through",
        protocol=ProtocolSpec(body_bits=8_000, gamma=3),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=30, generation_period=1),
        seed=7,
    )


@register_scenario
def _paper_fig7() -> ScenarioSpec:
    return dataclasses.replace(
        fig7_scenario(0.5, PAPER_SCALE),
        name="paper-fig7",
        description=(
            "the paper-scale 2LDAG run behind three results: Fig. 7(b) "
            "storage at C = 0.5 MB, Fig. 8 communication at 33% tolerance "
            "and the headline ratios' denominators"
        ),
    )


@register_scenario
def _paper_fig9() -> ScenarioSpec:
    return dataclasses.replace(
        fig9_scenario(gamma=10, malicious=5, slots=50, base=PAPER_SCALE),
        name="paper-fig9",
        description=(
            "Fig. 9(a) consensus run at paper scale "
            "(gamma=10, 5 PoP-silent nodes)"
        ),
    )


@register_scenario
def _attack_majority() -> ScenarioSpec:
    return ScenarioSpec(
        name="attack-majority",
        description=(
            "30-node network with a mixed captured coalition: 4 PoP-silent "
            "+ 2 header-forging nodes (the Fig. 5 / §IV-D demo)"
        ),
        protocol=ProtocolSpec.paper(gamma=9, body_mb=0.1, reply_timeout=0.05),
        topology=TopologySpec(node_count=30),
        workload=WorkloadSpec(slots=40, generation_period=1),
        adversaries=(
            AdversarySpec(kind="silent", count=4, protect=(0, 1), stream_name="silent"),
            AdversarySpec(kind="corrupt", count=2, protect=(0, 1), stream_name="corrupt"),
        ),
        seed=99,
    )


@register_scenario
def _attack_eclipse() -> ScenarioSpec:
    return ScenarioSpec(
        name="attack-eclipse",
        description=(
            "9-node grid with node 4's PoP traffic eclipsed by a drop rule "
            "(§IV-D-4): the victim cannot reach consensus, everyone else can"
        ),
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=20, generation_period=1),
        adversaries=(AdversarySpec(kind="eclipse", victim=4),),
        seed=2,
    )


@register_scenario
def _attack_sybil() -> ScenarioSpec:
    return ScenarioSpec(
        name="attack-sybil",
        description=(
            "9-node grid plus 5 fabricated identities controlled by node 3 "
            "(§IV-D-3): forged headers fail the key-registry check"
        ),
        protocol=ProtocolSpec(body_bits=8_000, gamma=2),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=20, generation_period=1),
        adversaries=(AdversarySpec(kind="sybil", attacker=3, count=5),),
        seed=2,
    )


@register_scenario
def _churn() -> ScenarioSpec:
    duty_cycled = (3, 6, 9, 12, 15, 17)
    return ScenarioSpec(
        name="churn",
        description=(
            "18 sensors; a third duty-cycle offline for 10 slots mid-run and "
            "rejoin with blacklist forgiveness (§VII dynamic membership)"
        ),
        protocol=ProtocolSpec(body_bits=80_000, gamma=5, reply_timeout=0.1),
        topology=TopologySpec(node_count=18),
        workload=WorkloadSpec(
            slots=35,
            generation_period=1,
            faults=FaultScheduleSpec(events=(
                FaultEvent(kind=NODE_CRASH, slot=15, nodes=duty_cycled),
                FaultEvent(kind=NODE_REJOIN, slot=25, nodes=duty_cycled),
            )),
        ),
        seed=77,
    )


@register_scenario
def _fault_demo() -> ScenarioSpec:
    return ScenarioSpec(
        name="fault-demo",
        description=(
            "16 sensors surviving the 'stress' fault timeline: degraded "
            "links, a crashed view-0 primary, a mid-run partition, full "
            "recovery — runs on any backend via --backend"
        ),
        protocol=ProtocolSpec(body_bits=80_000, gamma=4, reply_timeout=0.1),
        topology=TopologySpec(node_count=16),
        workload=WorkloadSpec(
            slots=24,
            generation_period=1,
            faults=build_fault_preset("stress", 16, 24),
        ),
        seed=42,
    )


@register_scenario
def _digital_twin() -> ScenarioSpec:
    return ScenarioSpec(
        name="digital-twin",
        description=(
            "25-sensor factory floor streaming 0.1 MB readings for 60 slots "
            "— the paper's §I Metaverse audit scenario"
        ),
        protocol=ProtocolSpec.paper(gamma=8, body_mb=0.1),
        topology=TopologySpec(node_count=25),
        workload=WorkloadSpec(slots=60, generation_period=1),
        seed=2024,
    )


@register_scenario
def _ledger_comparison() -> ScenarioSpec:
    return ScenarioSpec(
        name="ledger-comparison",
        description=(
            "12 nodes, 12 slots, 20 kB blocks with generation-time PoP — "
            "the live 2LDAG side of the three-ledger scoreboard"
        ),
        protocol=ProtocolSpec(body_bits=160_000, gamma=4, reply_timeout=0.1),
        topology=TopologySpec(node_count=12),
        workload=WorkloadSpec(
            slots=12,
            generation_period=1,
            validate=True,
            validation_min_age_slots=6,
            run_until_quiet=True,
        ),
        seed=5,
    )


@register_scenario
def _partial_audit() -> ScenarioSpec:
    return ScenarioSpec(
        name="partial-audit",
        description=(
            "9-node grid with 250 kB bodies — chunk proofs and the wire "
            "format round-trip"
        ),
        protocol=ProtocolSpec(body_bits=2_000_000, gamma=3),
        topology=TopologySpec(kind="grid", rows=3, cols=3),
        workload=WorkloadSpec(slots=20, generation_period=1),
        seed=3,
    )


@register_scenario
def _bench_fast() -> ScenarioSpec:
    return bench_scenario(fast=True)


@register_scenario
def _bench_full() -> ScenarioSpec:
    return bench_scenario(fast=False)

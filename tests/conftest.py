"""Shared fixtures: small deterministic deployments and topologies."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.node import NodeBehavior
from repro.core.pop.messages import RpyChild
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.net.topology import explicit_topology, grid_topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams (seed 0)."""
    return RandomStreams(0)


@pytest.fixture
def small_config() -> ProtocolConfig:
    """Tiny bodies and γ=2 — fast to simulate, easy to reason about."""
    return ProtocolConfig(body_bits=8_000, gamma=2)


@pytest.fixture
def line_topology():
    """A -- B -- C -- D line."""
    return explicit_topology([(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def fig3_topology():
    """The paper's Fig. 3 network: A-B, B-C, B-D, C-D (A=0 B=1 C=2 D=3)."""
    return explicit_topology([(0, 1), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def grid9():
    """3×3 grid (4-neighbour links)."""
    return grid_topology(3, 3)


class EquivocatingResponder(NodeBehavior):
    """Replies with a genuine own header that does NOT reference the digest.

    The header authenticates (it is really the responder's), but the
    ``GetDigest(b^h, v)`` comparison of Algorithm 3 line 21 fails, so
    the validator skips it: a node trying to graft the path onto an
    unrelated branch.
    """

    def answer_req_child(self, node, request):
        latest = node.store.latest
        if latest is None:
            return None
        honest = super().answer_req_child(node, request)
        if honest is not None and honest.header is not None:
            # Deliberately send some block that is NOT the requested child.
            for block in node.store:
                if block.header.block_id != honest.header.block_id:
                    return RpyChild(header=block.header)
        return RpyChild(header=latest.header)


@pytest.fixture
def equivocating_responder() -> EquivocatingResponder:
    """A fresh behaviour that answers with the wrong own header."""
    return EquivocatingResponder()


@pytest.fixture
def small_deployment(small_config, grid9) -> TwoLayerDagNetwork:
    """A 9-node 2LDAG deployment with tiny blocks."""
    return TwoLayerDagNetwork(config=small_config, topology=grid9, seed=11)


@pytest.fixture
def ran_deployment(small_deployment) -> TwoLayerDagNetwork:
    """The small deployment after 20 slots with validation on."""
    workload = SlotSimulation(
        small_deployment, validate=True, validation_min_age_slots=9
    )
    workload.run(20)
    workload.run_until_quiet()
    small_deployment.workload = workload  # stash for tests that need it
    return small_deployment

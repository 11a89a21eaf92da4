"""Sequential verifications from one warm validator (§IV-B).

Each run that succeeds persists its path into the validator's ``H_i``,
so TPS serves later runs part of their path for free: the cache
amortises PoP's cost over a burst of audits.
"""

from dataclasses import replace

import pytest

from repro.core.pop.messages import (
    KIND_BLOCK_DATA,
    KIND_BLOCK_FETCH,
    KIND_REQ_CHILD,
    KIND_RPY_CHILD,
)
from repro.core.pop.validator import PopValidator
from repro.core.protocol import SlotSimulation

POP_KINDS = (KIND_BLOCK_FETCH, KIND_BLOCK_DATA, KIND_REQ_CHILD, KIND_RPY_CHILD)


@pytest.fixture
def grown(small_deployment):
    workload = SlotSimulation(small_deployment, generation_period=1)
    workload.run(14)
    return small_deployment, workload


def targets(workload, validator_id, count):
    """``(verifier, block_id)`` of the oldest blocks not the validator's own."""
    return [
        (b.origin, b)
        for s in range(4)
        for b in workload.blocks_by_slot[s]
        if b.origin != validator_id
    ][:count]


def verify_in_turn(deployment, validator, pairs, finished, **kwargs):
    """One ``validator.run`` per target, each drained before the next starts."""
    return [
        finished(deployment.sim, validator.run(verifier, block_id, **kwargs))
        for verifier, block_id in pairs
    ]


class TestWarmValidator:
    def test_every_verification_succeeds(self, grown, finished):
        deployment, workload = grown
        outcomes = verify_in_turn(
            deployment, deployment.node(8).validator(), targets(workload, 8, 6), finished
        )
        assert len(outcomes) == 6
        assert all(o.success for o in outcomes)

    def test_cache_amortisation_visible(self, grown, finished):
        """Later verifications from one validator cost fewer messages."""
        deployment, workload = grown
        outcomes = verify_in_turn(
            deployment, deployment.node(8).validator(), targets(workload, 8, 8), finished
        )
        costs = [o.message_total for o in outcomes]
        assert costs[0] >= costs[-1]
        assert sum(o.tps_steps for o in outcomes) > 0

    def test_message_totals_are_the_pop_traffic(self, grown, finished):
        deployment, workload = grown
        ledger = deployment.traffic
        before = sum(ledger.message_count(kind) for kind in POP_KINDS)
        outcomes = verify_in_turn(
            deployment, deployment.node(8).validator(), targets(workload, 8, 4), finished
        )
        assert all(o.success and o.timeouts == 0 for o in outcomes)
        carried = sum(ledger.message_count(kind) for kind in POP_KINDS) - before
        assert sum(o.message_total for o in outcomes) == carried

    def test_a_run_costs_one_start_and_one_completion_event(self, grown, finished):
        deployment, workload = grown
        sim = deployment.sim
        before = sim.processed_count
        outcome = finished(
            sim, deployment.node(7).validator(use_tps=False).run(*targets(workload, 8, 1)[0])
        )
        # Per request: its delivery, its expiry, the reply's delivery and
        # the on_reply call; the run adds its start and ``_completed``.
        assert outcome.timeouts == 0
        assert sim.processed_count - before == 2 + 4 * outcome.requests_sent

    def test_a_successful_run_persists_its_path(self, grown, finished):
        """Line 39: the path of a run that reached consensus joins ``H_i``."""
        deployment, workload = grown
        validator = deployment.node(8).validator()
        outcome = finished(deployment.sim, validator.run(*targets(workload, 8, 1)[0]))
        assert outcome.success
        assert all(header.block_id in validator.cache for header in outcome.path)

    def test_a_repeat_verification_is_served_from_the_cache(self, grown, finished):
        """Verified once, a block's path needs only the block fetch again."""
        deployment, workload = grown
        validator = deployment.node(8).validator()
        target = targets(workload, 8, 1)[0]
        first, again = verify_in_turn(deployment, validator, [target, target], finished)
        assert first.success and again.success
        assert first.requests_sent > 1
        assert again.requests_sent == 1
        assert again.tps_steps > 0

    def test_a_run_without_consensus_persists_nothing(self, grown, finished):
        """Headers a failed run fetched stay out of ``H_i``."""
        deployment, workload = grown
        node = deployment.node(8)
        # Quorum γ+1 = 10 on nine nodes: the walk fetches and rolls back
        # until it is exhausted.
        unreachable = PopValidator(
            node.interface, node.cache, node.topology, node.registry,
            replace(node.config, gamma=9), rng=node.rng,
        )
        cached = {header.block_id for header in node.cache}
        outcome = finished(deployment.sim, unreachable.run(*targets(workload, 8, 1)[0]))
        assert (outcome.success, outcome.error) == (False, "exhausted")
        assert outcome.headers_retrieved > 1
        assert {header.block_id for header in node.cache} == cached

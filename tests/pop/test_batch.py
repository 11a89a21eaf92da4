"""Tests for batch verification."""

import pytest

from repro.core.pop.batch import verify_batch
from repro.core.protocol import SlotSimulation


@pytest.fixture
def grown(small_deployment):
    workload = SlotSimulation(small_deployment, generation_period=1)
    workload.run(14)
    return small_deployment, workload


class TestBatch:
    def _targets(self, workload, validator_id, count):
        return [
            (b.origin, b)
            for s in range(4)
            for b in workload.blocks_by_slot[s]
            if b.origin != validator_id
        ][:count]

    def test_batch_verifies_all(self, grown, finished):
        deployment, workload = grown
        targets = self._targets(workload, 8, 6)
        report = finished(
            deployment.sim, verify_batch(deployment.node(8).validator(), targets)
        )
        assert report.total == 6
        assert report.success_rate == 1.0
        assert report.failed_blocks() == []

    def test_cache_amortisation_visible(self, grown, finished):
        """Later verifications in a batch cost fewer messages."""
        deployment, workload = grown
        targets = self._targets(workload, 8, 8)
        report = finished(
            deployment.sim, verify_batch(deployment.node(8).validator(), targets)
        )
        costs = report.messages_per_verification()
        assert costs[0] >= costs[-1]
        assert report.total_cache_hits > 0

    def test_aggregate_counts(self, grown, finished):
        deployment, workload = grown
        targets = self._targets(workload, 8, 4)
        report = finished(
            deployment.sim, verify_batch(deployment.node(8).validator(), targets)
        )
        assert report.total_messages == sum(report.messages_per_verification())
        assert report.successes == 4

    def test_empty_batch(self, grown, finished):
        deployment, _ = grown
        report = finished(
            deployment.sim, verify_batch(deployment.node(8).validator(), [])
        )
        assert report.total == 0
        assert report.success_rate == 0.0

    def test_batch_costs_one_start_and_one_completion_event(self, grown, finished):
        deployment, workload = grown
        sim = deployment.sim
        targets = self._targets(workload, 8, 5)

        # One verification alone: start + completion + its message events.
        before = sim.processed_count
        alone = finished(sim, deployment.node(7).validator(use_tps=False).run(*targets[0]))
        message_events = sim.processed_count - before - 2
        assert alone.timeouts == 0 and message_events == 4 * alone.requests_sent

        before = sim.processed_count
        batch = verify_batch(deployment.node(8).validator(use_tps=False), targets, fetch_body=True)
        assert (batch.triggered, batch.ok, batch.value) == (False, True, None)
        report = finished(sim, batch)
        # Each run starts in the frame that ended the one before: no
        # kernel event between two runs, as when one generator drove them.
        requests = sum(o.requests_sent for _, o in report.outcomes)
        assert all(o.timeouts == 0 for _, o in report.outcomes)
        assert sim.processed_count - before == 2 + 4 * requests
        for (_, earlier), (_, later) in zip(report.outcomes, report.outcomes[1:]):
            assert later.started_at == earlier.finished_at

"""Unit tests for the PoP validator (Algorithm 3)."""

import random
import sys
from dataclasses import replace
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.behaviors import CorruptResponder, EquivocatingResponder, SilentResponder
from repro.core.block import DataBlock
from repro.core.config import ProtocolConfig
from repro.core.node import IoTNode, NodeBehavior
from repro.core.pop.messages import RpyChild
from repro.core.pop.responder import serve_req_child
from repro.core.pop.wps import closed_neighborhood_weight
from repro.core.protocol import SlotSimulation, TwoLayerDagNetwork
from repro.crypto.puzzle import NoncePuzzle
from repro.crypto.signature import sign
from repro.net.topology import grid_topology


@pytest.fixture
def run_validation(finished):
    """Drive one PoP run to completion and return the outcome."""

    def run_validation(deployment, validator_id, verifier_id, block_id=None, **kwargs):
        node = deployment.node(validator_id)
        return finished(deployment.sim, node.validator().run(verifier_id, block_id, **kwargs))

    return run_validation


def grow_dag(deployment, slots, jitter=0.0):
    workload = SlotSimulation(
        deployment, validate=False, intra_slot_jitter=jitter
    )
    workload.run(slots)
    return workload


class TestSuccess:
    def test_reaches_consensus_on_old_block(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        outcome = run_validation(deployment, 8, target.origin, target)
        assert outcome.success
        assert len(outcome.consensus_set) >= small_config.consensus_quorum()
        assert outcome.path[0].block_id == target

    def test_path_is_connected_chain_of_children(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        outcome = run_validation(deployment, 8, target.origin, target)
        hash_bits = small_config.hash_bits
        for parent, child in zip(outcome.path, outcome.path[1:]):
            assert child.references(parent.digest(hash_bits))

    def test_verify_latest_block_without_id(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        grow_dag(deployment, 10)
        # The latest block has no descendants yet; consensus on it can
        # only come from blocks generated later — so expect failure now,
        # then success after more slots. Here we just check the fetch path.
        outcome = run_validation(deployment, 8, 0, None)
        assert outcome.error in (None, "exhausted")

    def test_cold_cache_meets_prop4_lower_bound(self, grid9, run_validation):
        config = ProtocolConfig(body_bits=8_000, gamma=2)
        deployment = TwoLayerDagNetwork(config=config, topology=grid9, seed=3)
        workload = grow_dag(deployment, 8)
        target = workload.blocks_by_slot[0][0]
        validator_node = deployment.node(8)
        validator_node.cache = type(validator_node.cache)(config.hash_bits)  # wipe H_i
        outcome = run_validation(deployment, 8, target.origin, target, use_tps=False) \
            if False else run_validation(deployment, 8, target.origin, target)
        assert outcome.success
        # Proposition 4: ≥ 2(γ+1) messages when H_i is empty.
        assert outcome.message_total >= 2 * (config.gamma + 1)

    def test_successful_path_populates_cache(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        validator_node = deployment.node(8)
        before = len(validator_node.cache)
        outcome = run_validation(deployment, 8, target.origin, target)
        assert outcome.success
        assert len(validator_node.cache) >= before
        for header in outcome.path:
            assert validator_node.cache.get(header.block_id) is not None

    def test_second_validation_uses_tps(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        first = run_validation(deployment, 8, target.origin, target)
        second = run_validation(deployment, 8, target.origin, target)
        assert first.success and second.success
        assert second.requests_sent < first.requests_sent
        assert second.tps_steps > 0


class TestFailureModes:
    def test_silent_verifier_times_out(self, small_config, grid9, run_validation):
        behaviors = {0: SilentResponder()}
        deployment = TwoLayerDagNetwork(
            config=small_config, topology=grid9, seed=1, behaviors=behaviors
        )
        grow_dag(deployment, 5)
        outcome = run_validation(deployment, 8, 0, None)
        assert not outcome.success
        assert outcome.error == "verifier-timeout"

    def test_young_block_cannot_reach_consensus(self, small_config, grid9, run_validation):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 3)
        # Verify the newest block: no descendants exist yet.
        target = workload.blocks_by_slot[2][-1]
        outcome = run_validation(deployment, 8, target.origin, target)
        assert not outcome.success
        assert outcome.error == "exhausted"

    def test_unknown_block_id_fails(self, small_config, grid9, run_validation):
        from repro.core.block import BlockId

        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        grow_dag(deployment, 3)
        outcome = run_validation(deployment, 8, 0, BlockId(0, 999))
        assert not outcome.success
        assert outcome.error == "verifier-timeout"  # verifier has nothing to serve


class TestAdversaries:
    def test_routes_around_silent_responders(self, run_validation):
        """Fig. 5's scenario: the walk detours around silent nodes."""
        config = ProtocolConfig(body_bits=8_000, gamma=3, reply_timeout=0.1)
        grid = grid_topology(4, 4)
        behaviors = {5: SilentResponder(), 6: SilentResponder()}
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid, seed=2, behaviors=behaviors
        )
        workload = grow_dag(deployment, 12)
        target = workload.blocks_by_slot[0][0]
        if target.origin in behaviors:
            target = next(
                b for b in workload.blocks_by_slot[0] if b.origin not in behaviors
            )
        outcome = run_validation(deployment, 15, target.origin, target)
        assert outcome.success
        assert outcome.timeouts > 0 or all(
            h.origin not in behaviors for h in outcome.path
        )

    def test_corrupt_replies_rejected_but_consensus_survives(self, run_validation):
        config = ProtocolConfig(body_bits=8_000, gamma=3, reply_timeout=0.1)
        grid = grid_topology(4, 4)
        behaviors = {5: CorruptResponder()}
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid, seed=2, behaviors=behaviors
        )
        workload = grow_dag(deployment, 12)
        target = next(
            b for b in workload.blocks_by_slot[0] if b.origin not in behaviors
        )
        outcome = run_validation(deployment, 15, target.origin, target)
        assert outcome.success
        # No corrupted header may appear on the accepted path.
        for header in outcome.path:
            public = deployment.registry.public_key(header.origin)
            assert header.verify_signature(public)

    def test_equivocating_replies_rejected(self, run_validation):
        config = ProtocolConfig(body_bits=8_000, gamma=3, reply_timeout=0.1)
        grid = grid_topology(4, 4)
        behaviors = {5: EquivocatingResponder()}
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid, seed=2, behaviors=behaviors
        )
        workload = grow_dag(deployment, 12)
        target = next(
            b for b in workload.blocks_by_slot[0] if b.origin not in behaviors
        )
        outcome = run_validation(deployment, 15, target.origin, target)
        assert outcome.success
        hash_bits = config.hash_bits
        for parent, child in zip(outcome.path, outcome.path[1:]):
            assert child.references(parent.digest(hash_bits))


class UnminedResponder(NodeBehavior):
    """Answers with its real child header under a nonce that fails
    Eq. (5), signed afresh so that Eq. (6) holds over the new nonce."""

    def __init__(self, puzzle):
        self.puzzle = puzzle
        self.sent = []

    def answer_req_child(self, node, request):
        honest = super().answer_req_child(node, request)
        if honest is None or honest.header is None:
            return honest
        header = honest.header
        nonce = next(
            n for n in range(header.nonce + 1, header.nonce + 1000)
            if not self.puzzle.check(header.puzzle_fields(), n)
        )
        unsigned = replace(header, nonce=nonce)
        forged = replace(unsigned, signature=sign(unsigned.signing_payload(), node.keypair))
        self.sent.append(forged)
        return RpyChild(header=forged)


class ChildThief(NodeBehavior):
    """Answers with another node's genuine child header: it references
    the asked digest and carries its author's valid signature and
    nonce, but the responder is not its author."""

    def __init__(self):
        self.deployment = None
        self.sent = []

    def answer_req_child(self, node, request):
        for other in self.deployment.node_ids:
            if other == node.node_id:
                continue
            header = serve_req_child(self.deployment.node(other).store, request).header
            if header is not None:
                self.sent.append((node.node_id, header))
                return RpyChild(header=header)
        return RpyChild(header=None)


class BodySwappingVerifier(NodeBehavior):
    """Serves its genuine header over a body that is not the one it hashed."""

    def answer_block_fetch(self, node, request):
        block = super().answer_block_fetch(node, request)
        swapped = replace(block.body, content_seed=block.body.content_seed + b"!")
        return DataBlock(header=block.header, body=swapped)


class TestPaperChecks:
    """Eq. (5) and authorship on every reply header and Algorithm 3
    line 3, at a difficulty where a hash can fail the puzzle."""

    CONFIG = ProtocolConfig(
        body_bits=8_000, gamma=3, reply_timeout=0.1, puzzle_difficulty_bits=6
    )

    def test_reply_with_an_unmined_nonce_is_invalid(self, run_validation):
        # γ = 1: one accepted reply from a second origin would be consensus.
        # Everyone but the verifier (4) and the validator (15) cheats, so
        # whoever WPS asks first, the first child offered is a forged one.
        config = replace(self.CONFIG, gamma=1)
        puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)
        cheats = {n: UnminedResponder(puzzle) for n in range(16) if n not in (4, 15)}
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid_topology(4, 4), seed=2, behaviors=cheats
        )
        workload = grow_dag(deployment, 12)
        target = next(b for b in workload.blocks_by_slot[0] if b.origin == 4)
        outcome = run_validation(deployment, 15, target.origin, target)
        sent = [h for cheat in cheats.values() for h in cheat.sent]
        assert sent
        for header in sent:
            assert header.verify_signature(deployment.registry.public_key(header.origin))
            assert not header.verify_nonce(puzzle)
        assert outcome.invalid_replies >= len(sent)
        assert not outcome.success and outcome.error == "exhausted"
        assert outcome.path == []

    def test_reply_with_another_nodes_child_is_invalid(self, run_validation):
        # Same cast as above, but every cheat forwards a child that some
        # other node authored: Eq. (5), Eq. (6) and line 21 all hold, so
        # only the responder-is-origin check can reject it.
        config = replace(self.CONFIG, gamma=1)
        puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)
        thieves = {n: ChildThief() for n in range(16) if n not in (4, 15)}
        deployment = TwoLayerDagNetwork(
            config=config, topology=grid_topology(4, 4), seed=2, behaviors=thieves
        )
        for thief in thieves.values():
            thief.deployment = deployment
        workload = grow_dag(deployment, 12)
        target = next(b for b in workload.blocks_by_slot[0] if b.origin == 4)
        outcome = run_validation(deployment, 15, target.origin, target)
        sent = [pair for thief in thieves.values() for pair in thief.sent]
        assert sent
        for responder, header in sent:
            assert header.origin != responder
            assert header.verify_signature(deployment.registry.public_key(header.origin))
            assert header.verify_nonce(puzzle)
        assert outcome.invalid_replies >= len(sent)
        stolen = {header.block_id for _responder, header in sent}
        assert not stolen & {header.block_id for header in outcome.path}
        assert not outcome.success and outcome.error == "exhausted"

    def test_body_that_does_not_hash_to_root_ends_the_run(self, run_validation):
        deployment = TwoLayerDagNetwork(
            config=self.CONFIG, topology=grid_topology(4, 4), seed=2,
            behaviors={4: BodySwappingVerifier()},
        )
        workload = grow_dag(deployment, 12)
        target = next(b for b in workload.blocks_by_slot[0] if b.origin == 4)
        outcome = run_validation(deployment, 15, target.origin, target)
        assert not outcome.success
        assert outcome.error == "merkle-root-mismatch"
        assert outcome.path == [] and outcome.requests_sent == 1


class TestAblations:
    def test_wps_disabled_still_correct(self, small_config, grid9, finished):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=4)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        node = deployment.node(8)
        outcome = finished(
            deployment.sim, node.validator(use_wps=False).run(target.origin, target)
        )
        assert outcome.success

    def test_tps_disabled_costs_more_messages(self, small_config, grid9, finished):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=4)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        node = deployment.node(8)

        with_tps = finished(
            deployment.sim, node.validator(use_tps=True).run(target.origin, target)
        )
        without_tps = finished(
            deployment.sim, node.validator(use_tps=False).run(target.origin, target)
        )
        assert with_tps.success and without_tps.success
        # The second run would be nearly free with TPS; without it, the
        # validator must re-fetch headers over the network.
        assert without_tps.requests_sent > 0


def choose_candidate(validator, consensus_set, candidates):
    """One responder pick as it was before the per-extension order."""
    if not validator.use_wps:
        if validator.rng is not None:
            return validator.rng.choice(sorted(candidates))
        return sorted(candidates)[0]
    routing = validator.interface.network.routing
    me = validator.interface.node_id
    return min(
        sorted(candidates),
        key=lambda c: (
            closed_neighborhood_weight(c, consensus_set, validator.topology),
            routing.hop_count(me, c),
            c,
        ),
    )


class TestResponderOrder:
    """The ablation orders ≡ repeated single picks with removal."""

    @given(
        st.sampled_from([{"use_wps": False}, {"hop_aware": True}]),
        st.one_of(st.none(), st.integers(0, 2**32)),
        st.integers(0, 15),
        st.sets(st.integers(0, 15)),
        st.sets(st.integers(0, 15)),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_prefix_equals_picks_with_removal(
        self, switches, seed, verifying, consensus_set, blacklist, picks
    ):
        deployment = TwoLayerDagNetwork(
            config=ProtocolConfig(body_bits=8_000, gamma=3), topology=grid_topology(4, 4), seed=1
        )
        me, topology = 5, deployment.topology
        validators = [deployment.node(me).validator(**switches) for _ in range(2)]
        for validator in validators:
            validator.rng = None if seed is None else random.Random(seed)
            validator.blacklist = blacklist
        got = list(islice(validators[0]._responder_order(verifying, consensus_set), picks))

        remaining = {
            n for n in topology.neighbors(verifying) if n != me and n not in blacklist
        }
        want = []
        while remaining and len(want) < picks:
            want.append(choose_candidate(validators[1], consensus_set, remaining))
            remaining.discard(want[-1])
        # The verifying node itself is the last resort, unless it is the validator.
        if not remaining and len(want) < picks and verifying != me:
            want.append(verifying)
        assert got == want
        if seed is not None:
            assert validators[0].rng.getstate() == validators[1].rng.getstate()


class TestContinuation:
    def test_reply_reaches_on_child_two_frames_under_the_drain(self, small_config, grid9):
        # _drain -> ScheduledCall._process -> run._on_child(reply): no
        # process, waiter or generator frame between the kernel and the walk.
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        validator = deployment.node(8).validator(use_tps=False)
        check, stacks = validator._validate_reply, []

        def spy(*args):
            frames, frame = [], sys._getframe(1)
            while frame is not None and len(frames) < 3:
                frames.append(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(frames)
            return check(*args)

        validator._validate_reply = spy
        run = validator.run(target.origin, target)
        deployment.sim.run()
        assert run.value.success
        assert stacks and all(s == ["_on_child", "_process", "_drain"] for s in stacks)

    def test_handle_returned_at_once_resolves_when_the_run_ends(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = grow_dag(deployment, 10)
        target = workload.blocks_by_slot[0][0]
        sim = deployment.sim
        before = sim.processed_count
        run = deployment.node(8).verify_block(target.origin, target)
        # Nothing has happened yet: the run starts on the next kernel step.
        assert (run.triggered, run.ok, run.value) == (False, True, None)
        assert deployment.traffic.message_count("block_fetch") == 0
        assert sim.step() and sim.processed_count == before + 1
        assert deployment.traffic.message_count("block_fetch") == 1
        while not run.triggered:
            assert sim.step()
        assert run.ok and run.value.success and run.value.finished_at == sim.now
        # The run's end is a kernel event of its own, and the last one.
        assert sim.pending_count > 0
        sim.run()
        outcome = run.value
        events = sim.processed_count - before
        # start + completion, and per request: its delivery, the reply's
        # delivery, the hand-over to the run, and the expiry (a no-op).
        assert outcome.timeouts == 0
        assert events == 2 + 4 * outcome.requests_sent

    def test_exception_in_a_reply_callback_leaves_run_at_once(self, small_config, grid9):
        deployment = TwoLayerDagNetwork(config=small_config, topology=grid9, seed=1)
        workload = SlotSimulation(deployment, validate=True, validation_min_age_slots=2)
        workload.run(4)
        failures = []

        def broken(header, expected_origin):
            failures.append(deployment.sim.now)
            raise RuntimeError("broken check")

        def validator_with_broken_check(node):
            validator = IoTNode.validator(node)
            validator._header_authentic = broken
            return validator

        for node in deployment.nodes.values():
            node.validator = partial(validator_with_broken_check, node)
        with pytest.raises(RuntimeError, match="broken check"):
            workload.run(1, start_slot=4)
        # Raised where it happened — inside slot 4, at the first reply —
        # not parked until the slot boundary's harvest.
        assert len(failures) == 1
        assert deployment.sim.now == failures[0] < 5.0
        assert workload.current_slot == 3

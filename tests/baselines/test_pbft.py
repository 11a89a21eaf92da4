"""Unit tests for the PBFT baseline: chain, replica protocol, cluster."""

import sys

import pytest

from repro.baselines.pbft import replica as replica_module
from repro.baselines.pbft.chain import Blockchain, ChainBlock
from repro.baselines.pbft.cluster import PbftCluster
from repro.baselines.pbft.messages import (
    KIND_COMMIT,
    KIND_PRE_PREPARE,
    KIND_PREPARE,
    Commit,
    PrePrepare,
    Prepare,
    Request,
)
from repro.baselines.pbft.replica import request_digest
from repro.net.topology import grid_topology, ring_topology


class DigestCounter:
    """Counts Python calls of ``ChainBlock.digest`` with ``sys.setprofile``."""

    def __enter__(self):
        self.count = 0
        self._previous = sys.getprofile()
        sys.setprofile(self._on_event)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(self._previous)

    def _on_event(self, frame, event, arg):
        if event == "call" and frame.f_code is ChainBlock.digest.__code__:
            self.count += 1


class TestKeptState:
    """What a replica and its chain keep instead of rebuilding per message."""

    def test_one_digest_per_append(self):
        chain = Blockchain()
        with DigestCounter() as counter:
            for sequence in range(6):
                chain.append(
                    ChainBlock(sequence, 1, b"p%d" % sequence, 100, previous=chain.tip_digest())
                )
        assert counter.count == 6
        # Reference: the head's digest, recomputed from the block itself.
        assert chain.tip_digest() == chain.head.digest()

    def test_one_digest_per_append_on_a_cluster(self):
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=4)
        with DigestCounter() as counter:
            cluster.run_slots(3)
        appended = sum(r.chain.height for r in cluster.replicas.values())
        assert appended == 4 * 12
        assert counter.count == appended
        assert cluster.chains_consistent()

    @pytest.mark.parametrize("previous", [None, b"other", b"p1"])
    def test_wrong_previous_raises_mismatch(self, previous):
        chain = Blockchain()
        first = ChainBlock(0, 1, b"p0", 100, previous=None)
        chain.append(first)
        chain.append(ChainBlock(1, 1, b"p1", 100, previous=first.digest()))
        wrong = previous if previous is None else ChainBlock(0, 1, previous, 100, None).digest()
        with pytest.raises(ValueError, match="previous-hash mismatch at sequence 2"):
            chain.append(ChainBlock(2, 1, b"p2", 100, previous=wrong))
        assert chain.height == 2

    def test_first_block_must_have_no_previous(self):
        chain = Blockchain()
        stray = ChainBlock(0, 1, b"p0", 100, previous=None).digest()
        with pytest.raises(ValueError, match="previous-hash mismatch at sequence 0"):
            chain.append(ChainBlock(0, 1, b"p0", 100, previous=stray))
        assert chain.tip_digest() is None

    def test_one_slot_state_per_view_and_sequence(self, monkeypatch):
        built = []

        class CountedSlotState(replica_module._SlotState):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(replica_module, "_SlotState", CountedSlotState)
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=5)
        cluster.run_slots(3)
        kept = [s for r in cluster.replicas.values() for s in r._slots.values()]
        # Every construction is a kept record: one per (view, sequence)
        # per replica, none built and thrown away.
        assert len(kept) == 4 * 12
        assert len(built) == len(kept)
        assert {id(s) for s in built} == {id(s) for s in kept}
        for replica in cluster.replicas.values():
            assert sorted(replica._slots) == [(0, sequence) for sequence in range(12)]


class TestChain:
    def test_append_links_by_hash(self):
        chain = Blockchain()
        first = ChainBlock(0, 1, b"a", 100, previous=None)
        chain.append(first)
        second = ChainBlock(1, 2, b"b", 100, previous=first.digest())
        chain.append(second)
        assert chain.height == 2
        assert chain.head is second

    def test_sequence_gap_rejected(self):
        chain = Blockchain()
        with pytest.raises(ValueError):
            chain.append(ChainBlock(3, 1, b"a", 100, previous=None))

    def test_wrong_previous_hash_rejected(self):
        chain = Blockchain()
        chain.append(ChainBlock(0, 1, b"a", 100, previous=None))
        bad = ChainBlock(1, 2, b"b", 100, previous=None)
        with pytest.raises(ValueError):
            chain.append(bad)

    def test_size_bits_counts_payload_and_metadata(self):
        chain = Blockchain()
        chain.append(ChainBlock(0, 1, b"a", 1000, previous=None))
        assert chain.size_bits() == 1000 + 640


class TestNormalCase:
    def test_all_replicas_commit_all_requests(self):
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=1)
        cluster.run_slots(4)
        heights = [r.chain.height for r in cluster.replicas.values()]
        assert heights == [16, 16, 16, 16]
        assert cluster.chains_consistent()

    def test_chains_identical_across_replicas(self):
        cluster = PbftCluster(topology=grid_topology(2, 3), payload_bits=4000, seed=2)
        cluster.run_slots(3)
        replicas = list(cluster.replicas.values())
        reference = replicas[0].chain
        for replica in replicas[1:]:
            assert replica.chain.height == reference.height
            for sequence in range(reference.height):
                assert (
                    replica.chain.block_at(sequence).digest()
                    == reference.block_at(sequence).digest()
                )

    def test_every_client_block_committed(self):
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=3)
        cluster.run_slots(2)
        chain = list(cluster.replicas.values())[0].chain
        proposers = [chain.block_at(s).proposer for s in range(chain.height)]
        for node in cluster.node_ids:
            assert proposers.count(node) == 2  # one per slot

    def test_storage_grows_with_slots(self):
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=1)
        cluster.run_slots(2)
        first = cluster.mean_storage_bits()
        cluster.run_slots(2)
        assert cluster.mean_storage_bits() > first

    def test_traffic_includes_three_phases(self):
        cluster = PbftCluster(topology=grid_topology(2, 2), payload_bits=4000, seed=1)
        cluster.run_slots(1)
        ledger = cluster.traffic
        assert ledger.message_count("pbft.pre_prepare") > 0
        assert ledger.message_count("pbft.prepare") > 0
        assert ledger.message_count("pbft.commit") > 0


class TestFaults:
    def test_commits_despite_f_crashed_replicas(self):
        """n=7 tolerates f=2 silent replicas (non-primary)."""
        topology = grid_topology(1, 7)
        cluster = PbftCluster(
            topology=topology, payload_bits=4000, seed=1, crashed={5, 6}
        )
        cluster.run_slots(2, settle_time=8.0)
        live_heights = [r.chain.height for r in cluster.live_replicas()]
        # 5 live clients × 2 slots = 10 requests must commit.
        assert all(h == 10 for h in live_heights)
        assert cluster.chains_consistent()

    def test_crashed_replica_originates_nothing(self):
        cluster = PbftCluster(topology=grid_topology(1, 7), payload_bits=4000, seed=1, crashed={5})
        senders = set()
        cluster.network.add_drop_rule(lambda message, a, b: senders.add(message.sender) and False)
        cluster.run_slots(1, settle_time=8.0)
        assert senders == {0, 1, 2, 3, 4, 6}
        # A phase message goes to every other replica, the crashed one included.
        sent = cluster.replicas[0].interface.multicast(cluster.replicas[0]._peers, "probe", None, 8)
        assert sent.recipient == (1, 2, 3, 4, 5, 6)
        cluster.crash([0])
        cluster.replicas[0]._broadcast("probe", None, 8)
        assert cluster.traffic.message_count("probe") == 6

    def test_view_change_on_crashed_primary(self):
        """With the view-0 primary silent, replicas elect a new one."""
        topology = grid_topology(2, 2)
        primary = sorted(topology.node_ids)[0]
        cluster = PbftCluster(
            topology=topology,
            payload_bits=4000,
            seed=1,
            crashed={primary},
            view_change_timeout=2.0,
        )
        cluster.run_slots(1, settle_time=20.0)
        live = cluster.live_replicas()
        assert all(r.view >= 1 for r in live)
        # The three live clients' requests eventually commit.
        assert min(r.chain.height for r in live) == 3
        assert cluster.chains_consistent()


class TestByzantineGuards:
    """A backup ignores a PRE-PREPARE the view's primary did not send, and
    one whose digest is not its request's: it records no pre-prepare for
    that (view, sequence) and multicasts no PREPARE for it."""

    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("forged_by_primary", [False, True],
                             ids=["non-primary-sender", "digest-mismatch"])
    def test_forged_pre_prepare_is_ignored(self, n, forged_by_primary):
        cluster = PbftCluster(topology=ring_topology(n), payload_bits=4000, seed=n)
        cluster.run_slots(2)
        heights = [r.chain.height for r in cluster.replicas.values()]
        primary_id, target_id, other_id = sorted(cluster.replicas)[:3]
        primary = cluster.replicas[primary_id]
        request = Request(client=target_id, payload_seed=b"forged",
                          payload_bits=4000, timestamp=9.0)
        if forged_by_primary:
            sender = primary_id
            digest = request_digest(Request(client=target_id, payload_seed=b"other",
                                            payload_bits=4000, timestamp=9.0))
        else:
            sender = other_id
            digest = request_digest(request)
        key = (primary.view, primary.next_sequence)
        forged = PrePrepare(view=key[0], sequence=key[1], digest=digest,
                            request=request)
        prepares = cluster.traffic.message_count(KIND_PREPARE)

        cluster.network.interface(sender).send(
            target_id, KIND_PRE_PREPARE, forged, forged.size_bits
        )
        cluster.sim.run()

        state = cluster.replicas[target_id]._slots.get(key)
        assert state is None or state.pre_prepare is None
        assert cluster.traffic.message_count(KIND_PREPARE) == prepares
        assert [r.chain.height for r in cluster.replicas.values()] == heights
        assert cluster.chains_consistent()

    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("votes_first", [False, True],
                             ids=["after-pre-prepare", "before-pre-prepare"])
    def test_mismatched_votes_neither_prepare_nor_execute(self, n, votes_first):
        # Only the target backup sees the primary's PRE-PREPARE, so the
        # only other votes for its (view, sequence) are 2f PREPAREs and
        # 2f COMMITs for another digest.  With the target's own votes
        # they would make 2f + 1 of each if digests were not compared.
        cluster = PbftCluster(topology=ring_topology(n), payload_bits=4000, seed=n)
        cluster.run_slots(2)
        heights = [r.chain.height for r in cluster.replicas.values()]
        primary_id, target_id, *others = sorted(cluster.replicas)
        primary = cluster.replicas[primary_id]
        view, sequence = primary.view, primary.next_sequence
        request = Request(client=target_id, payload_seed=b"honest",
                          payload_bits=4000, timestamp=9.0)
        pre_prepare = PrePrepare(view=view, sequence=sequence,
                                 digest=request_digest(request), request=request)
        wrong = request_digest(Request(client=target_id, payload_seed=b"other",
                                       payload_bits=4000, timestamp=9.0))
        network = cluster.network

        def send_pre_prepare():
            network.interface(primary_id).send(
                target_id, KIND_PRE_PREPARE, pre_prepare, pre_prepare.size_bits
            )

        def send_votes():
            for voter in others[:2 * primary.f]:
                for kind, vote in ((KIND_PREPARE, Prepare), (KIND_COMMIT, Commit)):
                    message = vote(view=view, sequence=sequence, digest=wrong,
                                   replica=voter)
                    network.interface(voter).send(
                        target_id, kind, message, message.size_bits
                    )

        for step in (send_votes, send_pre_prepare) if votes_first else (
            send_pre_prepare, send_votes
        ):
            step()
            cluster.sim.run()

        state = cluster.replicas[target_id]._slots[(view, sequence)]
        assert state.pre_prepare == pre_prepare
        assert state.prepares[pre_prepare.digest.value] == 1 << target_id
        assert pre_prepare.digest.value not in state.commits
        assert not state.sent_commit and not state.executed
        assert [r.chain.height for r in cluster.replicas.values()] == heights

"""Unit tests for the logical DAG."""

import random

import pytest

from repro.core.block import build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.dag import LogicalDag
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=800, gamma=2)


def make_chain(config, origins):
    """Build a chain of blocks, each referencing the previous one.

    ``origins`` is the sequence of block authors; returns (dag, blocks).
    """
    dag = LogicalDag(config.hash_bits)
    blocks = []
    index_per_origin = {}
    previous_digest = None
    for origin in origins:
        index = index_per_origin.get(origin, 0)
        index_per_origin[origin] = index + 1
        digests = {}
        if previous_digest is not None:
            digests[blocks[-1].header.origin] = previous_digest
        block = build_block(
            origin=origin, index=index, time=float(len(blocks)),
            body=make_body(origin, index, config), digests=digests,
            keypair=KeyPair.generate(origin), config=config,
        )
        dag.add_header(block.header)
        blocks.append(block)
        previous_digest = block.digest(config.hash_bits)
    return dag, blocks


class TestStructure:
    def test_chain_edges(self, config):
        dag, blocks = make_chain(config, [1, 2, 3])
        assert dag.children(blocks[0].block_id) == [blocks[1].block_id]
        assert dag.parents(blocks[2].block_id) == [blocks[1].block_id]

    def test_duplicate_insert_rejected(self, config):
        dag, blocks = make_chain(config, [1])
        with pytest.raises(ValueError):
            dag.add_header(blocks[0].header)

    def test_out_of_order_insertion_links(self, config):
        """A child inserted before its parent still gets the edge."""
        full_dag, blocks = make_chain(config, [1, 2, 3])
        dag = LogicalDag(config.hash_bits)
        dag.add_header(blocks[2].header)
        dag.add_header(blocks[0].header)
        dag.add_header(blocks[1].header)
        assert dag.children(blocks[0].block_id) == [blocks[1].block_id]
        assert dag.children(blocks[1].block_id) == [blocks[2].block_id]

    def test_acyclic(self, config):
        dag, _ = make_chain(config, [1, 2, 3, 1, 2])
        assert dag.is_acyclic()

    def test_edge_count(self, config):
        dag, _ = make_chain(config, [1, 2, 3])
        assert dag.edge_count() == 2


class TestDescendants:
    def test_descendants_of_head(self, config, descendants):
        dag, blocks = make_chain(config, [1, 2, 3, 4])
        assert descendants(dag, blocks[0].block_id) == {b.block_id for b in blocks[1:]}

    def test_descendants_of_tip_empty(self, config, descendants):
        dag, blocks = make_chain(config, [1, 2, 3])
        assert descendants(dag, blocks[-1].block_id) == set()


class TestConsensusOracle:
    def test_distinct_origins_on_chain(self, config, max_distinct_origins_on_path):
        dag, blocks = make_chain(config, [1, 2, 3, 4, 5])
        assert max_distinct_origins_on_path(dag, blocks[0].block_id) == 5

    def test_micro_loop_counts_each_origin_once(self, config, max_distinct_origins_on_path):
        """A 1-2-1-2-1 alternation has only two distinct origins."""
        dag, blocks = make_chain(config, [1, 2, 1, 2, 1])
        assert max_distinct_origins_on_path(dag, blocks[0].block_id) == 2

    def test_excluded_origins_block_paths(self, config, max_distinct_origins_on_path):
        dag, blocks = make_chain(config, [1, 2, 3, 4])
        # Excluding node 2 cuts the only path after block 0.
        assert max_distinct_origins_on_path(
            dag, blocks[0].block_id, exclude_origins={2}
        ) == 1

    def test_consensus_feasible_threshold(self, config, consensus_feasible):
        dag, blocks = make_chain(config, [1, 2, 3])
        assert consensus_feasible(dag, blocks[0].block_id, gamma=2)
        assert not consensus_feasible(dag, blocks[0].block_id, gamma=3)

    def test_deep_chain_no_recursion_error(self, config, max_distinct_origins_on_path):
        """Thousand-block chains must not hit Python's recursion limit."""
        origins = [1 + (i % 2) for i in range(2000)]
        dag, blocks = make_chain(config, origins)
        assert max_distinct_origins_on_path(dag, blocks[0].block_id) == 2


class TestEdgeOrder:
    """The oracle fixtures (root ``conftest.py``) walk the raw child
    lists, so the order edges are appended in is behaviour.  The reference
    links one edge at a time through both indexes, as ``add_header`` once
    did."""

    @staticmethod
    def reference_edges(headers, hash_bits):
        by_digest, children, parents, wanted = {}, {}, {}, {}

        def link(parent, child):
            children[parent].append(child)
            parents[child].append(parent)

        for header in headers:
            block_id = header.block_id
            digest = header.digest(hash_bits).value
            by_digest[digest] = block_id
            children.setdefault(block_id, [])
            parents.setdefault(block_id, [])
            for parent_digest in header.digests.values():
                parent_id = by_digest.get(parent_digest.value)
                if parent_id is not None:
                    link(parent_id, block_id)
                else:
                    wanted.setdefault(parent_digest.value, []).append(block_id)
            for child_id in wanted.pop(digest, []):
                link(block_id, child_id)
        return children, parents

    @pytest.mark.parametrize("seed", range(8))
    def test_any_insertion_order_links_like_the_reference(self, config, seed):
        rng = random.Random(seed)
        headers, latest = [], {}
        for slot in range(6):
            for origin in rng.sample(range(5), 5):
                # Reference up to three other nodes' latest blocks, newest
                # map order shuffled, plus one digest that never resolves.
                known = [o for o in latest if o != origin]
                digests = {o: latest[o] for o in rng.sample(known, min(3, len(known)))}
                if origin in latest:
                    digests[origin] = latest[origin]
                if rng.random() < 0.2:
                    digests[99] = hash_bytes(b"never inserted %d" % len(headers))
                block = build_block(
                    origin=origin, index=slot, time=float(slot),
                    body=make_body(origin, slot, config), digests=digests,
                    keypair=KeyPair.generate(origin), config=config,
                )
                latest[origin] = block.digest(config.hash_bits)
                headers.append(block.header)
        rng.shuffle(headers)

        dag = LogicalDag(config.hash_bits)
        for header in headers:
            dag.add_header(header)
        children, parents = self.reference_edges(headers, config.hash_bits)
        assert dag._children == children
        assert dag._parents == parents
        assert dag.edge_count() == sum(len(c) for c in children.values()) > 0
        assert dag.is_acyclic()

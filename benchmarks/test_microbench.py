"""Micro-benchmarks of the hot primitives (classic pytest-benchmark).

Not paper figures — these track the implementation's own performance:
block building, Merkle hashing, header identity, DAG insertion, WPS
scoring, routing, kernel dispatch.  End-to-end speed is
``benchmarks/perf/``'s; this file is the micro level, and the plugin
keeps its history and comparison (``--benchmark-only
--benchmark-autosave``, then ``--benchmark-compare``; see
docs/performance.md).  Every case asserts what it measured.
"""

import dataclasses
import random

import pytest

from repro.core.block import build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.dag import LogicalDag
from repro.core.pop.wps import wps_order
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.net.routing import RoutingTable
from repro.net.topology import sequential_geometric_topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

CONFIG = ProtocolConfig(body_bits=80_000, gamma=8)
KEYPAIR = KeyPair.generate(1)

#: One-shot calls per kernel case.
KERNEL_EVENTS = 5_000


@pytest.fixture(scope="module")
def headers():
    """64 signed headers of one origin, each with an 8-entry Δ."""
    return [
        build_block(
            origin=1, index=i, time=float(i), body=make_body(1, i, CONFIG),
            digests={j: hash_bytes(f"d{i}:{j}".encode()) for j in range(8)},
            keypair=KEYPAIR, config=CONFIG,
        ).header
        for i in range(64)
    ]


def test_bench_block_build(benchmark):
    digests = {j: hash_bytes(f"d{j}".encode()) for j in range(8)}

    def build():
        return build_block(
            origin=1, index=0, time=0.0, body=make_body(1, 0, CONFIG),
            digests=digests, keypair=KEYPAIR, config=CONFIG,
        )

    block = benchmark(build)
    assert block.verify_body_root()


def test_bench_merkle_tree(benchmark):
    chunks = [f"chunk-{i}".encode() * 100 for i in range(64)]
    tree = benchmark(MerkleTree, chunks)
    assert tree.leaf_count == 64


def test_bench_header_digest(benchmark):
    block = build_block(
        origin=1, index=0, time=0.0, body=make_body(1, 0, CONFIG),
        digests={}, keypair=KEYPAIR, config=CONFIG,
    )
    digest = benchmark(block.header.digest)
    assert digest.bits == 256


def test_bench_header_digest_cold(benchmark, headers):
    warm = [header.digest() for header in headers]

    def cold_copies():
        # A dataclasses.replace() copy carries none of the memo slots
        # (BlockHeader's class comment), whatever slots exist.
        copies = [dataclasses.replace(header) for header in headers]
        assert not any(
            name.startswith("_hdr_") for copy in copies for name in vars(copy)
        )
        return (copies,), {}

    def digest_all(copies):
        return [copy.digest() for copy in copies]

    assert benchmark.pedantic(digest_all, setup=cold_copies, rounds=200) == warm


def test_bench_header_verify_signature(benchmark, headers):
    def verify_all(public):
        return [header.verify_signature(public) for header in headers]

    assert all(benchmark(verify_all, KEYPAIR.public))
    assert not any(verify_all(KeyPair.generate(2).public))


def test_bench_dag_insertion(benchmark):
    blocks = []
    previous = None
    for i in range(200):
        digests = {1: previous.digest()} if previous else {}
        block = build_block(
            origin=1, index=i, time=float(i), body=make_body(1, i, CONFIG),
            digests=digests, keypair=KEYPAIR, config=CONFIG,
        )
        blocks.append(block)
        previous = block

    def insert_all():
        dag = LogicalDag()
        for block in blocks:
            dag.add_header(block.header)
        return dag

    dag = benchmark(insert_all)
    assert len(dag) == 200


def test_bench_wps_selection(benchmark):
    topology = sequential_geometric_topology(
        node_count=50, streams=RandomStreams(1)
    )
    rng = random.Random(0)
    consensus = set(range(10))
    candidates = sorted(topology.neighbors(0)) or [1]

    chosen = benchmark(lambda: next(wps_order(consensus, candidates, topology, rng)))
    assert chosen in set(candidates)


def test_bench_routing_table(benchmark):
    topology = sequential_geometric_topology(
        node_count=50, streams=RandomStreams(2)
    )
    table = benchmark(RoutingTable, topology)
    assert table.path(0, 49)[-1] == 49


def test_bench_kernel_callbacks(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        fired = [0]

        def tick():
            fired[0] += 1

        for i in range(KERNEL_EVENTS):
            sim.call_at(float(i % 17), tick)
        sim.run()
        return fired[0], sim.processed_count

    assert benchmark(schedule_and_drain) == (KERNEL_EVENTS, KERNEL_EVENTS)

"""The metric names, units and directions ``BENCHMARK.json`` lists.

One table, so that the harness, the smoke test and ``BENCHMARK.json``
cannot drift apart: the test asserts the file equals these lists.
"""

from __future__ import annotations

from typing import List, Tuple

from layers import LAYERS

#: (name, unit, better, bound).  Host rows every workload reports.
#: ``wall_s``/``cpu_s``: the timed region; ``setup_s``: child start to
#: ready; ``peak_rss_mb``: ``ru_maxrss`` of the process doing the work.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: Rows that are exact under a seed (simulated time and ledger sizes).
#: They are end-to-end quantities a user sees, but only some workloads
#: have them, so the result line carries them with the per-layer set.
SIMULATED: List[Tuple[str, str, str]] = [
    ("failed_ratio", "ratio", "lower"),
    ("pop_latency_sim_ms_p50", "ms", "lower"),
    ("pop_latency_sim_ms_p99", "ms", "lower"),
    ("storage_mb_per_node", "MB", "lower"),
    ("traffic_mbit_per_node", "Mbit", "lower"),
]

#: Exact counters: equal on every run of one seed.
COUNTERS: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.cancelled", "count", "lower"),
    ("sim.events_per_op", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.tx_mbit", "Mbit", "lower"),
    ("net.msgs_per_op", "count", "lower"),
    ("crypto.hash_calls", "count", "lower"),
    ("core.block.blocks_built", "count", "higher"),
    ("core.dag.headers", "count", "higher"),
    ("core.dag.edges", "count", "higher"),
    ("core.dag.store_mb", "MB", "lower"),
    ("core.pop.validations", "count", "higher"),
    ("core.pop.requests_per_validation", "count", "lower"),
    ("core.pop.tps_hit_ratio", "ratio", "higher"),
    ("core.pop.timeouts", "count", "lower"),
    ("core.pop.rollbacks", "count", "lower"),
    ("core.pop.invalid_replies", "count", "lower"),
    ("scenario.fault_events", "count", "higher"),
    ("baselines.pbft.msgs_per_block", "count", "lower"),
    ("baselines.iota.msgs_per_block", "count", "lower"),
    ("baselines.pbft.storage_mb_per_node", "MB", "lower"),
    ("baselines.iota.storage_mb_per_node", "MB", "lower"),
    ("telemetry.records", "count", "lower"),
    ("telemetry.stream_kb", "KB", "lower"),
    ("campaign.cells", "count", "higher"),
    ("campaign.cache_hits", "count", "higher"),
]

#: Host timings from benchmark spans and paired runs.
TIMINGS: List[Tuple[str, str, str]] = [
    ("scenario.build_s", "s", "lower"),
    ("scenario.advance_s", "s", "lower"),
    ("scenario.finalize_s", "s", "lower"),
    ("scenario.collect_s", "s", "lower"),
    ("core.node.slot_ms_p50", "ms", "lower"),
    ("core.node.slot_ms_p95", "ms", "lower"),
    ("core.node.slot_growth", "ratio", "lower"),
    ("core.pop.host_ms_per_validation", "ms", "lower"),
    ("baselines.pbft.wall_s", "s", "lower"),
    ("baselines.iota.wall_s", "s", "lower"),
    ("campaign.cell_overhead_ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("observe_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.load_avg", "load", "lower"),
    ("bench.host_slowdown", "ratio", "lower"),
]

LAYER_ROWS: List[Tuple[str, str, str]] = [
    row
    for layer in LAYERS
    for row in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
]

#: Everything a ``--trace 1`` result line carries, in order.
PER_LAYER: List[Tuple[str, str, str]] = LAYER_ROWS + COUNTERS + TIMINGS + SIMULATED

#: Rows the correctness gate requires equal across runs of one seed.
EXACT_NAMES = (
    [name for name, _, _ in COUNTERS + SIMULATED]
    + [f"{layer}.calls" for layer in LAYERS]
)

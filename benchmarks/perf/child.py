"""One rep of one workload in a fresh process; prints one JSON line.

``run.py`` starts this file once per rep so that every rep pays its own
interpreter start, imports and set-up, and no rep inherits another's
heap.  Untraced it times the workload's region with the profiler off,
reading the host's speed between its pieces (``TimedRegion``); with
``--traced`` it runs the same region under :mod:`cProfile` with the
benchmark's own spans around each call into the program, and adds the
per-layer table and the counters.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

import hostspeed
import layers

# The program is not installed; it lives beside this directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class TimedRegion:
    """Wall and CPU seconds of the timed region, piece by piece.

    The workload calls ``checkpoint()`` between two calls into the
    program.  When the open piece has run for ``GAP_S`` the clocks stop,
    the reference loop gives a reading, and a new piece opens; each
    piece's seconds are divided by the slowdown its two readings show.
    A rep of ``dag-paper`` (14 s) is nine pieces, one of ``dag-build``
    two.  With readings at the two ends of a rep only, two sets of ten
    runs of ``dag-paper`` spread 6.7% and 12.7% of their median; piece
    by piece, 2.6% and 3.4%.
    """

    GAP_S = 1.5

    def __init__(self, samples: int, pieces: bool) -> None:
        self.samples = samples
        self.pieces = pieces
        self.wall_s = self.cpu_s = 0.0                # as the clocks read
        self.scaled_wall_s = self.scaled_cpu_s = 0.0  # at the reference speed
        self.reading = hostspeed.loop_s(samples)
        self.first_slowdown = hostspeed.slowdown(self.reading)

    def open(self) -> None:
        self._cpu, self._wall = cpu_seconds(), time.perf_counter()

    def close(self) -> None:
        wall = time.perf_counter() - self._wall
        cpu = cpu_seconds() - self._cpu
        before, self.reading = self.reading, hostspeed.loop_s(self.samples)
        slowdown = hostspeed.slowdown(before, self.reading)
        self.wall_s += wall
        self.cpu_s += cpu
        self.scaled_wall_s += wall / slowdown
        self.scaled_cpu_s += cpu / slowdown

    def checkpoint(self) -> None:
        if self.pieces and time.perf_counter() - self._wall >= self.GAP_S:
            self.close()
            self.open()


def layer_metrics(profile: cProfile.Profile) -> Dict[str, Any]:
    table = layers.LayerTable(pstats.Stats(profile))
    metrics: Dict[str, Any] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = table.self_s[layer]
        metrics[f"{layer}.share"] = table.share(layer)
        metrics[f"{layer}.calls"] = table.calls[layer]
    metrics["crypto.hash_calls"] = table.calls_matching(
        "/repro/crypto/hashing.py", ("hash_bytes", "hash_fields")
    )
    metrics["scenario.finalize_s"] = table.cumulative_s(
        "/repro/scenario/backends.py", "finalize"
    )
    return metrics


def span_metrics(workload: workloads.Workload) -> Dict[str, float]:
    """Host timings from the benchmark's own spans (profiler on)."""
    spans = workload.spans
    metrics = {
        "scenario.build_s": spans.total("build"),
        "scenario.advance_s": spans.total("advance"),
        "baselines.pbft.wall_s": spans.total("pbft"),
        "baselines.iota.wall_s": spans.total("iota"),
    }
    slots = [1000.0 * s for s in spans.durations("advance")]
    if len(slots) >= 8:
        # One span per slot.  Slots before |V| start no validation;
        # growth compares the first and last quarter of those that do.
        nodes = workload.runner.spec.node_count
        active = slots[nodes:] if workload.runner.spec.workload.validate else slots
        quarter = max(1, len(active) // 4)
        metrics["core.node.slot_ms_p50"] = workloads.percentile(slots, 0.50)
        metrics["core.node.slot_ms_p95"] = workloads.percentile(slots, 0.95)
        metrics["core.node.slot_growth"] = (
            sum(active[-quarter:]) / sum(active[:quarter])
        )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory of this rep (created, left for the parent)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.quick, args.work, args.traced
    )
    workload.setup()
    document: Dict[str, Any] = {"ready_at": time.perf_counter()}
    # --quick checks structure, not speed: one loop a reading.  Under the
    # profiler the loop would be charged to a layer, so the traced pass
    # is one piece.
    region = TimedRegion(1 if args.quick else hostspeed.SAMPLES, not args.traced)
    document["setup_slowdown"] = region.first_slowdown
    if args.setup_only:
        print(json.dumps(document))
        return 0

    workload.checkpoint = region.checkpoint
    profile = cProfile.Profile() if args.traced else None
    region.open()
    if profile is not None:
        profile.enable()
    workload.run()
    if profile is not None:
        profile.disable()
    region.close()
    wall_s = region.wall_s
    rss_mb = workload.peak_rss_mb()
    workload.after()

    document.update(workload.facts())
    document["host"] = {
        "wall_s": wall_s, "cpu_s": region.cpu_s, "peak_rss_mb": rss_mb,
    }
    document["scaled"] = {"wall_s": region.scaled_wall_s, "cpu_s": region.scaled_cpu_s}
    if profile is not None:
        traced = layer_metrics(profile)
        traced.update(span_metrics(workload))
        traced.update(workload.counters())
        finish_s = workload.spans.total("finish")
        if finish_s:
            traced["scenario.collect_s"] = finish_s - traced["scenario.finalize_s"]
        validations = traced.get("core.pop.validations", 0)
        if validations:
            traced["core.pop.host_ms_per_validation"] = 1000.0 * wall_s / validations
        document["traced"] = traced
        document["spans"] = workload.spans.records
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())

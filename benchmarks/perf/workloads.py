"""The seven workloads: literal specs, set-up, timed region, facts.

Every workload drives the program through its public entry points only
(``repro.scenario`` specs and runner, ``IoTNode.verify_block``,
``repro.campaign.spec``, ``repro.telemetry`` recorders and
``python -m repro`` subprocesses) and owns its sizes as literals here.

All topologies are fixed lattices.  The paper's sequential-geometric
placement draws the graph from the seed, and over 24 seeds that moved
the edge count from 273 to 695 and the wall time of one 50-node run by
2x — a spread no regression bound can sit above.  On a lattice the seed
still draws jitter, generation order, validation targets, coalition
members and link losses, but the amount of work stays within a few
percent, so a run at one seed is comparable to a run at another.

Imported by ``child.py`` only, after it has put ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.campaign.spec import CampaignSpec, replicate_seeds
from repro.faults import (
    HEAL,
    LINK_DEGRADE,
    NODE_CRASH,
    NODE_REJOIN,
    PARTITION,
    FaultEvent,
    FaultScheduleSpec,
)
from repro.scenario import (
    AdversarySpec,
    ProtocolSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.telemetry import SpanRecorder, TelemetryRecorder

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class Spans:
    """Benchmark-owned spans: (name, start, end, parent index), in memory."""

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][2] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``, in order."""
        return [end - start for n, start, end, _ in self.records
                if n == name and end is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def grid(rows: int, cols: int) -> TopologySpec:
    """A ``rows`` x ``cols`` lattice whose radio reaches two cells away."""
    return TopologySpec(
        kind="grid", rows=rows, cols=cols, spacing=40.0, comm_range=90.0
    )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def text_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def pop_rows(outcomes: Sequence[Any], pending: int) -> Dict[str, float]:
    """The simulated PoP rows: exact under a seed."""
    started = len(outcomes) + pending
    negative = sum(1 for o in outcomes if not o.success)
    rows = {"failed_ratio": (negative + pending) / started if started else 0.0}
    if outcomes:
        latencies = [(o.finished_at - o.started_at) * 1000.0 for o in outcomes]
        rows["pop_latency_sim_ms_p50"] = percentile(latencies, 0.50)
        rows["pop_latency_sim_ms_p99"] = percentile(latencies, 0.99)
    return rows


def pop_counters(outcomes: Sequence[Any]) -> Dict[str, float]:
    """``core.pop.*`` counters summed over finished validations."""
    requests = sum(o.requests_sent for o in outcomes)
    cached = sum(o.tps_steps for o in outcomes)
    fetched = sum(o.headers_retrieved for o in outcomes)
    return {
        "core.pop.validations": len(outcomes),
        "core.pop.requests_per_validation":
            requests / len(outcomes) if outcomes else 0.0,
        "core.pop.tps_hit_ratio":
            cached / (cached + fetched) if cached + fetched else 0.0,
        "core.pop.timeouts": sum(o.timeouts for o in outcomes),
        "core.pop.rollbacks": sum(o.rollbacks for o in outcomes),
        "core.pop.invalid_replies": sum(o.invalid_replies for o in outcomes),
    }


def substrate_counters(sim: Any, traffic: Any, ops: int) -> Dict[str, float]:
    """``sim.*`` and ``net.*`` counters of one deployment's kernel and ledger."""
    messages = sum(traffic.message_counts().values())
    return {
        "sim.events": sim.processed_count,
        "sim.cancelled": sim.cancelled_count,
        "sim.events_per_op": sim.processed_count / ops if ops else 0.0,
        "net.messages": messages,
        "net.tx_mbit": sum(traffic.snapshot_tx().values()) / 1e6,
        "net.msgs_per_op": messages / ops if ops else 0.0,
    }


def dag_counters(deployment: Any) -> Dict[str, float]:
    """``core.dag.*`` counters of a 2LDAG deployment."""
    dag = deployment.dag
    stored_bits = sum(
        node.store.size_bits(deployment.config)
        for node in deployment.nodes.values()
    )
    return {
        "core.dag.headers": len(dag),
        "core.dag.edges": sum(len(dag.parents(b)) for b in dag.block_ids()),
        "core.dag.store_mb": stored_bits / 8e6,
    }


class Workload:
    """One workload: ``setup()`` until ready, ``run()`` timed, then facts."""

    name = ""

    def __init__(self, seed: int, quick: bool, work_dir: Path, traced: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir
        self.traced = traced
        self.spans = Spans()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Called between two calls into the program inside ``run()``.

        ``child.py`` puts its ``TimedRegion.checkpoint`` here, which may
        stop the clocks and read the host's speed.
        """

    def after(self) -> None:
        """Untimed follow-up measurements (paired runs, start-up probes)."""

    def facts(self) -> Dict[str, Any]:
        """``digest``, ``ops``, ``failed``, ``sim`` rows, ``sizes``, ``extra``."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Exact per-layer counters read through public accessors."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the 2LDAG scenario workloads ------------------------------------------------

class DagPaper(Workload):
    """The paper-scale run: every node builds and validates every slot."""

    name = "dag-paper"
    validate = True

    def spec(self) -> ScenarioSpec:
        rows, cols, slots, gamma = (4, 4, 32, 5) if self.quick else (5, 10, 200, 17)
        quarter = slots // 4
        return ScenarioSpec(
            name=self.name,
            protocol=ProtocolSpec.paper(gamma=gamma, body_mb=0.5),
            topology=grid(rows, cols),
            workload=WorkloadSpec(
                slots=slots,
                validate=self.validate,
                sample_slots=tuple(quarter * k for k in (1, 2, 3, 4)),
            ),
            seed=self.seed,
        )

    def setup(self) -> None:
        with self.spans.span("build"):
            self.runner = ScenarioRunner(self.spec()).build()

    def run(self) -> None:
        runner = self.runner
        # One call and one span per slot: the 2LDAG backend drives slot
        # by slot whoever asks, so the digest equals one finish()'s.
        for slot in range(1, runner.spec.workload.slots + 1):
            with self.spans.span("advance"):
                runner.advance_to(slot)
            self.checkpoint()
        with self.spans.span("finish"):
            self.result = runner.finish()

    def facts(self) -> Dict[str, Any]:
        result, workload = self.result, self.runner.workload
        outcomes = workload.completed_outcomes()
        pending = workload.pending_validations
        negative = sum(1 for o in outcomes if not o.success)
        sim_rows = {
            "storage_mb_per_node": result.storage_mb[-1],
            "traffic_mbit_per_node": result.traffic_mbit[-1],
            **pop_rows(outcomes, pending),
        }
        return {
            "digest": result.trace_sha256,
            "ops": result.total_blocks + len(outcomes) + pending,
            "failed": self.failed_operations(negative, pending),
            "sim": sim_rows,
            "sizes": {
                "nodes": result.spec.node_count,
                "slots": result.spec.workload.slots,
                "blocks": result.total_blocks,
                "validations": len(outcomes),
            },
            "extra": {},
        }

    def failed_operations(self, negative: int, pending: int) -> int:
        # Every block here is honest and the network whole, so a
        # validation that does not reach consensus is a wrong answer.
        return negative + pending

    def counters(self) -> Dict[str, float]:
        deployment = self.runner.deployment
        outcomes = self.runner.workload.completed_outcomes()
        ops = self.result.total_blocks + len(outcomes)
        engine = self.runner.fault_engine
        return {
            **substrate_counters(deployment.sim, deployment.traffic, ops),
            **dag_counters(deployment),
            **pop_counters(outcomes),
            "core.block.blocks_built": self.result.total_blocks,
            "scenario.fault_events": len(engine.applied) if engine else 0,
        }


class DagBuild(DagPaper):
    """The write path alone: same ledger, no validations."""

    name = "dag-build"
    validate = False


def fault_schedule(cols: int, slots: int) -> FaultScheduleSpec:
    """Degrade, crash a block, cut off a corner, then recover everything.

    The shape of the ``stress`` preset, scaled down where its cost is
    decided by a few runaway validations: the crash takes a 2 x 2 block
    (not a sixth of the nodes in id order, which nearly bisects a
    lattice) and the partition isolates three corner nodes for an
    eighth of the run (not half the network for a quarter).  A validator
    cut off from most of its paths rolls back through every one it
    knows; with the preset a handful of those doubled the event count
    from one seed to the next, with this schedule it moves by 4%.
    """
    crashed = (3 * cols - 2, 3 * cols - 1, 4 * cols - 2, 4 * cols - 1)
    corner = (0, 1, cols)
    recover = (3 * slots) // 4
    return FaultScheduleSpec(events=(
        FaultEvent(kind=LINK_DEGRADE, slot=slots // 4, loss=0.02,
                   extra_latency=0.001),
        FaultEvent(kind=NODE_CRASH, slot=slots // 3, nodes=crashed),
        FaultEvent(kind=PARTITION, slot=slots // 2, groups=(corner,)),
        FaultEvent(kind=HEAL, slot=(5 * slots) // 8),
        FaultEvent(kind=NODE_REJOIN, slot=recover, nodes=crashed),
        FaultEvent(kind=LINK_DEGRADE, slot=recover),
    ))


class DagFaults(DagPaper):
    """A faulted run, plain (timed) and then observed by both recorders."""

    name = "dag-faults"

    def spec(self) -> ScenarioSpec:
        rows, cols, slots, gamma = (4, 4, 24, 4) if self.quick else (5, 6, 80, 8)
        return ScenarioSpec(
            name=self.name,
            protocol=ProtocolSpec.paper(gamma=gamma, body_mb=0.1),
            topology=grid(rows, cols),
            workload=WorkloadSpec(
                slots=slots,
                validate=True,
                run_until_quiet=True,
                faults=fault_schedule(cols, slots),
            ),
            seed=self.seed,
        )

    def observed_runner(self) -> ScenarioRunner:
        stream_dir = self.work_dir / "telemetry"
        self.telemetry = TelemetryRecorder(stream_dir)
        self.span_recorder = SpanRecorder(stream_dir, sample=0.25)
        return ScenarioRunner(
            self.spec(), telemetry=self.telemetry, spans=self.span_recorder
        )

    def setup(self) -> None:
        with self.spans.span("build"):
            # The traced pass profiles the observed run, so that the
            # recorders' own layers show in the table.
            runner = self.observed_runner() if self.traced else ScenarioRunner(self.spec())
            self.runner = runner.build()

    def after(self) -> None:
        if not self.traced:
            with self.spans.span("observed"):
                self.observed = self.observed_runner().run()

    def facts(self) -> Dict[str, Any]:
        facts = super().facts()
        if not self.traced:
            facts["extra"] = {
                "observe_ratio": self.spans.total("observed") / (
                    self.spans.total("advance") + self.spans.total("finish")
                ),
                "observed_digest": self.observed.trace_sha256,
            }
        return facts

    def failed_operations(self, negative: int, pending: int) -> int:
        # With nodes down and links cut, "not verifiable now" is the
        # answer the protocol prescribes; only a validation that never
        # resolves is a failure.  The negative share is ``failed_ratio``.
        return pending

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        streams = list((self.work_dir / "telemetry").glob("*"))
        counters["telemetry.records"] = (
            self.telemetry.records_written + self.span_recorder.records_written
        )
        counters["telemetry.stream_kb"] = sum(p.stat().st_size for p in streams) / 1024.0
        return counters


class PopAudit(Workload):
    """On-demand audits of old blocks under a silent coalition."""

    name = "pop-audit"
    in_flight = 20

    def setup(self) -> None:
        rows, cols, slots, gamma, silent, self.probes = (
            (4, 5, 30, 6, 3, 160) if self.quick else (5, 10, 70, 17, 10, 2400)
        )
        spec = ScenarioSpec(
            name=self.name,
            protocol=ProtocolSpec.paper(gamma=gamma, body_mb=0.5, reply_timeout=0.02),
            topology=grid(rows, cols),
            # One block a slot from every node.  With the ``random-1-2``
            # period the seed drew how many nodes take which period, and
            # with it the ledger's size (3,250-4,150 blocks), set-up time
            # and memory; ten seeds spread 15% in simulated events, 9% so.
            workload=WorkloadSpec(slots=slots),
            adversaries=(AdversarySpec(kind="silent", count=silent),),
            per_hop_latency=1e-4,
            seed=self.seed,
        )
        with self.spans.span("build"):
            self.runner = ScenarioRunner(spec).build()
        with self.spans.span("advance"):
            self.runner.advance_to(slots)
        deployment, workload = self.runner.deployment, self.runner.workload
        self.honest = deployment.honest_ids
        honest = set(self.honest)
        self.targets = [
            block
            for slot in range((2 * slots) // 5)
            for block in workload.blocks_by_slot.get(slot, [])
            if block.origin in honest
        ]
        # Drawn here, so that the timed region holds only program calls.
        rng = random.Random(self.seed)
        self.plan = []
        for _ in range(self.probes):
            target = rng.choice(self.targets)
            self.plan.append(
                (rng.choice([n for n in self.honest if n != target.origin]), target)
            )
        self.processes: List[Tuple[int, Any, Any]] = []

    def run(self) -> None:
        deployment = self.runner.deployment
        for start in range(0, len(self.plan), self.in_flight):
            with self.spans.span("batch"):
                for validator, target in self.plan[start:start + self.in_flight]:
                    process = deployment.node(validator).verify_block(
                        target.origin, target, fetch_body=True
                    )
                    self.processes.append((validator, target, process))
                deployment.sim.run()
            self.checkpoint()

    def outcomes(self) -> List[Any]:
        return [p.value for _, _, p in self.processes if p.triggered and p.ok]

    def facts(self) -> Dict[str, Any]:
        deployment = self.runner.deployment
        outcomes = self.outcomes()
        pending = len(self.processes) - len(outcomes)
        lines = [
            f"{validator} {target} "
            + (
                f"{p.value.success} {p.value.requests_sent} {p.value.timeouts} "
                f"{p.value.rollbacks} {p.value.finished_at!r}"
                if p.triggered and p.ok else "unresolved"
            )
            for validator, target, p in self.processes
        ]
        lines.append(f"events {deployment.sim.processed_count}")
        sample = self.runner.backend.sample()
        return {
            "digest": text_digest(lines),
            "ops": len(self.processes),
            "failed": sum(1 for o in outcomes if not o.success) + pending,
            "sim": {
                "storage_mb_per_node": sample["storage_mb"],
                "traffic_mbit_per_node": sample["traffic_mbit"],
                **pop_rows(outcomes, pending),
            },
            "sizes": {
                "nodes": self.runner.spec.node_count,
                "ledger_slots": self.runner.spec.workload.slots,
                "ledger_blocks": self.runner.workload.total_blocks(),
                "audits": len(self.processes),
                "targets": len(self.targets),
            },
            "extra": {},
        }

    def counters(self) -> Dict[str, float]:
        deployment = self.runner.deployment
        outcomes = self.outcomes()
        return {
            **substrate_counters(deployment.sim, deployment.traffic, len(outcomes)),
            **dag_counters(deployment),
            **pop_counters(outcomes),
            "core.block.blocks_built": self.runner.workload.total_blocks(),
        }


# -- the comparison ledgers -------------------------------------------------------

class Baselines(Workload):
    """One spec on PBFT, then on the IOTA tangle: the shared substrate."""

    name = "baselines"
    backends = ("pbft", "iota")

    def setup(self) -> None:
        rows, cols, slots = (3, 3, 6) if self.quick else (4, 4, 24)
        self.runners: Dict[str, ScenarioRunner] = {}
        self.results: Dict[str, Any] = {}
        for backend in self.backends:
            spec = ScenarioSpec(
                name=f"{self.name}-{backend}",
                backend=backend,
                protocol=ProtocolSpec.paper(gamma=3, body_mb=0.1),
                topology=grid(rows, cols),
                workload=WorkloadSpec(slots=slots),
                seed=self.seed,
            )
            with self.spans.span("build"):
                self.runners[backend] = ScenarioRunner(spec).build()

    def run(self) -> None:
        for backend, runner in self.runners.items():
            with self.spans.span(backend):
                self.results[backend] = runner.finish()
            self.checkpoint()

    def expected_blocks(self) -> int:
        spec = self.runners["pbft"].spec
        return spec.node_count * spec.workload.slots

    def facts(self) -> Dict[str, Any]:
        blocks = {b: r.total_blocks for b, r in self.results.items()}
        expected = self.expected_blocks()
        return {
            "digest": text_digest(
                [f"{b} {r.trace_sha256}" for b, r in self.results.items()]
            ),
            "ops": expected * len(self.backends),
            "failed": sum(expected - count for count in blocks.values()),
            "sim": {},
            "sizes": {
                "nodes": self.runners["pbft"].spec.node_count,
                "slots": self.runners["pbft"].spec.workload.slots,
                **{f"{b}_blocks": count for b, count in blocks.items()},
            },
            "extra": {},
        }

    def counters(self) -> Dict[str, float]:
        ledgers = {
            "pbft": self.runners["pbft"].backend.cluster,
            "iota": self.runners["iota"].backend.network,
        }
        ops = sum(r.total_blocks for r in self.results.values())
        totals: Dict[str, float] = {}
        for backend, ledger in ledgers.items():
            part = substrate_counters(ledger.sim, ledger.traffic, ops)
            for key, value in part.items():
                totals[key] = totals.get(key, 0.0) + value
            result = self.results[backend]
            totals[f"baselines.{backend}.msgs_per_block"] = (
                part["net.messages"] / result.total_blocks
            )
            totals[f"baselines.{backend}.storage_mb_per_node"] = result.storage_mb[-1]
        return totals


# -- the campaign engine, through the command line --------------------------------

def cli_env() -> Dict[str, str]:
    """The environment of a ``python -m repro`` launch (``run.py`` cleaned it)."""
    return {**os.environ, "PYTHONPATH": str(SRC_DIR)}


def launch_cli(argv: Sequence[str]) -> Tuple[str, float]:
    """Run ``python -m repro argv`` to its end: (stdout, peak RSS in MB)."""
    read_end, write_end = os.pipe()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], stdout=write_end, env=cli_env()
    )
    os.close(write_end)
    with open(read_end, encoding="utf-8") as pipe:
        output = pipe.read()
    # wait4, not Popen.wait: it returns this one child's resource usage.
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        raise RuntimeError(
            f"python -m repro {' '.join(argv)} exited {process.returncode}"
        )
    return output, usage.ru_maxrss / 1024.0


def parse_campaign_output(output: str) -> Dict[str, Any]:
    """Cell lines and the summary of one ``campaign run`` transcript."""
    cells: List[str] = []
    computed = cached = 0
    for line in output.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[-2] == "trace":
            cells.append(f"{parts[0]} {parts[-1]}")
            if parts[1] == "cached":
                cached += 1
            elif parts[1].endswith("s"):
                computed += 1
    return {"cells": cells, "computed": computed, "cached": cached}


class CampaignCold(Workload):
    """``campaign run`` from a cold process on an empty cache."""

    name = "campaign-cold"
    backends = ("2ldag", "pbft", "iota")
    launches = 1

    def setup(self) -> None:
        replicas = 2 if self.quick else 16
        seeds = [self.seed * 1000 + k for k in range(replicas)]
        cells = []
        for backend in self.backends:
            base = ScenarioSpec(
                name=f"cell-{backend}",
                backend=backend,
                protocol=ProtocolSpec(body_bits=160_000, gamma=4, reply_timeout=0.1),
                topology=grid(3, 3),
                workload=WorkloadSpec(
                    slots=8, validate=True, validation_min_age_slots=4,
                    run_until_quiet=True,
                ),
            )
            cells.extend(replicate_seeds(base, seeds))
        campaign = CampaignSpec(name="perf-campaign", cells=tuple(cells))
        self.cell_count = len(campaign.cells)
        self.campaign_file = self.work_dir / "campaign.json"
        campaign.save(self.campaign_file)
        self.cache_dir = self.work_dir / "cache"
        self.argv = [
            "--cache-dir", str(self.cache_dir),
            "campaign", "run", str(self.campaign_file),
        ]
        self.transcripts: List[Dict[str, Any]] = []
        self.launch_rss_mb = 0.0
        if self.traced:
            # Imported before the profiler starts: an import this file
            # triggers would be charged to no layer.  ``cli.import_s``
            # times it in a process of its own.
            from repro.cli import main

            self.cli_main = main

    def launch(self) -> Dict[str, Any]:
        """One ``campaign run``: a subprocess, or in-process when traced."""
        if self.traced:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.cli_main(self.argv)
            if code != 0:
                raise RuntimeError(f"repro.cli.main exited {code}")
            output = buffer.getvalue()
        else:
            output, rss_mb = launch_cli(self.argv)
            self.launch_rss_mb = max(self.launch_rss_mb, rss_mb)
        return parse_campaign_output(output)

    def run(self) -> None:
        for _ in range(self.launches):
            with self.spans.span("launch"):
                self.transcripts.append(self.launch())
            self.checkpoint()

    def peak_rss_mb(self) -> float:
        return self.launch_rss_mb if not self.traced else super().peak_rss_mb()

    def cell_seconds(self) -> float:
        """Sum of per-cell compute times, from the run journal on disk."""
        total = 0.0
        for journal in (self.cache_dir / "journal").glob("*.jsonl"):
            for line in journal.read_text().splitlines():
                record = json.loads(line)
                if record.get("event") == "cell":
                    total += float(record.get("elapsed_s", 0.0))
        return total

    def facts(self) -> Dict[str, Any]:
        done = sum(t["computed"] + t["cached"] for t in self.transcripts)
        extra: Dict[str, Any] = {
            "computed": sum(t["computed"] for t in self.transcripts),
            "cached": sum(t["cached"] for t in self.transcripts),
        }
        if self.launches == 1:
            overhead_s = self.spans.total("launch") - self.cell_seconds()
            extra["campaign.cell_overhead_ms"] = 1000.0 * overhead_s / self.cell_count
        return {
            "digest": text_digest(self.transcripts[0]["cells"]),
            "ops": self.cell_count * self.launches,
            "failed": self.cell_count * self.launches - done,
            "sim": {},
            "sizes": {"cells": self.cell_count, "launches": self.launches},
            "extra": extra,
        }

    def after(self) -> None:
        if self.traced:
            imported = subprocess.run(
                [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import repro.cli; "
                 "print(time.perf_counter() - t)"],
                stdout=subprocess.PIPE, env=cli_env(), text=True, check=True,
            )
            self.cli_import_s = float(imported.stdout)
            with self.spans.span("cli.startup"):
                launch_cli(["--version"])

    def counters(self) -> Dict[str, float]:
        return {
            "campaign.cells": self.cell_count * self.launches,
            "campaign.cache_hits": sum(t["cached"] for t in self.transcripts),
            "cli.import_s": self.cli_import_s,
            "cli.startup_s": self.spans.total("cli.startup"),
        }


class CampaignWarm(CampaignCold):
    """The same command on the cache the set-up filled: hits only."""

    name = "campaign-warm"

    def setup(self) -> None:
        super().setup()
        self.launches = 2 if self.quick else 10
        with self.spans.span("fill"):
            output, _ = launch_cli(self.argv)
        self.filled = parse_campaign_output(output)

    def facts(self) -> Dict[str, Any]:
        facts = super().facts()
        facts["extra"]["cells_match_fill"] = all(
            t["cells"] == self.filled["cells"] for t in self.transcripts
        )
        return facts


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        DagPaper, DagBuild, PopAudit, DagFaults, Baselines,
        CampaignCold, CampaignWarm,
    )
}

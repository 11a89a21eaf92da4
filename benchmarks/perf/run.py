"""The repo benchmark: seven workloads, host rows, per-layer attribution.

Two ways in, one measuring core:

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload (the contract ``BENCHMARK.json`` states).  Fresh-process
    reps are started while another still fits in ``S`` seconds (always at
    least one); with ``--trace 1`` one untraced rep is followed by one
    traced pass instead.  The last line of standard output is the result
    object: every end-to-end metric, or with ``--trace 1`` every
    per-layer metric.

``python3 benchmarks/perf/run.py [--seed N] [--only NAME] [--quick] [--out FILE]``
    The whole suite: reps interleaved round-robin across workloads, one
    traced pass each, the correctness gate, then one row per (workload,
    metric) with name, unit, value, median, quartiles and n.

Every rep's times are scaled by the host's speed as read beside and
inside that rep (``hostspeed.py``, ``child.TimedRegion``) and a time
row's value is the median over reps; see README.md, "How a value is
made".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = (
    "dag-paper", "dag-build", "pop-audit", "dag-faults", "baselines",
    "campaign-cold", "campaign-warm",
)
#: Suite-mode reps; ``dag-paper`` is an order of magnitude longer.
SUITE_REPS = {"dag-paper": 3}
DEFAULT_SUITE_REPS = 5
#: A run sets up at least this often, so ``setup_s`` is a median.
MIN_SETUPS = 3
#: No rep takes a third of this; a hung child must not outlive the run.
CHILD_TIMEOUT_S = 150
PINNED_SEED = 7
PINNED_FILE = HERE / "pinned_digests.json"
WORK_ROOT = ROOT / ".perf_work"


class BenchError(Exception):
    """A rep that could not be measured, or a correctness violation."""


# -- one rep -----------------------------------------------------------------------

def run_child(
    workload: str, seed: int, quick: bool, work_dir: Path,
    traced: bool = False, setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one fresh-process rep and return its document."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--work", str(work_dir),
    ]
    for flag, on in (("--quick", quick), ("--traced", traced),
                     ("--setup-only", setup_only)):
        if on:
            command.append(flag)
    # No REPRO_* switch leaks in, hashing is fixed, and bytecode is cached
    # as on a user's machine (a box that sets PYTHONDONTWRITEBYTECODE
    # would otherwise recompile the program in every rep's set-up).
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONHASHSEED"] = "0"
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # child's "ready" reading and this one share an origin.
    spawned_at = time.perf_counter()
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, env=env, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: rep still running after {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"{workload}: rep exited with code {done.returncode}")
    try:
        document = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: rep printed no result document")
    document["setup_s"] = document.pop("ready_at") - spawned_at
    return document


class Measurement:
    """Everything measured for one workload at one seed."""

    def __init__(self, workload: str, seed: int, quick: bool, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir
        self.reps: List[Dict[str, Any]] = []
        self.setups: List[Dict[str, Any]] = []
        self.traced: Optional[Dict[str, Any]] = None
        self.last_child_s = 0.0
        self._children = 0

    def _child(self, **kind: bool) -> Dict[str, Any]:
        self._children += 1
        began = time.perf_counter()
        document = run_child(
            self.workload, self.seed, self.quick,
            self.work_dir / f"{self.workload}-{self._children}", **kind,
        )
        self.last_child_s = time.perf_counter() - began
        if not kind.get("traced"):
            self.setups.append(document)
        return document

    def add_rep(self) -> Dict[str, Any]:
        rep = self._child()
        self.reps.append(rep)
        return rep

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            self._child(setup_only=True)

    def add_traced(self) -> None:
        self.traced = self._child(traced=True)

    # -- rows --------------------------------------------------------------
    def host_rows(self) -> Dict[str, Dict[str, Any]]:
        """Per row: the value, and what it was made from.

        ``measured`` holds host seconds as the clocks read them, ``raw``
        the same at the reference speed: the child scaled its timed
        region piece by piece, set-up is divided here by the child's
        first reading, which is taken as set-up ends.
        """
        measured = {
            name: [rep["host"][name] for rep in self.reps]
            for name in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        measured["setup_s"] = [child["setup_s"] for child in self.setups]
        scaled = {
            name: [rep["scaled"][name] for rep in self.reps]
            for name in ("wall_s", "cpu_s")
        }
        scaled["setup_s"] = [
            child["setup_s"] / child["setup_slowdown"] for child in self.setups
        ]
        rows = {}
        for name, unit, _, _ in metrics.END_TO_END:
            raw = scaled.get(name, measured[name])
            quartiles = (
                statistics.quantiles(raw, n=4) if len(raw) >= 2 else [raw[0]] * 3
            )
            median = statistics.median(raw)
            rows[name] = {
                "unit": unit,
                # Scaling errs either way, so a time's value is the
                # median; nothing but the program moves memory, and
                # there the lowest reading is the cleanest.
                "value": median if name in scaled else min(raw),
                "median": median,
                "q1": quartiles[0],
                "q3": quartiles[2],
                "n": len(raw),
                "raw": raw,
                "measured": measured[name],
            }
        return rows

    def layer_rows(self) -> Dict[str, float]:
        """The per-layer metrics that apply to this workload."""
        assert self.traced is not None
        first = self.reps[0]
        values: Dict[str, float] = dict(self.traced["traced"])
        values.update(first["sim"])
        for name, raw in self.paired_rows().items():
            # Noise moves a ratio of two timings either way: the median.
            values[name] = statistics.median(raw)
        values["bench.trace_overhead_ratio"] = (
            self.traced["scaled"]["wall_s"] / self.host_rows()["wall_s"]["value"]
        )
        values["bench.load_avg"] = os.getloadavg()[0]
        values["bench.host_slowdown"] = statistics.median(
            rep["host"]["wall_s"] / rep["scaled"]["wall_s"] for rep in self.reps
        )
        return values

    def paired_rows(self) -> Dict[str, List[float]]:
        """Per-rep values of the host rows measured beside the timed region."""
        return {
            name: [rep["extra"][name] for rep in self.reps]
            for name in ("observe_ratio", "campaign.cell_overhead_ms")
            if name in self.reps[0]["extra"]
        }

    @property
    def attempted(self) -> int:
        return sum(rep["ops"] for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep["failed"] for rep in self.reps)


# -- the correctness gate ----------------------------------------------------------

def violations(m: Measurement) -> List[str]:
    """Every broken rule, each naming the workload and the field."""
    name, first = m.workload, m.reps[0]
    found: List[str] = []

    def require(ok: bool, field: str, detail: str) -> None:
        if not ok:
            found.append(f"{name}: {field}: {detail}")

    documents = m.reps + ([m.traced] if m.traced is not None else [])
    for index, document in enumerate(documents[1:], start=2):
        label = "traced pass" if document is m.traced else f"rep {index}"
        require(document["digest"] == first["digest"], "digest",
                f"{label} has {document['digest'][:16]}, rep 1 has {first['digest'][:16]}")
        for row, value in first["sim"].items():
            require(document["sim"][row] == value, row,
                    f"{label} reads {document['sim'][row]!r}, rep 1 reads {value!r}")
        require(document["ops"] == first["ops"], "ops",
                f"{label} attempted {document['ops']}, rep 1 attempted {first['ops']}")
    if m.seed == PINNED_SEED and not m.quick:
        pinned = json.loads(PINNED_FILE.read_text())["digests"].get(name)
        require(first["digest"] == pinned, "digest",
                f"seed {PINNED_SEED} gives {first['digest']}, pinned is {pinned}")
    for rep in m.reps:
        extra = rep["extra"]
        if name in ("dag-paper", "dag-build"):
            require(rep["sim"]["failed_ratio"] == 0.0, "failed_ratio",
                    f"is {rep['sim']['failed_ratio']!r}, must be 0")
        if name == "dag-faults":
            require(extra["observed_digest"] == rep["digest"], "observed_digest",
                    "the run with recorders on differs from the plain run")
        if name == "campaign-cold":
            require(extra["computed"] == rep["ops"] and extra["cached"] == 0,
                    "computed", f"{extra['computed']} computed and "
                    f"{extra['cached']} cached of {rep['ops']} on an empty cache")
        if name == "campaign-warm":
            require(extra["cached"] == rep["ops"] and extra["computed"] == 0,
                    "cached", f"{extra['cached']} cached of {rep['ops']}")
            require(extra["cells_match_fill"], "cells",
                    "cached cell digests differ from the cold fill's")
    return found


# -- contract mode: one workload, one result line ----------------------------------

def contract_run(args: argparse.Namespace, work_dir: Path) -> int:
    m = Measurement(args.workload, args.seed, args.quick, work_dir)
    began = time.perf_counter()
    m.add_rep()
    if args.trace:
        m.add_traced()
    else:
        while time.perf_counter() - began + m.last_child_s <= args.seconds:
            m.add_rep()
        m.top_up_setups()
    broken = violations(m)
    for line in broken:
        print(f"INCORRECT {line}", file=sys.stderr)
    if args.trace:
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        values = m.layer_rows()
    else:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = {name: row["value"] for name, row in m.host_rows().items()}
    print(json.dumps({
        "correct": not broken,
        "attempted": m.attempted,
        "failed": m.failed,
        # A per-layer metric that does not apply to the workload reads 0.
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if broken else 0


# -- suite mode: every workload, a table, a document -------------------------------

def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def suite_run(args: argparse.Namespace, work_dir: Path) -> int:
    names = [n for n in WORKLOAD_NAMES if not args.only or n in args.only]
    context: Dict[str, Any] = {
        "seed": args.seed,
        "quick": args.quick,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_avg_before": os.getloadavg()[0],
    }
    measured = {n: Measurement(n, args.seed, args.quick, work_dir) for n in names}
    reps = {
        n: 1 if args.quick else SUITE_REPS.get(n, DEFAULT_SUITE_REPS) for n in names
    }
    # Round-robin, so that a slow minute on the box falls on one rep of
    # every workload, not on every rep of one.
    for round_index in range(max(reps.values())):
        for n in names:
            if round_index < reps[n]:
                measured[n].add_rep()
                print(f"# {n}: rep {round_index + 1}/{reps[n]}", file=sys.stderr)
    for n in names:
        measured[n].add_traced()
        print(f"# {n}: traced pass", file=sys.stderr)
    context["load_avg_after"] = os.getloadavg()[0]

    document: Dict[str, Any] = {"context": context, "workloads": {}}
    print(f"{'workload':<14} {'metric':<34} {'unit':<6} {'value':>12} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    broken: List[str] = []
    for n, m in measured.items():
        broken.extend(violations(m))
        host = m.host_rows()
        layer = m.layer_rows()
        for name, row in host.items():
            print(f"{n:<14} {name:<34} {row['unit']:<6} {row['value']:>12.4f} "
                  f"{row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
                  f"{row['n']:>3}")
        for name, unit, _ in metrics.PER_LAYER:
            if name in layer:
                print(f"{n:<14} {name:<34} {unit:<6} {layer[name]:>12.4f} "
                      f"{'':>12} {'':>12} {'':>12} {1:>3}")
        document["workloads"][n] = {
            "sizes": m.reps[0]["sizes"],
            "digest": m.reps[0]["digest"],
            "attempted": m.attempted,
            "failed": m.failed,
            "end_to_end": host,
            "paired_raw": m.paired_rows(),
            "per_layer": {
                name: float(layer.get(name, 0.0)) for name, _, _ in metrics.PER_LAYER
            },
            "spans": m.traced["spans"],
        }
    for line in broken:
        print(f"INCORRECT {line}", file=sys.stderr)
    document["correct"] = not broken
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if broken else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="measure this one workload and print the result line")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: start reps while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--only", action="append", choices=WORKLOAD_NAMES,
                        help="suite: restrict to this workload (repeatable)")
    parser.add_argument("--quick", action="store_true",
                        help="sizes cut about tenfold, one rep, digests not pinned")
    parser.add_argument("--out", help="suite: write the result document here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.workload:
            return contract_run(args, work_dir)
        return suite_run(args, work_dir)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sampled profile of one benchmark workload: ``python tools/sample_profile.py WORKLOAD [--seed N]``.

Runs ``setup()`` of one ``benchmarks/perf/workloads.py`` workload, then
its ``run()`` under a signal-timer sampler: ``ITIMER_PROF`` fires every
2 ms of this process's own CPU time (children a workload launches are
not sampled) and the handler records the Python stack it interrupted.
Prints, for the 30 functions first by ``--sort``, the share of samples
in which the function was the innermost Python frame (self; the C calls
it makes count as its own) and in which it was anywhere on the stack
(inclusive, once per sample however deep it recurses).

Unlike ``cProfile`` the sampler adds no cost per call, so the shares are
close to those of an untraced run.  The workload's sizes and seed are
the benchmark's own; nothing is written under ``benchmarks/perf/``.
"""

import argparse
import collections
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTERVAL = 0.002  # CPU seconds between samples
TOP = 30


def load_workloads():
    """``benchmarks/perf/workloads.py``, imported the way its runner does."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]
    import workloads

    return workloads


def label(code) -> str:
    """``path:line(qualname)``, the path relative to the repo where it can be."""
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        path = Path(path.name)
    return f"{path}:{code.co_firstlineno}({code.co_qualname})"


def sample(call):
    """Run ``call()`` under the sampler; ``(samples, self, inclusive)`` counts."""
    own = collections.Counter()
    inclusive = collections.Counter()
    taken = 0

    def on_tick(_signum, frame):
        nonlocal taken
        taken += 1
        if frame is None:
            return
        own[frame.f_code] += 1
        seen = set()
        while frame is not None:
            seen.add(frame.f_code)
            frame = frame.f_back
        inclusive.update(seen)

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        call()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return taken, own, inclusive


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sort", choices=("incl", "self"), default="incl")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="sample-profile-") as work_dir:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, quick=False, work_dir=Path(work_dir), traced=False
        )
        workload.setup()
        taken, own, inclusive = sample(workload.run)
    if not taken:
        print("no samples: the timed region ran for less than one interval")
        return 1
    print(f"{args.workload} seed {args.seed}: {taken} samples every {INTERVAL} CPU s")
    print(f"{'self%':>6} {'incl%':>6}  function")
    for code, _ in (inclusive if args.sort == "incl" else own).most_common(TOP):
        print(f"{100 * own[code] / taken:6.1f} {100 * inclusive[code] / taken:6.1f}  {label(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

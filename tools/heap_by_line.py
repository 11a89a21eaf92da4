#!/usr/bin/env python3
"""Live heap by line: ``PYTHONPATH=src python tools/heap_by_line.py SPEC [--top N]``.

Runs a scenario (a preset name or a spec JSON file) through
``ScenarioRunner`` under ``tracemalloc`` and prints what is still live
when the run has finished, ``gc.collect()`` first: MB (10^6 bytes) and
allocation count per allocating ``src/repro`` line, largest first, then
the total over every traced line.  The runner — deployment, stores, caches,
outcomes — is alive at the snapshot, as it is at the end of a
``benchmarks/perf`` timed region.
"""

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

import repro
from repro.scenario import ScenarioRunner, ScenarioSpec, get_scenario

#: The package the run imports, whichever tree ``PYTHONPATH`` names.
PACKAGE = str(Path(repro.__file__).parent) + "/"


def live_heap(spec):
    """Run ``spec``; ``(result, rows, total_bytes)`` of the live heap.

    ``rows`` are ``(bytes, allocations, "path/in/repro.py:line")``.
    """
    tracemalloc.start()
    try:
        runner = ScenarioRunner(spec)
        result = runner.run()
        gc.collect()
        statistics = tracemalloc.take_snapshot().statistics("lineno")
    finally:
        tracemalloc.stop()
    rows = [
        (stat.size, stat.count, f"{frame.filename[len(PACKAGE):]}:{frame.lineno}")
        for stat in statistics
        for frame in stat.traceback
        if frame.filename.startswith(PACKAGE)
    ]
    return result, rows, sum(stat.size for stat in statistics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", metavar="SPEC")
    parser.add_argument("--top", type=int, default=12, metavar="N")
    args = parser.parse_args(argv)
    is_file = Path(args.spec).is_file()
    spec = ScenarioSpec.from_file(args.spec) if is_file else get_scenario(args.spec)
    result, rows, total = live_heap(spec)
    print(f"{'MB':>8} {'allocs':>9}  line")
    for size, count, line in rows[:args.top]:
        print(f"{size / 1e6:8.2f} {count:9d}  {line}")
    print(f"{total / 1e6:8.2f} {'':9}  total, {total / 1e3 / result.total_blocks:.2f} KB per block")
    return 0


if __name__ == "__main__":
    sys.exit(main())

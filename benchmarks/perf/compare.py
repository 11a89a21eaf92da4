"""Compare two result documents of ``run.py --out`` row by row.

    python3 benchmarks/perf/compare.py OLD.json NEW.json

Prints one row per (workload, metric): the base (OLD), NEW, their ratio
and a verdict against the bound ``BENCHMARK.json`` fixes.

* ``same``       NEW is within the bound of OLD.
* ``better`` / ``worse``  the gap exceeds the bound and every rep of one
  side reads beyond every rep of the other.
* ``unresolved`` the gap exceeds the bound but the two sides' rep ranges
  overlap: the spread is wider than the difference, so nothing is shown.

Host rows use their relative bound.  Simulated rows are exact under a
seed, so any difference is a verdict (they are skipped when the two
documents used different seeds); ``observe_ratio`` may rise by 0.05.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import metrics

HERE = Path(__file__).resolve().parent

OBSERVE_RATIO_BOUND = 0.05

#: (unit, better, old value, new value, old reps, new reps, allowed gap)
Row = Tuple[str, str, float, float, Sequence[float], Sequence[float], float]


def verdict(row: Row) -> str:
    _, better, old, new, old_reps, new_reps, allowed = row
    sign = 1.0 if better == "lower" else -1.0
    gap = sign * (new - old)  # positive: NEW is worse
    if abs(gap) <= allowed:
        return "same"
    overlap = min(old_reps) <= max(new_reps) and min(new_reps) <= max(old_reps)
    if overlap:
        return "unresolved"
    return "worse" if gap > 0 else "better"


def rows_of(
    old: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float], same_seed: bool
) -> Iterator[Tuple[str, Row]]:
    for name, unit, better, _ in metrics.END_TO_END:
        a, b = old["end_to_end"][name], new["end_to_end"][name]
        yield name, (unit, better, a["value"], b["value"], a["raw"], b["raw"],
                     bounds[name] * a["value"])
    exact = metrics.SIMULATED if same_seed else []
    for name, unit, better in exact + [("observe_ratio", "ratio", "lower")]:
        a, b = old["per_layer"][name], new["per_layer"][name]
        if a == 0.0 and b == 0.0:
            continue  # does not apply to this workload
        allowed = OBSERVE_RATIO_BOUND if name == "observe_ratio" else 0.0
        yield name, (unit, better, a, b, old["paired_raw"].get(name, [a]),
                     new["paired_raw"].get(name, [b]), allowed)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    same_seed = old["context"]["seed"] == new["context"]["seed"]
    if not same_seed:
        print("# seeds differ: simulated rows skipped", file=sys.stderr)

    worse: List[str] = []
    print(f"{'workload':<14} {'metric':<24} {'unit':<6} {'old (base)':>12} "
          f"{'new':>12} {'new/old':>8}  verdict")
    for workload, old_rows in old["workloads"].items():
        new_rows = new["workloads"].get(workload)
        if new_rows is None:
            print(f"{workload:<14} missing from NEW")
            worse.append(workload)
            continue
        for name, row in rows_of(old_rows, new_rows, bounds, same_seed):
            unit, _, a, b = row[:4]
            outcome = verdict(row)
            ratio = f"{b / a:8.3f}" if a else f"{'-':>8}"
            print(f"{workload:<14} {name:<24} {unit:<6} {a:>12.4f} {b:>12.4f} "
                  f"{ratio}  {outcome}")
            if outcome == "worse":
                worse.append(f"{workload}/{name}")
    if worse:
        print(f"worse: {', '.join(worse)}", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

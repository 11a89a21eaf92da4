"""Tier-1 smoke test of the benchmark harness (``run.py --quick``).

Checks structure, never speed: every workload and metric that
``BENCHMARK.json`` names is produced with its unit, the layer table
accounts for all profiled time, and what should be exact is exact.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The suite runs every workload; ``BENCHMARK.json`` names the ones the
#: contract's time limit leaves room to gate.
WORKLOADS = list(run.WORKLOAD_NAMES)
GATED = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two whole ``--quick`` suite runs, side by side: (documents, tables)."""
    out = tmp_path_factory.mktemp("perf")
    started = [
        subprocess.Popen(
            [sys.executable, RUN, "--quick", "--out", str(out / f"{i}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in (1, 2)
    ]
    tables = []
    for process in started:
        table, errors = process.communicate(timeout=300)
        assert process.returncode == 0, errors
        tables.append(table)
    documents = [json.loads((out / f"{i}.json").read_text()) for i in (1, 2)]
    return documents, tables


def test_benchmark_json_lists_the_harness_tables():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == metrics.PER_LAYER
    assert set(GATED) <= set(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(set(names + WORKLOADS)) == len(names) + len(WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names + WORKLOADS)


def test_every_workload_and_metric_appears_with_its_unit(quick_runs):
    (document, _), (table, _) = quick_runs
    assert document["correct"] is True
    assert list(document["workloads"]) == WORKLOADS
    printed = {
        (parts[0], parts[1]): parts[2]
        for parts in (line.split() for line in table.splitlines()[1:])
    }
    for workload in WORKLOADS:
        result = document["workloads"][workload]
        assert result["attempted"] >= 1 and result["failed"] == 0
        for metric in BENCHMARK["end_to_end"]:
            assert printed[(workload, metric["name"])] == metric["unit"]
            assert result["end_to_end"][metric["name"]]["value"] > 0
        assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        units = {
            unit for (_, name), unit in printed.items() if name == metric["name"]
        }
        assert units == {metric["unit"]}, metric["name"]


def test_layer_table_accounts_for_the_profiled_time(quick_runs):
    (document, _), _ = quick_runs
    for workload, result in document["workloads"].items():
        layer = result["per_layer"]
        shares = [v for name, v in layer.items() if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload
        assert layer["other.share"] < 0.05, workload


def test_exact_rows_repeat_across_runs(quick_runs):
    (first, second), _ = quick_runs
    for workload in WORKLOADS:
        a, b = (doc["workloads"][workload] for doc in (first, second))
        assert a["digest"] == b["digest"], workload
        for name in metrics.EXACT_NAMES:
            assert a["per_layer"][name] == b["per_layer"][name], (workload, name)


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_result_line(trace, listed):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "baselines", "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in BENCHMARK[listed]}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dag-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("new, new_reps, expected", [
    (1.05, [1.05, 1.2], "same"),
    (1.50, [1.50, 1.6], "worse"),
    (0.50, [0.50, 0.6], "better"),
    (1.50, [1.50, 1.6, 0.95], "unresolved"),
])
def test_compare_verdicts(new, new_reps, expected):
    row = ("s", "lower", 1.0, new, [1.0, 1.1], new_reps, 0.25)
    assert compare.verdict(row) == expected

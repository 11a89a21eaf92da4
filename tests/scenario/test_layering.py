"""Import layering: the config layer sits below the experiment layer.

``repro.scenario`` (spec, registry, runner) and the CLI module are what
every entry point loads first; the figure experiments are built *on*
them.  Checked in a fresh interpreter, because this test process has
long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import sys, repro.scenario, repro.cli; "
    "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
)


def test_scenario_and_cli_load_nothing_from_experiments():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_experiments_package_imports_nothing():
    # campaign/cache.py imports repro.experiments.persistence, so every
    # campaign launch executes this __init__: it must stay free.
    import ast

    tree = ast.parse((SRC / "repro/experiments/__init__.py").read_text())
    assert [type(node).__name__ for node in tree.body] == ["Expr"]


def test_the_bench_package_is_gone():
    # One speed harness: benchmarks/perf/ (outside src/).  The package it
    # replaced must not come back as a stub or an alias.  (Sources, not
    # the directory: a stale __pycache__ may outlive a checkout.)
    assert not list((SRC / "repro/bench").rglob("*.py"))


def test_what_the_scenario_package_imports():
    # Every `repro.*` import of src/repro/scenario/*.py, function-level
    # ones included: the layers below it, itself, and the one recorded
    # upward reach (ScenarioSpec.save -> atomic_write_text).
    import ast

    below = {"scenario", "faults", "net", "sim", "core", "baselines",
             "attacks", "metrics", "canonical"}
    upward = set()
    for path in sorted((SRC / "repro/scenario").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path.name}: relative import"
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "repro" and parts[1] not in below:
                    upward.add((path.name, name))
    assert upward == {("spec.py", "repro.experiments.persistence")}

"""Import layering: the config layer sits below the experiment layer.

``repro.scenario`` (spec, registry, runner) and the CLI module are what
every entry point loads first; the figure experiments are built *on*
them.  A package ``__init__`` loads only what its callers import through
it, so importing one module does not drag in the protocol.  Checked in a
fresh interpreter, because this test process has long since imported
everything.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def loaded_after(statement, prefixes):
    """The ``repro.*`` modules under ``prefixes`` a fresh ``statement`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = (
        f"import sys; {statement}; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_scenario_and_cli_load_nothing_from_experiments():
    assert loaded_after(
        "import repro.scenario, repro.cli", ("repro.experiments",)
    ) == "[]"


def test_the_root_package_loads_no_submodule():
    assert loaded_after("import repro", ("repro.",)) == "[]"


def test_the_experiments_package_imports_nothing():
    # The campaign presets import experiment modules when a preset is
    # built, and `report` does too, so every such import executes this
    # __init__: it must stay free.
    tree = ast.parse((SRC / "repro/experiments/__init__.py").read_text())
    assert [type(node).__name__ for node in tree.body] == ["Expr"]


def test_the_bench_package_is_gone():
    # One speed harness: benchmarks/perf/ (outside src/).  The package it
    # replaced must not come back as a stub or an alias.  (Sources, not
    # the directory: a stale __pycache__ may outlive a checkout.)
    assert not list((SRC / "repro/bench").rglob("*.py"))


def test_what_the_scenario_package_imports():
    # Every `repro.*` import of src/repro/scenario/*.py, function-level
    # ones included, is of the layers below it or of itself.
    below = {"scenario", "faults", "net", "sim", "core", "baselines",
             "attacks", "metrics", "canonical", "persistence"}
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
    assert upward == set()


#: The one re-export with no importer in code: the kernel package's own
#: doctest imports it.  (``repro.__version__`` is defined, not imported.)
FACADE_EXCEPTIONS = {("repro.sim", "Simulator")}


def test_each_package_reexports_only_what_callers_import_through_it():
    # One import path per name.  A name counts as used through package P
    # when some module does `from P import name`, or when the dotted
    # `P.name` is spelled in the code or in docs/*.md.  The lint rule
    # fixtures are strings of code, not callers, so they do not count.
    facades = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        facades[package] = {
            alias.asname or alias.name
            for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    sources = [REPO / "conftest.py"] + [
        path
        for tree in ("src", "tests", "benchmarks", "examples", "tools")
        for path in sorted((REPO / tree).rglob("*.py"))
    ]
    fixtures = REPO / "tests/invariants/test_rules.py"
    used = {package: set() for package in facades}
    for path in sources:
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in facades:
                used[node.module].update(alias.name for alias in node.names)
    for path in sources + sorted((REPO / "docs").glob("*.md")):
        if path == fixtures:
            continue
        for match in re.finditer(r"\brepro(?:\.\w+)+", path.read_text()):
            parts = match.group(0).split(".")
            for cut in range(1, len(parts)):
                used.get(".".join(parts[:cut]), set()).add(parts[cut])
    unused = {
        (package, name)
        for package, names in facades.items()
        for name in names - used[package]
    }
    assert unused == FACADE_EXCEPTIONS

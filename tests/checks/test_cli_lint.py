"""CLI contract of ``python -m repro lint``: exit codes, output, the gate."""

import ast
from pathlib import Path

import pytest

from repro.checks.engine import ModuleUnderCheck, build_rules, discover_files
from repro.checks.rules import WallClockInSimRule
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One seeded violation per shipped rule, keyed by the expected rule id.
VIOLATIONS = {
    "unseeded-random": "import random\nx = random.random()\n",
    "wall-clock-in-sim": "import time\nt = time.time()\n",
    "wall-clock-in-telemetry": "import time\nt = time.time()\n",
    "builtin-hash-in-digest": "k = hash('block')\n",
    "network-outside-scenario": (
        "from repro.core.protocol import TwoLayerDagNetwork\n"
        "net = TwoLayerDagNetwork(nodes=4)\n"
    ),
    "backend-bypass": "from repro.baselines.pbft.cluster import PbftCluster\n",
    "non-atomic-json-write": (
        "import json\nwith open('o.json', 'w') as fh:\n    json.dump({}, fh)\n"
    ),
    "unfrozen-spec-dataclass": (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass RetrySpec:\n    tries: int = 3\n"
    ),
    "mutable-default-arg": "def f(xs=[]):\n    return xs\n",
    "print-in-library": "print('progress')\n",
}

#: The package a seeded violation is written into (default: ``core``).
PACKAGES = {"wall-clock-in-telemetry": "telemetry"}


def write_module(tmp_path, source, name="victim.py", package="core"):
    target = tmp_path / "repro" / package
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(source)
    return path


class TestGateOnRealTree:
    def test_shipped_tree_is_lint_clean(self, capsys):
        # The CI gate: the committed src/ tree carries zero findings;
        # its deliberate exceptions are pragmas.
        exit_code = main(["lint", str(REPO_ROOT / "src")])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "0 finding(s)" in out

    def test_every_pragma_suppresses_a_finding(self):
        # A pragma that silences nothing claims an exception the tree
        # does not make.  Each (line, rule id) the engine's own parser
        # reads must meet a finding of that rule there; a pragma on a
        # comment-only line covers the line below it.  The docs' own
        # `allow[rule-id]` placeholder names no rule.
        rules = build_rules()
        rule_ids = {rule.id for rule in rules}
        idle = []
        trees = [str(REPO_ROOT / "src"), str(REPO_ROOT / "examples")]
        for path in discover_files(trees):
            source = path.read_text()
            module = ModuleUnderCheck(str(path), source, ast.parse(source))
            fired = {(f.line, f.rule) for rule in rules for f in rule.check(module)}
            for line, text in enumerate(module.lines, start=1):
                covered = (line, line + 1) if text.strip().startswith("#") else (line,)
                for rule_id in module.suppressed_ids(line) & rule_ids:
                    if not any((at, rule_id) in fired for at in covered):
                        idle.append(f"{path.relative_to(REPO_ROOT)}:{line} {rule_id}")
        assert idle == []

    def test_only_the_campaign_executor_reads_the_host_clock(self):
        # ROADMAP: "host-time measurement belongs to benchmarks/perf/
        # and the campaign executor only".  The wall-clock rules are
        # zoned (sim paths, telemetry); this is their catalogue over the
        # whole package with no zone filter.
        package = REPO_ROOT / "src" / "repro"
        readers = set()
        for path in sorted(package.rglob("*.py")):
            source = path.read_text()
            module = ModuleUnderCheck(str(path), source, ast.parse(source))
            if any(
                isinstance(node, ast.Call)
                and module.resolve(node.func) in WallClockInSimRule.WALL_CLOCKS
                for node in ast.walk(module.tree)
            ):
                readers.add(path.relative_to(package).as_posix())
        assert readers == {"campaign/executor.py"}


class TestSeededViolations:
    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_each_rule_fails_the_gate_naming_rule_and_location(
        self, rule_id, tmp_path, capsys
    ):
        path = write_module(
            tmp_path, VIOLATIONS[rule_id], package=PACKAGES.get(rule_id, "core")
        )
        exit_code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        # file:line:col prefix on the finding line
        line = next(l for l in out.splitlines() if l.startswith(path.as_posix()))
        prefix, fired = line.split(" ")[:2]
        assert prefix.count(":") == 3  # path:line:col:
        assert fired == rule_id

    def test_finding_line_and_summary_text(self, tmp_path, capsys):
        path = write_module(tmp_path, VIOLATIONS["wall-clock-in-sim"])
        assert main(["lint", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"{path.as_posix()}:2:5: wall-clock-in-sim time.time() reads the "
            f"wall clock inside the simulation zone; use kernel time "
            f"(Simulator.now) instead"
        )
        assert lines[-1] == "1 file(s) checked: 1 finding(s), 0 suppressed"

    def test_findings_are_followed_by_their_rationale(self, tmp_path, capsys):
        write_module(
            tmp_path, VIOLATIONS["wall-clock-in-sim"] + VIOLATIONS["mutable-default-arg"]
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        findings, explained = out.split("\n\n")
        assert [line.split(" ")[1] for line in findings.splitlines()] == [
            "wall-clock-in-sim",
            "mutable-default-arg",
        ]
        assert "wall-clock-in-sim: wall-clock read" in explained
        assert "  Simulated time comes from the event kernel" in explained
        assert "mutable-default-arg: mutable default argument" in explained
        assert "  A list/dict/set default is created once" in explained

    def test_default_path_is_src(self, tmp_path, monkeypatch, capsys):
        path = write_module(tmp_path / "src", VIOLATIONS["mutable-default-arg"])
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 1
        assert path.relative_to(tmp_path).as_posix() in capsys.readouterr().out


class TestInvocation:
    def test_help_lists_only_paths_and_list(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--help"])
        assert exit_info.value.code == 0
        assert "lint [-h] [--list] [PATH ...]\n" in capsys.readouterr().out

    def test_list_prints_catalogue(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule_id in VIOLATIONS:
            assert rule_id in out

    @pytest.mark.parametrize(
        "name, content",
        [("absent.py", None), ("latin1.py", b"x = '\xe9'\n")],
        ids=["missing", "not-utf8"],
    )
    def test_missing_or_unreadable_path_exits_2(
        self, name, content, tmp_path, capsys
    ):
        target = tmp_path / name
        if content is not None:
            target.write_bytes(content)
        assert main(["lint", str(target)]) == 2
        assert capsys.readouterr().err.startswith("lint: ")

"""CLI contract of ``python -m repro lint``: exit codes, formats, gates."""

import ast
import json
from pathlib import Path

import pytest

from repro.checks.engine import ModuleUnderCheck
from repro.checks.report import REPORT_FORMAT_VERSION
from repro.checks.rules import WallClockInSimRule
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One seeded violation per shipped rule, with the expected rule id.
VIOLATIONS = {
    "unseeded-random": "import random\nx = random.random()\n",
    "wall-clock-in-sim": "import time\nt = time.time()\n",
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
}


def write_module(tmp_path, source, name="victim.py"):
    target = tmp_path / "repro" / "core"
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(source)
    return path


class TestGateOnRealTree:
    def test_shipped_tree_is_lint_clean_with_no_baseline(self, capsys):
        # The CI gate: the committed src/ tree must carry zero findings
        # without any baseline file.
        exit_code = main(["lint", str(REPO_ROOT / "src")])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "0 error(s), 0 warning(s)" in out

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
        path = write_module(tmp_path, VIOLATIONS[rule_id])
        exit_code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert rule_id in out
        # file:line:col prefix on the finding line
        line = next(l for l in out.splitlines() if rule_id in l)
        assert line.startswith(path.as_posix() + ":")
        prefix = line.split(" ", 1)[0]
        assert prefix.count(":") == 3  # path:line:col:


class TestJsonFormat:
    def test_schema_is_stable(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATIONS["unseeded-random"])
        exit_code = main(["lint", "--format", "json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["format_version"] == REPORT_FORMAT_VERSION
        assert set(payload) == {"format_version", "findings", "summary"}
        assert set(payload["summary"]) == {
            "files_checked",
            "errors",
            "warnings",
            "suppressed",
            "baselined",
        }
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path",
            "line",
            "col",
            "rule",
            "severity",
            "message",
        }
        assert finding["rule"] == "unseeded-random"
        assert finding["line"] == 2

    def test_clean_tree_json_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "VALUE = 1\n")
        exit_code = main(["lint", "--format", "json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["findings"] == []
        assert payload["summary"]["errors"] == 0


class TestBaselineFlags:
    def test_write_then_apply_then_resurface(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATIONS["unseeded-random"])
        baseline = tmp_path / "lint-baseline.json"

        assert main(["lint", "--write-baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()

        assert main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 0
        assert "1 baselined" in capsys.readouterr().out

        payload = json.loads(baseline.read_text())
        payload["findings"] = []
        baseline.write_text(json.dumps(payload))
        assert main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 1
        assert "unseeded-random" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--baseline", "absent.json", str(tmp_path)]) == 2
        assert "lint:" in capsys.readouterr().err


class TestSelectionFlags:
    def test_select_and_ignore(self, tmp_path, capsys):
        write_module(
            tmp_path, "import random, time\nx = random.random() + time.time()\n"
        )
        assert main(["lint", "--select", "unseeded-random", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock-in-sim" not in out

        assert (
            main(
                [
                    "lint",
                    "--ignore",
                    "unseeded-random,wall-clock-in-sim",
                    str(tmp_path),
                ]
            )
            == 0
        )

    def test_severity_demotion_passes_the_gate(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATIONS["mutable-default-arg"])
        exit_code = main(
            ["lint", "--severity", "mutable-default-arg=warning", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "[warning]" in out
        assert "1 warning(s)" in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--select", "nope", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_list_prints_catalogue(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule_id in VIOLATIONS:
            assert rule_id in out

    def test_verbose_appends_rationale(self, tmp_path, capsys):
        write_module(tmp_path, VIOLATIONS["unseeded-random"])
        assert main(["lint", "--verbose", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "named-stream" in out or "master seed" in out

"""Engine mechanics: suppressions, resolution, the rule registry."""

import ast

import pytest

from repro.checks import (
    CheckError,
    ModuleUnderCheck,
    build_rules,
    check_paths,
    check_source,
)
from repro.checks.engine import PARSE_ERROR_RULE, discover_files


def check(source, path="src/repro/core/victim.py"):
    findings, suppressed = check_source(path, source, build_rules())
    return findings, suppressed


class TestSuppressions:
    def test_same_line_pragma_suppresses(self):
        findings, suppressed = check(
            "import random\n"
            "x = random.random()  # repro: allow[unseeded-random]\n"
        )
        assert findings == []
        assert suppressed == 1

    def test_comment_line_above_suppresses(self):
        findings, suppressed = check(
            "import random\n"
            "# deliberate fixed draw\n"
            "# repro: allow[unseeded-random]\n"
            "x = random.random()\n"
        )
        assert findings == []
        assert suppressed == 1

    def test_code_line_above_does_not_suppress(self):
        findings, suppressed = check(
            "import random\n"
            "y = 1  # repro: allow[unseeded-random]\n"
            "x = random.random()\n"
        )
        assert [f.rule for f in findings] == ["unseeded-random"]
        assert suppressed == 0

    def test_pragma_for_other_rule_does_not_suppress(self):
        findings, _ = check(
            "import random\n"
            "x = random.random()  # repro: allow[wall-clock-in-sim]\n"
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_comma_separated_ids(self):
        findings, suppressed = check(
            "import random\n"
            "import time\n"
            "x = random.random() + time.time()"
            "  # repro: allow[unseeded-random, wall-clock-in-sim]\n"
        )
        assert findings == []
        assert suppressed == 2

    def test_multiline_import_suppressed_at_statement_line(self):
        findings, suppressed = check(
            "from repro.baselines.pbft.cluster import (  "
            "# repro: allow[backend-bypass]\n"
            "    PbftCluster,\n"
            ")\n"
        )
        assert findings == []
        assert suppressed == 1


class TestResolution:
    def module(self, source):
        return ModuleUnderCheck("x.py", source, ast.parse(source))

    def resolve_last_call(self, source):
        module = self.module(source)
        calls = [n for n in ast.walk(module.tree) if isinstance(n, ast.Call)]
        return module.resolve(calls[-1].func)

    def test_plain_import(self):
        assert self.resolve_last_call("import random\nrandom.random()") == (
            "random.random"
        )

    def test_aliased_import(self):
        assert self.resolve_last_call("import random as rnd\nrnd.random()") == (
            "random.random"
        )

    def test_from_import_alias(self):
        assert self.resolve_last_call("from os import urandom as u\nu(8)") == (
            "os.urandom"
        )

    def test_dotted_import_binds_head(self):
        origin = self.resolve_last_call(
            "import repro.baselines.pbft.cluster\n"
            "repro.baselines.pbft.cluster.PbftCluster()"
        )
        assert origin == "repro.baselines.pbft.cluster.PbftCluster"

    def test_unresolvable_receiver(self):
        module = self.module("x = foo()()")
        outer = next(n for n in ast.walk(module.tree) if isinstance(n, ast.Call))
        assert module.resolve(outer.func) is None

    def test_architecture_relative_path(self):
        module = ModuleUnderCheck(
            "/abs/prefix/src/repro/sim/rng.py", "x = 1", ast.parse("x = 1")
        )
        assert module.rel == "repro/sim/rng.py"
        assert module.in_path("repro/sim/rng.py")
        assert module.in_path("repro/sim/")
        assert not module.in_path("repro/sim")  # exact match only without /


class TestRegistry:
    def test_all_ten_rules_registered(self):
        assert {rule.id for rule in build_rules()} == {
            "backend-bypass",
            "builtin-hash-in-digest",
            "mutable-default-arg",
            "network-outside-scenario",
            "non-atomic-json-write",
            "print-in-library",
            "unfrozen-spec-dataclass",
            "unseeded-random",
            "wall-clock-in-sim",
            "wall-clock-in-telemetry",
        }


class TestEngineEdges:
    def test_syntax_error_is_a_finding(self):
        findings, _ = check("def broken(:\n")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_findings_sorted_by_location(self):
        findings, _ = check(
            "import random\n"
            "import time\n"
            "b = time.time()\n"
            "a = random.random()\n"
        )
        assert [(f.line, f.rule) for f in findings] == [
            (3, "wall-clock-in-sim"),
            (4, "unseeded-random"),
        ]

    def test_discover_deduplicates_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        files = discover_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_missing_path_raises(self):
        with pytest.raises(CheckError, match="no such file"):
            check_paths(["definitely/not/here"])

    def test_clean_file_counts(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        report = check_paths([str(target)])
        assert report.files_checked == 1
        assert report.findings == []
        assert report.summary() == "1 file(s) checked: 0 finding(s), 0 suppressed"

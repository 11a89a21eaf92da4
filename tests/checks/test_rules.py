"""Positive and negative cases for every shipped rule."""

from repro.checks import build_rules, check_source
from repro.checks.rules import (
    BackendBypassRule,
    BuiltinHashRule,
    MutableDefaultArgRule,
    NetworkOutsideScenarioRule,
    NonAtomicWriteRule,
    PrintInLibraryRule,
    UnfrozenSpecRule,
    UnseededRandomRule,
    WallClockInSimRule,
    WallClockInTelemetryRule,
)


class RuleCase:
    """Runs the one rule under test (``RULE``) over a source snippet."""

    RULE = None

    def findings_for(self, source, path="src/repro/core/victim.py"):
        found, _ = check_source(path, source, [self.RULE()])
        return found

    def rules_fired(self, source, path="src/repro/core/victim.py"):
        return [f.rule for f in self.findings_for(source, path)]


class TestUnseededRandom(RuleCase):
    RULE = UnseededRandomRule

    def test_global_state_draw_fires(self):
        assert self.rules_fired("import random\nx = random.random()\n") == [
            "unseeded-random"
        ]

    def test_raw_random_construction_fires(self):
        assert self.rules_fired("import random\nr = random.Random(7)\n") == [
            "unseeded-random"
        ]

    def test_from_import_fires(self):
        assert self.rules_fired("from random import randint\nx = randint(0, 9)\n") == [
            "unseeded-random"
        ]

    def test_os_urandom_and_uuid4_fire(self):
        fired = self.rules_fired(
            "import os\nimport uuid\nx = os.urandom(8)\ny = uuid.uuid4()\n"
        )
        assert fired == ["unseeded-random", "unseeded-random"]

    def test_rng_home_is_exempt(self):
        assert (
            self.rules_fired(
                "import random\nstream = random.Random(42)\n",
                path="src/repro/sim/rng.py",
            )
            == []
        )

    def test_stream_method_calls_are_fine(self):
        assert (
            self.rules_fired(
                "from repro.sim.rng import RandomStreams\n"
                "rng = RandomStreams(0).get('topology')\n"
                "x = rng.random()\n"
            )
            == []
        )


class TestWallClockInSim(RuleCase):
    RULE = WallClockInSimRule

    def test_time_time_in_core_fires(self):
        assert self.rules_fired("import time\nt = time.time()\n") == ["wall-clock-in-sim"]

    def test_datetime_now_via_from_import_fires(self):
        assert self.rules_fired(
            "from datetime import datetime\nt = datetime.now()\n"
        ) == ["wall-clock-in-sim"]

    def test_perf_counter_outside_sim_zone_is_fine(self):
        assert (
            self.rules_fired(
                "import time\nstart = time.perf_counter()\n",
                path="src/repro/campaign/executor.py",
            )
            == []
        )

    def test_sleep_is_not_a_clock_read(self):
        assert self.rules_fired("import time\ntime.sleep(0)\n") == []


class TestBuiltinHash(RuleCase):
    RULE = BuiltinHashRule

    def test_hash_call_fires(self):
        assert self.rules_fired("key = hash('block')\n") == ["builtin-hash-in-digest"]

    def test_dunder_hash_delegation_is_exempt(self):
        source = (
            "class BlockId:\n"
            "    def __hash__(self):\n"
            "        return hash(self.value)\n"
        )
        assert self.rules_fired(source) == []

    def test_hashlib_is_fine(self):
        assert (
            self.rules_fired("import hashlib\nd = hashlib.sha256(b'x').hexdigest()\n")
            == []
        )


class TestNetworkOutsideScenario(RuleCase):
    RULE = NetworkOutsideScenarioRule

    SOURCE = (
        "from repro.core.protocol import TwoLayerDagNetwork\n"
        "net = TwoLayerDagNetwork(nodes=4)\n"
    )

    def test_construction_outside_scenario_fires(self):
        fired = [
            f
            for f in self.findings_for(self.SOURCE, path="src/repro/experiments/x.py")
            if f.rule == "network-outside-scenario"
        ]
        assert len(fired) == 1
        assert fired[0].line == 2

    def test_scenario_package_is_exempt(self):
        fired = self.rules_fired(self.SOURCE, path="src/repro/scenario/backends.py")
        assert "network-outside-scenario" not in fired

    def test_import_alone_is_not_flagged(self):
        source = "from repro.core.protocol import TwoLayerDagNetwork\n"
        assert self.rules_fired(source, path="src/repro/experiments/x.py") == []


class TestBackendBypass(RuleCase):
    RULE = BackendBypassRule

    def test_live_cluster_import_fires(self):
        assert self.rules_fired(
            "from repro.baselines.pbft.cluster import PbftCluster\n",
            path="src/repro/experiments/x.py",
        ) == ["backend-bypass"]

    def test_live_reexport_from_package_root_fires(self):
        assert self.rules_fired(
            "from repro.baselines import IotaNetwork\n",
            path="src/repro/experiments/x.py",
        ) == ["backend-bypass"]

    def test_plain_module_import_fires(self):
        assert self.rules_fired(
            "import repro.baselines.iota.node\n",
            path="src/repro/experiments/x.py",
        ) == ["backend-bypass"]

    def test_costmodel_imports_stay_allowed(self):
        source = (
            "from repro.baselines.iota.costmodel import IotaCostModel\n"
            "from repro.baselines.pbft.costmodel import PbftCostModel\n"
            "from repro.baselines import PbftCostModel as Model\n"
        )
        assert self.rules_fired(source, path="src/repro/experiments/x.py") == []

    def test_baselines_package_itself_is_exempt(self):
        assert (
            self.rules_fired(
                "from repro.baselines.pbft.replica import PbftReplica\n",
                path="src/repro/baselines/pbft/cluster.py",
            )
            == []
        )

    def test_backend_registry_module_is_exempt(self):
        assert (
            self.rules_fired(
                "from repro.baselines.pbft.cluster import PbftCluster\n",
                path="src/repro/scenario/backends.py",
            )
            == []
        )


class TestNonAtomicWrite(RuleCase):
    RULE = NonAtomicWriteRule

    def test_truncating_open_fires(self):
        source = (
            "import json\n"
            "with open('out.json', 'w') as fh:\n"
            "    json.dump({}, fh)\n"
        )
        assert self.rules_fired(source) == ["non-atomic-json-write"]

    def test_mode_keyword_and_x_mode_fire(self):
        assert self.rules_fired("fh = open('f', mode='x')\n") == ["non-atomic-json-write"]

    def test_read_and_append_modes_are_fine(self):
        source = (
            "a = open('f').read()\n"
            "b = open('f', 'r')\n"
            "with open('journal.jsonl', 'a') as fh:\n"
            "    fh.write('line')\n"
        )
        assert self.rules_fired(source) == []

    def test_atomic_writer_home_is_exempt(self):
        assert (
            self.rules_fired(
                "fh = open('f', 'w')\n",
                path="src/repro/experiments/persistence.py",
            )
            == []
        )


class TestUnfrozenSpecDataclass(RuleCase):
    RULE = UnfrozenSpecRule

    def test_spec_suffix_requires_frozen(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class RetrySpec:\n"
            "    tries: int = 3\n"
        )
        assert self.rules_fired(source) == ["unfrozen-spec-dataclass"]

    def test_spec_module_requires_frozen_for_any_name(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Limits:\n"
            "    cap: int = 1\n"
        )
        assert self.rules_fired(source, path="src/repro/faults/spec.py") == [
            "unfrozen-spec-dataclass"
        ]

    def test_frozen_spec_passes(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RetrySpec:\n"
            "    tries: int = 3\n"
        )
        assert self.rules_fired(source) == []

    def test_non_dataclass_and_non_spec_are_ignored(self):
        source = (
            "from dataclasses import dataclass\n"
            "class ResultSpec:\n"
            "    pass\n"
            "@dataclass\n"
            "class Accumulator:\n"
            "    total: int = 0\n"
        )
        assert self.rules_fired(source) == []


class TestMutableDefaultArg(RuleCase):
    RULE = MutableDefaultArgRule

    def test_literal_defaults_fire(self):
        fired = self.rules_fired(
            "def f(a=[], b={}, c=set()):\n    return a, b, c\n"
        )
        assert fired == ["mutable-default-arg"] * 3

    def test_keyword_only_default_fires(self):
        assert self.rules_fired("def f(*, hooks=[]):\n    return hooks\n") == [
            "mutable-default-arg"
        ]

    def test_immutable_defaults_pass(self):
        assert (
            self.rules_fired("def f(a=(), b=None, c='x', d=0):\n    return a, b, c, d\n")
            == []
        )


class TestPrintInLibrary(RuleCase):
    RULE = PrintInLibraryRule

    def test_bare_print_fires(self):
        assert self.rules_fired("print('debugging')\n") == ["print-in-library"]

    def test_print_in_function_fires(self):
        source = (
            "def run():\n"
            "    print('progress', 3)\n"
        )
        assert self.rules_fired(source, path="src/repro/campaign/executor.py") == [
            "print-in-library"
        ]

    def test_cli_homes_are_exempt(self):
        assert self.rules_fired("print('usage')\n", path="src/repro/cli.py") == []
        assert (
            self.rules_fired("print('lint')\n", path="src/repro/checks/cli.py") == []
        )

    def test_log_callback_and_shadowed_print_pass(self):
        source = (
            "def run(log):\n"
            "    log('progress')\n"
            "def other(print):\n"
            "    print('not the builtin')\n"
        )
        assert self.rules_fired(source) == []

    def test_pragma_suppresses(self):
        found, suppressed = check_source(
            "src/repro/core/victim.py",
            "print('meant it')  # repro: allow[print-in-library]\n",
            build_rules(),
        )
        assert found == []
        assert suppressed == 1


class TestRealTreeFixtures:
    """The shipped tree's deliberate patterns stay clean."""

    def test_linkmodels_fallback_is_suppressed_not_reported(self):
        found, suppressed = check_source(
            "src/repro/net/linkmodels.py",
            "import random\n"
            "rng = random.Random(0)  # repro: allow[unseeded-random]\n",
            build_rules(),
        )
        assert found == []
        assert suppressed == 1


class TestWallClockInTelemetry(RuleCase):
    RULE = WallClockInTelemetryRule

    def test_time_time_in_telemetry_fires(self):
        assert self.rules_fired(
            "import time\nt = time.time()\n",
            path="src/repro/telemetry/spans.py",
        ) == ["wall-clock-in-telemetry"]

    def test_datetime_now_fires(self):
        assert self.rules_fired(
            "from datetime import datetime\nstamp = datetime.now()\n",
            path="src/repro/telemetry/monitors.py",
        ) == ["wall-clock-in-telemetry"]

    def test_outside_telemetry_zone_is_the_sim_rules_problem(self):
        # The telemetry rule is zoned: the same read elsewhere is
        # covered (or deliberately not) by wall-clock-in-sim.
        assert "wall-clock-in-telemetry" not in self.rules_fired(
            "import time\nt = time.time()\n",
            path="src/repro/campaign/executor.py",
        )

    def test_slot_time_bookkeeping_is_fine(self):
        source = (
            "def record(self, now, counters):\n"
            "    self.last_slot = int(now)\n"
        )
        assert self.rules_fired(source, path="src/repro/telemetry/events.py") == []

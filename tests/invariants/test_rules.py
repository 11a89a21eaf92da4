"""The tree's determinism and architecture rules, as one tier-1 gate.

Seeded trace digests and campaign cell digests are byte-identical
across serial, parallel and chaos runs only while the code keeps a few
conventions: randomness through named streams, no wall clock in
simulation or telemetry paths, crash-atomic writes, frozen specs, one
pipeline that builds deployments.  Each convention is a rule here: a
function over a parsed :class:`Module` that yields ``(node, message)``
for every violation, listed in :data:`RULES` under its stable id.  The
rationale of each rule is the table in ``docs/static-analysis.md``.

The gate parses ``src/`` and ``examples/`` once per session and runs one
case per rule; a failure prints ``path:line:col: rule-id message``.  A
deliberate exception is a ``# repro: allow[rule-id]`` pragma (several
ids comma-separated) on the flagged line, or on a comment-only line
directly above it, with its reason beside it.  :data:`CASES` holds each
rule's planted violations and clean fixtures.
"""

import ast
import re
from collections import Counter, namedtuple
from functools import cached_property
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: The inline suppression pragma.
PRAGMA = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: An identifier inside a string constant.
WORD = re.compile(r"\w+")

#: Architecture-relative paths whose code runs inside seeded runs.
SIM_ZONE = (
    "repro/sim/",
    "repro/core/",
    "repro/baselines/",
    "repro/scenario/",
    "repro/attacks/",
    "repro/faults/",
    "repro/net/",
)

#: The one module that mints named streams from :mod:`random`.
RNG_HOME = "repro/sim/rng.py"

#: The one repro module that owns stdout.
CLI_HOME = "repro/cli.py"

WALL_CLOCKS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Entropy sources that can never be replayed from a seed.
NONDETERMINISTIC = ("os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.")

MUTABLE_FACTORIES = frozenset({
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
    "collections.deque",
})

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def used_names(trees):
    """How often each identifier is spelled in ``trees``: names,
    attributes, imported names and the words of string constants.  A
    ``def`` or ``class`` statement's own name, a module path and a
    docstring (any bare string statement) are not uses."""
    names = Counter()
    for tree in trees:
        prose = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                prose.add(id(node.value))
            elif isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in prose):
                names.update(WORD.findall(node.value))
    return names


class Module:
    """One parsed source file plus the lookups the rules need.

    ``path`` is what findings print; ``rel`` is the path from the
    ``repro/`` package on, which is what path-scoped rules match, so a
    file is judged the same under any prefix.  ``names`` counts the
    identifiers of the corpus a public definition must be used from:
    the module itself unless the gate assigns the tree's.
    """

    def __init__(self, path, source):
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        parts = Path(path).as_posix().split("/")
        self.rel = "/".join(parts[parts.index("repro"):]) if "repro" in parts else path

    @cached_property
    def names(self):
        return used_names([self.tree])

    @cached_property
    def imports(self):
        """Local name -> dotted origin (``import a.b`` binds ``a``)."""
        table = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    table[alias.asname or head] = alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table

    @cached_property
    def parents(self):
        return {
            child: parent
            for parent in ast.walk(self.tree)
            for child in ast.iter_child_nodes(parent)
        }

    @cached_property
    def calls(self):
        return [node for node in ast.walk(self.tree) if isinstance(node, ast.Call)]

    def resolve(self, node):
        """The dotted origin of a Name/Attribute chain, or ``None``: a
        builtin resolves to itself, an imported name through its import."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def enclosing_functions(self, node):
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, FUNCTIONS):
                yield current
            current = self.parents.get(current)

    def in_path(self, *prefixes):
        """A prefix ending in ``/`` matches a package subtree; any other
        must match the path exactly."""
        return any(
            self.rel.startswith(prefix) if prefix.endswith("/") else self.rel == prefix
            for prefix in prefixes
        )

    def allowed(self, line):
        """The rule ids a pragma on ``line``, or on a comment-only line
        directly above it, allows there."""
        texts = [self.lines[line - 1]]
        if line >= 2 and self.lines[line - 2].lstrip().startswith("#"):
            texts.append(self.lines[line - 2])
        ids = set()
        for match in filter(None, map(PRAGMA.search, texts)):
            ids.update(part.strip() for part in match.group(1).split(","))
        return ids


# -- the rules ----------------------------------------------------------------
def unseeded_random(module):
    if module.in_path(RNG_HOME):
        return
    for node in module.calls:
        origin = module.resolve(node.func)
        if origin is None:
            continue
        if origin.startswith("random."):
            yield node, (
                f"call to {origin}() bypasses the named-stream RNG "
                f"(use repro.sim.rng.RandomStreams / derive_seed)"
            )
        elif any(
            origin == source or (source.endswith(".") and origin.startswith(source))
            for source in NONDETERMINISTIC
        ):
            yield node, f"{origin}() is nondeterministic entropy; seeded runs cannot replay it"


def wall_clock(zone, where, instead):
    """One host-clock check, zoned: the simulation paths and telemetry
    each get their own rule id."""
    def rule(module):
        if not module.in_path(*zone):
            return
        for node in module.calls:
            origin = module.resolve(node.func)
            if origin in WALL_CLOCKS:
                yield node, f"{origin}() reads the wall clock inside {where}; {instead}"
    return rule


def builtin_hash(module):
    for node in module.calls:
        if not (isinstance(node.func, ast.Name) and node.func.id == "hash"):
            continue
        if any(fn.name == "__hash__" for fn in module.enclosing_functions(node)):
            continue
        yield node, (
            "builtin hash() depends on PYTHONHASHSEED and varies across "
            "processes; use repro.crypto.hashing for stable digests"
        )


def network_outside_scenario(module):
    if module.in_path("repro/scenario/"):
        return
    for node in module.calls:
        origin = module.resolve(node.func)
        if origin is not None and origin.split(".")[-1] == "TwoLayerDagNetwork":
            yield node, (
                "TwoLayerDagNetwork constructed outside repro.scenario; "
                "build deployments through ScenarioSpec + ScenarioRunner"
            )


def backend_bypass(module):
    if module.in_path("repro/baselines/", "repro/scenario/backends.py"):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # The bare package import is inert; costmodels stay allowed.
                if (alias.name.startswith("repro.baselines")
                        and alias.name != "repro.baselines"
                        and "costmodel" not in alias.name):
                    yield node, (
                        f"import {alias.name} reaches a live baseline module; "
                        f"use repro.scenario.create_backend"
                    )
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("repro.baselines")
              and "costmodel" not in node.module):
            for alias in node.names:
                yield node, (
                    f"from {node.module} import {alias.name} bypasses the ledger "
                    f"backend registry; use repro.scenario.create_backend "
                    f"(costmodel imports stay allowed)"
                )


def non_atomic_json_write(module):
    if module.in_path("repro/persistence.py"):
        return
    for node in module.calls:
        if module.resolve(node.func) not in ("open", "io.open"):
            continue
        mode = node.args[1] if len(node.args) >= 2 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None
        )
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & {"w", "x"}):
            yield node, (
                f"open(..., {mode.value!r}) truncates in place; use "
                f"repro.persistence.atomic_write_text so a crash cannot "
                f"leave a half-written file"
            )


def unfrozen_spec_dataclass(module):
    in_spec_module = module.rel.endswith("/spec.py")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not (in_spec_module or node.name.endswith(("Spec", "Params"))):
            continue
        for decorator in node.decorator_list:
            call = isinstance(decorator, ast.Call)
            target = decorator.func if call else decorator
            if module.resolve(target) not in ("dataclasses.dataclass", "dataclass"):
                continue
            frozen = call and any(
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            )
            if not frozen:
                yield node, (
                    f"spec dataclass {node.name} is not frozen=True; "
                    f"mutable specs break content-addressed digests"
                )


def mutable_default_arg(module):
    for node in ast.walk(module.tree):
        if not isinstance(node, FUNCTIONS):
            continue
        for default in node.args.defaults + node.args.kw_defaults:
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
            )) or (
                isinstance(default, ast.Call)
                and module.resolve(default.func) in MUTABLE_FACTORIES
            )
            if mutable:
                yield default, (
                    f"mutable default argument in {node.name}(); the object is "
                    f"shared across calls — default to None and build it "
                    f"inside the function"
                )


def print_in_library(module):
    if not module.rel.startswith("repro/") or module.in_path(CLI_HOME):
        return
    # A callback parameter named ``print`` is not the builtin.
    shadowed = set()
    for fn in ast.walk(module.tree):
        if isinstance(fn, FUNCTIONS):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            if any(param.arg == "print" for param in params):
                shadowed.update(id(node) for node in ast.walk(fn))
    for node in module.calls:
        if id(node) not in shadowed and module.resolve(node.func) == "print":
            yield node, (
                "print() writes to stdout from library code; return the "
                "data, take a log callback, or emit a telemetry event"
            )


def only_tests_call(module):
    """A public function or class of the package, or a public method of
    a public class, that nothing outside the tests spells."""
    if not module.rel.startswith("repro/"):
        return

    def unused(node):
        if node.name.startswith("_"):
            return False
        registered = any(
            (module.resolve(getattr(d, "func", d)) or "").split(".")[-1]
            .startswith("register_")
            for d in node.decorator_list
        )
        return not registered and module.names[node.name] == 0

    for node in module.tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and unused(node):
            yield node, (
                f"{node.name} is called only by tests; delete it, give it a "
                f"caller, or allow it with a reason"
            )
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and unused(member):
                    yield member, (
                        f"{node.name}.{member.name} is called only by tests; "
                        f"delete it, give it a caller, or allow it with a reason"
                    )

RULES = {
    "backend-bypass": backend_bypass,
    "builtin-hash-in-digest": builtin_hash,
    "mutable-default-arg": mutable_default_arg,
    "network-outside-scenario": network_outside_scenario,
    "non-atomic-json-write": non_atomic_json_write,
    "print-in-library": print_in_library,
    "test-only-public-name": only_tests_call,
    "unfrozen-spec-dataclass": unfrozen_spec_dataclass,
    "unseeded-random": unseeded_random,
    "wall-clock-in-sim": wall_clock(
        SIM_ZONE, "the simulation zone", "use kernel time (Simulator.now) instead"
    ),
    "wall-clock-in-telemetry": wall_clock(
        ("repro/telemetry/",), "the telemetry layer",
        "record the slot/kernel time the runner provides instead",
    ),
}


#: One rule violation; ``allowed`` when a pragma suppresses it.
Finding = namedtuple("Finding", "line col rule message allowed")


def findings(module, rule_ids=RULES):
    """Each finding of ``rule_ids`` in ``module``, in location order."""
    return sorted(
        Finding(node.lineno, node.col_offset + 1, rule_id, message,
                rule_id in module.allowed(node.lineno))
        for rule_id in rule_ids
        for node, message in RULES[rule_id](module)
    )


def describe(module, finding):
    return f"{module.path}:{finding.line}:{finding.col}: {finding.rule} {finding.message}"


# -- the gate -----------------------------------------------------------------
@pytest.fixture(scope="session")
def tree():
    """Every module of ``src/`` and ``examples/``, parsed once, judged
    against the names ``src/``, ``examples/`` and ``benchmarks/perf/`` use."""
    modules = [
        Module(path.relative_to(REPO).as_posix(), path.read_text(encoding="utf-8"))
        for top in ("src", "examples")
        for path in sorted((REPO / top).rglob("*.py"))
    ]
    harness = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "benchmarks/perf").rglob("*.py"))
    ]
    names = used_names([module.tree for module in modules] + harness)
    for module in modules:
        module.names = names
    return modules


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_the_tree_keeps_the_rule(rule_id, tree):
    reported = [
        describe(module, finding)
        for module in tree
        for finding in findings(module, [rule_id])
        if not finding.allowed
    ]
    assert reported == [], "\n" + "\n".join(reported)


def test_every_pragma_suppresses_a_finding(tree):
    # A pragma that silences nothing claims an exception the tree does
    # not make.  A pragma on a comment-only line covers the line below.
    idle = []
    for module in tree:
        fired = {(finding.line, finding.rule) for finding in findings(module)}
        for line, text in enumerate(module.lines, start=1):
            match = PRAGMA.search(text)
            if not match:
                continue
            covered = (line, line + 1) if text.lstrip().startswith("#") else (line,)
            for rule_id in (part.strip() for part in match.group(1).split(",")):
                if rule_id in RULES and not any((at, rule_id) in fired for at in covered):
                    idle.append(f"{module.path}:{line} {rule_id}")
    assert idle == []


def test_only_the_campaign_executor_reads_the_host_clock(tree):
    # Host-time measurement belongs to benchmarks/perf/ and the campaign
    # executor only.  The wall-clock rules are zoned; this is their
    # catalogue over the whole package with no zone.
    readers = {
        module.rel
        for module in tree
        if module.rel.startswith("repro/")
        and any(module.resolve(call.func) in WALL_CLOCKS for call in module.calls)
    }
    assert readers == {"repro/campaign/executor.py"}


def test_the_rule_ids_are_stable():
    # Ids appear in pragmas and in failure lines; renaming one is a
    # breaking change.
    assert sorted(RULES) == [
        "backend-bypass",
        "builtin-hash-in-digest",
        "mutable-default-arg",
        "network-outside-scenario",
        "non-atomic-json-write",
        "print-in-library",
        "test-only-public-name",
        "unfrozen-spec-dataclass",
        "unseeded-random",
        "wall-clock-in-sim",
        "wall-clock-in-telemetry",
    ]


def test_a_failure_reads_path_line_col_rule_message():
    module = Module("src/repro/core/victim.py", "import time\nt = time.time()\n")
    assert [describe(module, f) for f in findings(module)] == [
        "src/repro/core/victim.py:2:5: wall-clock-in-sim time.time() reads the "
        "wall clock inside the simulation zone; use kernel time "
        "(Simulator.now) instead"
    ]


def test_an_unparseable_file_errors():
    with pytest.raises(SyntaxError):
        Module("src/repro/core/victim.py", "def broken(:\n")


# -- planted violations and clean fixtures --------------------------------------
CORE = "src/repro/core/victim.py"
EXPERIMENT = "src/repro/experiments/x.py"
NETWORK = (
    "from repro.core.protocol import TwoLayerDagNetwork\n"
    "net = TwoLayerDagNetwork(nodes=4)\n"
)
RETRY_SPEC = "@dataclass\nclass RetrySpec:\n    tries: int = 3\n"

#: ``(rule id or None for every rule, path, source, expected ids)``.  A
#: finding a pragma silenced is expected as ``allow[rule-id]``.
CASES = {
    # unseeded-random
    "global-state-draw": ("unseeded-random", CORE,
        "import random\nx = random.random()\n", ["unseeded-random"]),
    "raw-random-construction": ("unseeded-random", CORE,
        "import random\nr = random.Random(7)\n", ["unseeded-random"]),
    "from-import": ("unseeded-random", CORE,
        "from random import randint\nx = randint(0, 9)\n", ["unseeded-random"]),
    "os-urandom-and-uuid4": ("unseeded-random", CORE,
        "import os\nimport uuid\nx = os.urandom(8)\ny = uuid.uuid4()\n",
        ["unseeded-random", "unseeded-random"]),
    "rng-home-exempt": ("unseeded-random", "src/repro/sim/rng.py",
        "import random\nstream = random.Random(42)\n", []),
    "stream-methods-fine": ("unseeded-random", CORE,
        "from repro.sim.rng import RandomStreams\n"
        "rng = RandomStreams(0).get('topology')\nx = rng.random()\n", []),
    # wall-clock-in-sim
    "time-in-core": ("wall-clock-in-sim", CORE,
        "import time\nt = time.time()\n", ["wall-clock-in-sim"]),
    "datetime-now-from-import": ("wall-clock-in-sim", CORE,
        "from datetime import datetime\nt = datetime.now()\n", ["wall-clock-in-sim"]),
    "perf-counter-outside-sim": ("wall-clock-in-sim", "src/repro/campaign/executor.py",
        "import time\nstart = time.perf_counter()\n", []),
    "sleep-is-no-clock-read": ("wall-clock-in-sim", CORE,
        "import time\ntime.sleep(0)\n", []),
    # wall-clock-in-telemetry
    "time-in-telemetry": ("wall-clock-in-telemetry", "src/repro/telemetry/spans.py",
        "import time\nt = time.time()\n", ["wall-clock-in-telemetry"]),
    "datetime-now-in-telemetry": ("wall-clock-in-telemetry",
        "src/repro/telemetry/monitors.py",
        "from datetime import datetime\nstamp = datetime.now()\n",
        ["wall-clock-in-telemetry"]),
    "telemetry-rule-is-zoned": ("wall-clock-in-telemetry",
        "src/repro/campaign/executor.py", "import time\nt = time.time()\n", []),
    "slot-time-bookkeeping": ("wall-clock-in-telemetry", "src/repro/telemetry/events.py",
        "def record(self, now, counters):\n    self.last_slot = int(now)\n", []),
    # builtin-hash-in-digest
    "hash-call": ("builtin-hash-in-digest", CORE,
        "key = hash('block')\n", ["builtin-hash-in-digest"]),
    "dunder-hash-delegation": ("builtin-hash-in-digest", CORE,
        "class BlockId:\n    def __hash__(self):\n        return hash(self.value)\n", []),
    "hashlib-fine": ("builtin-hash-in-digest", CORE,
        "import hashlib\nd = hashlib.sha256(b'x').hexdigest()\n", []),
    # network-outside-scenario
    "network-construction": ("network-outside-scenario", EXPERIMENT,
        NETWORK, ["network-outside-scenario"]),
    "network-in-scenario": ("network-outside-scenario",
        "src/repro/scenario/backends.py", NETWORK, []),
    "network-import-alone": ("network-outside-scenario", EXPERIMENT,
        "from repro.core.protocol import TwoLayerDagNetwork\n", []),
    # backend-bypass
    "live-cluster-import": ("backend-bypass", EXPERIMENT,
        "from repro.baselines.pbft.cluster import PbftCluster\n", ["backend-bypass"]),
    "live-package-root-import": ("backend-bypass", EXPERIMENT,
        "from repro.baselines import IotaNetwork\n", ["backend-bypass"]),
    "plain-module-import": ("backend-bypass", EXPERIMENT,
        "import repro.baselines.iota.node\n", ["backend-bypass"]),
    "costmodel-imports": ("backend-bypass", EXPERIMENT,
        "from repro.baselines.iota.costmodel import IotaCostModel\n"
        "from repro.baselines.pbft.costmodel import PbftCostModel\n", []),
    "baselines-package-exempt": ("backend-bypass", "src/repro/baselines/pbft/cluster.py",
        "from repro.baselines.pbft.replica import PbftReplica\n", []),
    "backend-registry-exempt": ("backend-bypass", "src/repro/scenario/backends.py",
        "from repro.baselines.pbft.cluster import PbftCluster\n", []),
    # non-atomic-json-write
    "truncating-open": ("non-atomic-json-write", CORE,
        "import json\nwith open('out.json', 'w') as fh:\n    json.dump({}, fh)\n",
        ["non-atomic-json-write"]),
    "mode-keyword-x": ("non-atomic-json-write", CORE,
        "fh = open('f', mode='x')\n", ["non-atomic-json-write"]),
    "read-and-append-modes": ("non-atomic-json-write", CORE,
        "a = open('f').read()\nb = open('f', 'r')\n"
        "with open('journal.jsonl', 'a') as fh:\n    fh.write('line')\n", []),
    "atomic-writer-home": ("non-atomic-json-write", "src/repro/persistence.py",
        "fh = open('f', 'w')\n", []),
    # unfrozen-spec-dataclass
    "spec-suffix": ("unfrozen-spec-dataclass", CORE,
        "from dataclasses import dataclass\n" + RETRY_SPEC, ["unfrozen-spec-dataclass"]),
    "any-name-in-spec-module": ("unfrozen-spec-dataclass", "src/repro/faults/spec.py",
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Limits:\n    cap: int = 1\n", ["unfrozen-spec-dataclass"]),
    "frozen-spec": ("unfrozen-spec-dataclass", CORE,
        "from dataclasses import dataclass\n@dataclass(frozen=True)\n"
        "class RetrySpec:\n    tries: int = 3\n", []),
    "non-dataclass-and-non-spec": ("unfrozen-spec-dataclass", CORE,
        "from dataclasses import dataclass\nclass ResultSpec:\n    pass\n"
        "@dataclass\nclass Accumulator:\n    total: int = 0\n", []),
    # mutable-default-arg
    "literal-defaults": ("mutable-default-arg", CORE,
        "def f(a=[], b={}, c=set()):\n    return a, b, c\n",
        ["mutable-default-arg"] * 3),
    "keyword-only-default": ("mutable-default-arg", CORE,
        "def f(*, hooks=[]):\n    return hooks\n", ["mutable-default-arg"]),
    "immutable-defaults": ("mutable-default-arg", CORE,
        "def f(a=(), b=None, c='x', d=0):\n    return a, b, c, d\n", []),
    # print-in-library
    "bare-print": ("print-in-library", CORE,
        "print('debugging')\n", ["print-in-library"]),
    "print-in-function": ("print-in-library", "src/repro/campaign/executor.py",
        "def run():\n    print('progress', 3)\n", ["print-in-library"]),
    "cli-home": ("print-in-library", "src/repro/cli.py", "print('usage')\n", []),
    "no-second-cli-home": ("print-in-library", "src/repro/checks/cli.py",
        "print('lint')\n", ["print-in-library"]),
    "log-callback-and-shadowed-print": ("print-in-library", CORE,
        "def run(log):\n    log('progress')\n"
        "def other(print):\n    print('not the builtin')\n", []),
    "print-pragma": (None, CORE,
        "print('meant it')  # repro: allow[print-in-library]\n",
        ["allow[print-in-library]"]),
    "examples-may-print": ("print-in-library", "examples/quickstart.py",
        "print('hello')\n", []),
    # test-only-public-name
    "uncalled-function": ("test-only-public-name", CORE,
        "def helper():\n    return 1\n", ["test-only-public-name"]),
    "called-function": ("test-only-public-name", CORE,
        "def helper():\n    return 1\nVALUE = helper()\n", []),
    "name-in-a-string": ("test-only-public-name", CORE,
        "def helper():\n    return 1\nKINDS = {'x': 'repro.core.victim:helper'}\n", []),
    "own-docstring-is-no-use": ("test-only-public-name", CORE,
        "def helper():\n    '''Call ``helper`` twice.'''\n", ["test-only-public-name"]),
    "docstring-elsewhere-is-no-use": ("test-only-public-name", CORE,
        "def helper():\n    return 1\nVALUE = 2\n'''Built by ``helper``.'''\n",
        ["test-only-public-name"]),
    "module-path-is-no-use": ("test-only-public-name", CORE,
        "from repro.metrics.cdf import empirical_cdf\nempirical_cdf()\n"
        "class Result:\n    def cdf(self):\n        return 1\nResult()\n",
        ["test-only-public-name"]),
    "uncalled-class-and-method": ("test-only-public-name", CORE,
        "class Store:\n    def by_index(self, i):\n        return i\n",
        ["test-only-public-name", "test-only-public-name"]),
    "uncalled-method": ("test-only-public-name", CORE,
        "class Store:\n    def by_index(self, i):\n        return i\nStore()\n",
        ["test-only-public-name"]),
    "private-and-dunder-exempt": ("test-only-public-name", CORE,
        "def _helper():\n    pass\nclass _Hidden:\n    def shown(self):\n        pass\n"
        "class Shown:\n    def __len__(self):\n        return 0\n"
        "    def _quiet(self):\n        pass\nShown()\n", []),
    "registered-exempt": ("test-only-public-name", "src/repro/scenario/backends.py",
        "@register_backend('iota')\nclass IotaBackend:\n    pass\n"
        "@registry.register_cell_kind('scenario')\ndef run_cell(cell):\n    pass\n", []),
    "outside-the-package": ("test-only-public-name", "examples/quickstart.py",
        "def main():\n    pass\n", []),
    "def-line-pragma": ("test-only-public-name", CORE,
        "def oracle():  # repro: allow[test-only-public-name] a test oracle\n"
        "    return 1\n", ["allow[test-only-public-name]"]),
    # pragmas
    "same-line-pragma": (None, CORE,
        "import random\nx = random.random()  # repro: allow[unseeded-random]\n",
        ["allow[unseeded-random]"]),
    "comment-line-above": (None, CORE,
        "import random\n# deliberate fixed draw\n# repro: allow[unseeded-random]\n"
        "x = random.random()\n", ["allow[unseeded-random]"]),
    "code-line-above-does-not": (None, CORE,
        "import random\ny = 1  # repro: allow[unseeded-random]\nx = random.random()\n",
        ["unseeded-random"]),
    "pragma-for-another-rule": (None, CORE,
        "import random\nx = random.random()  # repro: allow[wall-clock-in-sim]\n",
        ["unseeded-random"]),
    "comma-separated-ids": (None, CORE,
        "import random\nimport time\nx = random.random() + time.time()"
        "  # repro: allow[unseeded-random, wall-clock-in-sim]\n",
        ["allow[unseeded-random]", "allow[wall-clock-in-sim]"]),
    "multiline-import-at-statement-line": (None, CORE,
        "from repro.baselines.pbft.cluster import (  # repro: allow[backend-bypass]\n"
        "    PbftCluster,\n)\n", ["allow[backend-bypass]"]),
    "fallback-rng-pragma": (None, "src/repro/net/linkmodels.py",
        "import random\nrng = random.Random(0)  # repro: allow[unseeded-random]\n",
        ["allow[unseeded-random]"]),
    # resolution and paths
    "aliased-import": ("unseeded-random", CORE,
        "import random as rnd\nrnd.random()\n", ["unseeded-random"]),
    "from-import-alias": ("unseeded-random", CORE,
        "from os import urandom as u\nu(8)\n", ["unseeded-random"]),
    "dotted-import-binds-head": ("wall-clock-in-sim", CORE,
        "import datetime.datetime\ndatetime.datetime.now()\n", ["wall-clock-in-sim"]),
    "alias-of-a-dotted-import": ("network-outside-scenario", EXPERIMENT,
        "import repro.core.protocol as p\np.TwoLayerDagNetwork()\n",
        ["network-outside-scenario"]),
    "unresolvable-receiver": (None, CORE, "x = foo()()\n", []),
    "absolute-path-is-architecture-relative": ("unseeded-random",
        "/abs/prefix/src/repro/sim/rng.py",
        "import random\nstream = random.Random(42)\n", []),
    "package-prefix-is-no-sibling": ("wall-clock-in-sim", "src/repro/simulator.py",
        "import time\nt = time.time()\n", []),
    "file-exemption-is-no-prefix": ("unseeded-random", "src/repro/sim/rng.py/x.py",
        "import random\nrandom.random()\n", ["unseeded-random"]),
    "cli-home-is-no-prefix": ("print-in-library", "src/repro/cli.py/x.py",
        "print('x')\n", ["print-in-library"]),
    "findings-in-location-order": (None, CORE,
        "import random\nimport time\nb = time.time()\na = random.random()\n",
        ["wall-clock-in-sim", "unseeded-random"]),
}


@pytest.mark.parametrize(
    "rule_id, path, source, expected", list(CASES.values()), ids=list(CASES)
)
def test_case(rule_id, path, source, expected):
    module = Module(path, source)
    reported = [
        f"allow[{found.rule}]" if found.allowed else found.rule
        for found in findings(module, RULES if rule_id is None else [rule_id])
    ]
    assert reported == expected

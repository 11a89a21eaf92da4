"""The concrete invariants ``python -m repro lint`` enforces.

Each rule encodes one architecture invariant from ROADMAP.md /
docs/static-analysis.md as an AST check.  Rule ids are stable API: they
appear in findings, inline ``# repro: allow[...]`` pragmas and CI logs,
so renaming one is a breaking change.

The determinism contract the first three rules protect: seeded trace
digests and campaign cell digests must be byte-identical across
serial/parallel/chaos runs, which is only true if every stochastic or
environment-dependent value flows from the scenario's named streams
(:mod:`repro.sim.rng`) — never from global RNG state, wall clocks or
``PYTHONHASHSEED``.  The architecture rules keep deployments flowing
through the one spec -> runner -> backend pipeline, and the persistence
rule keeps result files crash-atomic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.checks.engine import (
    Finding,
    ModuleUnderCheck,
    Rule,
    build_rules,
    register_rule,
)

#: Paths (architecture-relative, see ``ModuleUnderCheck.rel``) that make
#: up the *simulation* zone: code here executes inside seeded runs, so
#: any nondeterminism leaks straight into trace digests.
SIM_ZONE = (
    "repro/sim/",
    "repro/core/",
    "repro/baselines/",
    "repro/scenario/",
    "repro/attacks/",
    "repro/faults/",
    "repro/net/",
)

#: The one module allowed to touch :mod:`random` directly: it is where
#: named streams are minted from the master seed.
RNG_HOME = "repro/sim/rng.py"


@register_rule
class UnseededRandomRule(Rule):
    """All randomness must flow through ``repro.sim.rng`` named streams."""

    id = "unseeded-random"
    summary = "randomness outside repro.sim.rng named streams"
    rationale = (
        "Global random.* state, os.urandom and uuid4 are invisible to the "
        "master seed: one stray draw reorders every later draw and silently "
        "changes seeded trace digests.  Derive a stream with "
        "RandomStreams.get(name) or a value with derive_seed/derive_unit."
    )

    #: Entropy sources that can never be replayed from a seed.
    NONDETERMINISTIC = ("os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.")

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if module.in_path(RNG_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.resolve(node.func)
            if origin is None:
                continue
            if origin.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"call to {origin}() bypasses the named-stream RNG "
                    f"(use repro.sim.rng.RandomStreams / derive_seed)",
                )
            elif any(
                origin == source or (source.endswith(".") and origin.startswith(source))
                for source in self.NONDETERMINISTIC
            ):
                yield self.finding(
                    module,
                    node,
                    f"{origin}() is nondeterministic entropy; seeded runs "
                    f"cannot replay it",
                )


@register_rule
class WallClockInSimRule(Rule):
    """Simulation paths must use simulated time, never the wall clock."""

    id = "wall-clock-in-sim"
    summary = "wall-clock read inside a simulation path"
    rationale = (
        "Simulated time comes from the event kernel; reading the host clock "
        "in sim/core/baselines/scenario code makes results depend on machine "
        "speed, breaking byte-identical replay.  Wall timing belongs to "
        "the campaign executor."
    )

    WALL_CLOCKS = frozenset(
        {
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
        }
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if not module.in_path(*SIM_ZONE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.resolve(node.func)
            if origin in self.WALL_CLOCKS:
                yield self.finding(
                    module,
                    node,
                    f"{origin}() reads the wall clock inside the simulation "
                    f"zone; use kernel time (Simulator.now) instead",
                )


@register_rule
class WallClockInTelemetryRule(Rule):
    """Telemetry records only simulated/slot time, never the host clock."""

    id = "wall-clock-in-telemetry"
    summary = "wall-clock read inside the telemetry layer"
    rationale = (
        "Telemetry streams, trace spans and monitor verdicts are pinned "
        "byte-for-byte in tests and CI; a host-clock timestamp anywhere in "
        "repro/telemetry/ would make recorded streams machine-dependent.  "
        "All times in streams are slot/kernel times handed in by the "
        "runner; wall timing belongs to the campaign executor."
    )

    #: Same host-clock catalogue as ``wall-clock-in-sim``.
    WALL_CLOCKS = WallClockInSimRule.WALL_CLOCKS

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if not module.in_path("repro/telemetry/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.resolve(node.func)
            if origin in self.WALL_CLOCKS:
                yield self.finding(
                    module,
                    node,
                    f"{origin}() reads the wall clock inside the telemetry "
                    f"layer; record the slot/kernel time the runner "
                    f"provides instead",
                )


@register_rule
class BuiltinHashRule(Rule):
    """The builtin ``hash()`` is PYTHONHASHSEED-dependent; digests must
    come from :mod:`repro.crypto.hashing`."""

    id = "builtin-hash-in-digest"
    summary = "PYTHONHASHSEED-dependent builtin hash()"
    rationale = (
        "hash() of a str/bytes changes across interpreter launches unless "
        "PYTHONHASHSEED is pinned; any digest, cache key or trace built on "
        "it differs between campaign workers.  Use repro.crypto.hashing "
        "(sha256) for content addressing.  __hash__ implementations "
        "delegating to hash() of their own fields are exempt — containers "
        "are iterated in insertion order, never hash order, in this tree."
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "hash"):
                continue
            if any(
                getattr(fn, "name", "") == "__hash__"
                for fn in module.enclosing_functions(node)
            ):
                continue
            yield self.finding(
                module,
                node,
                "builtin hash() depends on PYTHONHASHSEED and varies across "
                "processes; use repro.crypto.hashing for stable digests",
            )


@register_rule
class NetworkOutsideScenarioRule(Rule):
    """Deployments are built only by the scenario pipeline."""

    id = "network-outside-scenario"
    summary = "TwoLayerDagNetwork constructed outside repro.scenario"
    rationale = (
        "Every entry point goes spec -> ScenarioRunner -> backend; a "
        "hand-wired TwoLayerDagNetwork silently diverges from the presets "
        "(stream names, construction order) and its traces stop matching "
        "the golden digests.  Declare a ScenarioSpec instead."
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if module.in_path("repro/scenario/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.resolve(node.func)
            if origin is not None and origin.split(".")[-1] == "TwoLayerDagNetwork":
                yield self.finding(
                    module,
                    node,
                    "TwoLayerDagNetwork constructed outside repro.scenario; "
                    "build deployments through ScenarioSpec + ScenarioRunner",
                )


@register_rule
class BackendBypassRule(Rule):
    """Live baseline ledgers are reached only via the backend registry."""

    id = "backend-bypass"
    summary = "live baselines import outside the backend registry"
    rationale = (
        "PR 4 made pbft/iota registered LedgerBackends so every scenario is "
        "a three-ledger comparison; importing PbftCluster/IotaNetwork "
        "directly skips the registry's reseeding contract (identical "
        "topology per master seed).  Go through create_backend, or keep to "
        "the closed-form costmodels, which stay importable everywhere."
    )

    #: Importable from anywhere: pure closed-form cost models.
    ALLOWED_NAMES = frozenset({"PbftCostModel", "IotaCostModel"})

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if module.in_path("repro/baselines/", "repro/scenario/backends.py"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (
                        alias.name.startswith("repro.baselines")
                        and "costmodel" not in alias.name
                        and alias.name
                        not in ("repro.baselines",)  # bare package import is inert
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"import {alias.name} reaches a live baseline "
                            f"module; use repro.scenario.create_backend",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if not node.module.startswith("repro.baselines"):
                    continue
                if "costmodel" in node.module:
                    continue
                for alias in node.names:
                    if alias.name in self.ALLOWED_NAMES:
                        continue
                    yield self.finding(
                        module,
                        node,
                        f"from {node.module} import {alias.name} bypasses "
                        f"the ledger backend registry; use "
                        f"repro.scenario.create_backend (costmodel imports "
                        f"stay allowed)",
                    )


@register_rule
class NonAtomicWriteRule(Rule):
    """Result files are written atomically, never with a bare open()."""

    id = "non-atomic-json-write"
    summary = "truncating open() instead of atomic_write_text"
    rationale = (
        "open(path, 'w') truncates before writing: a campaign worker killed "
        "mid-write (or chaos doing it on purpose) leaves a corrupt partial "
        "file that poisons caches and reports.  "
        "repro.experiments.persistence.atomic_write_text stages a temp file "
        "and os.replace()s it, so readers see old-or-new, never a prefix.  "
        "Append-only journals (mode 'a', one JSONL line per write) are a "
        "different, deliberately incremental idiom and are not flagged."
    )

    #: Modes that truncate or create the destination in place.
    TRUNCATING = frozenset("wx")

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if module.in_path("repro/experiments/persistence.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.resolve(node.func)
            if origin not in ("open", "io.open"):
                continue
            mode = self._mode_argument(node)
            if mode is None:
                continue
            if any(flag in mode for flag in self.TRUNCATING):
                yield self.finding(
                    module,
                    node,
                    f"open(..., {mode!r}) truncates in place; use "
                    f"repro.experiments.persistence.atomic_write_text so a "
                    f"crash cannot leave a half-written file",
                )

    @staticmethod
    def _mode_argument(node: ast.Call) -> Optional[str]:
        mode: Optional[ast.expr]
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            mode = next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None


@register_rule
class UnfrozenSpecRule(Rule):
    """Spec dataclasses are frozen: digests hash their serialized form."""

    id = "unfrozen-spec-dataclass"
    summary = "spec dataclass without frozen=True"
    rationale = (
        "Scenario/campaign/fault/chaos specs are content-addressed: cell "
        "digests hash their canonical JSON, and runners assume a spec "
        "cannot drift after validation.  A mutable spec invalidates both.  "
        "Spec status is structural: any @dataclass in a spec.py module, or "
        "named *Spec/*Params anywhere, must pass frozen=True."
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        in_spec_module = module.rel.endswith("/spec.py")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            speclike = in_spec_module or node.name.endswith(("Spec", "Params"))
            if not speclike:
                continue
            decorator = self._dataclass_decorator(module, node)
            if decorator is None:
                continue
            if not self._is_frozen(decorator):
                yield self.finding(
                    module,
                    node,
                    f"spec dataclass {node.name} is not frozen=True; "
                    f"mutable specs break content-addressed digests",
                )

    @staticmethod
    def _dataclass_decorator(
        module: ModuleUnderCheck, node: ast.ClassDef
    ) -> Optional[ast.expr]:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            origin = module.resolve(target)
            if origin in ("dataclasses.dataclass", "dataclass"):
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is True
        return False


@register_rule
class MutableDefaultArgRule(Rule):
    """No mutable default arguments."""

    id = "mutable-default-arg"
    summary = "mutable default argument"
    rationale = (
        "A list/dict/set default is created once and shared by every call: "
        "state leaks between runs, which in this tree means between "
        "scenario cells that must be independent.  Default to None (or a "
        "tuple) and construct inside the function."
    )

    MUTABLE_FACTORIES = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.OrderedDict",
            "collections.Counter",
            "collections.deque",
        }
    )

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(module, default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); the "
                        f"object is shared across calls — default to None "
                        f"and build it inside the function",
                    )

    def _is_mutable(self, module: ModuleUnderCheck, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            origin = module.resolve(node.func)
            return origin in self.MUTABLE_FACTORIES
        return False


@register_rule
class PrintInLibraryRule(Rule):
    """Library code returns data or emits telemetry; it never prints."""

    id = "print-in-library"
    summary = "bare print() in library code"
    rationale = (
        "stdout belongs to the CLI: a print() buried in a runner, backend "
        "or experiment module corrupts machine-read output (campaign "
        "digest greps, --json reports) and is "
        "invisible to campaign workers.  Library code returns data, takes "
        "a log callback, or emits telemetry events "
        "(repro.telemetry) — only the CLI front-ends (repro/cli.py, "
        "repro/checks/cli.py) and code outside the repro package "
        "(examples, tests) may print."
    )

    #: The CLI front-ends, the only repro modules that own stdout.
    CLI_HOMES = ("repro/cli.py", "repro/checks/cli.py")

    @staticmethod
    def _shadowed_calls(tree: ast.AST) -> set:
        """Call nodes inside functions that take ``print`` as a parameter
        (a log callback named print is not the builtin)."""
        shadowed: set = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if args.vararg is not None:
                names.add(args.vararg.arg)
            if args.kwarg is not None:
                names.add(args.kwarg.arg)
            if "print" not in names:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    shadowed.add(id(node))
        return shadowed

    def check(self, module: ModuleUnderCheck) -> Iterator[Finding]:
        if not module.rel.startswith("repro/"):
            return
        if module.in_path(*self.CLI_HOMES):
            return
        shadowed = self._shadowed_calls(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in shadowed:
                continue
            if module.resolve(node.func) != "print":
                continue
            yield self.finding(
                module,
                node,
                "print() writes to stdout from library code; return the "
                "data, take a log callback, or emit a telemetry event",
            )


def rule_catalogue() -> Dict[str, Tuple[str, str]]:
    """id -> (summary, rationale) for docs and ``--list``."""
    return {rule.id: (rule.summary, rule.rationale) for rule in build_rules()}

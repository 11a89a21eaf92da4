"""Static determinism & architecture analysis (``python -m repro lint``).

A small AST rule engine enforcing the tree's architecture invariants at
diff time — the conventions the chaos harness can only probe
probabilistically are machine-checked here deterministically:

* all randomness flows through :mod:`repro.sim.rng` named streams
  (``unseeded-random``);
* simulation paths never read the wall clock (``wall-clock-in-sim``)
  or the PYTHONHASHSEED-dependent builtin ``hash()``
  (``builtin-hash-in-digest``);
* deployments are built only by the scenario pipeline
  (``network-outside-scenario``) and ledgers reached only through the
  backend registry (``backend-bypass``);
* result files are written crash-atomically (``non-atomic-json-write``);
* spec dataclasses stay frozen (``unfrozen-spec-dataclass``) and no
  function shares a mutable default (``mutable-default-arg``).

Every finding fails the gate; the one way to record a deliberate
exception is the inline ``# repro: allow[rule-id]`` pragma.  See
``docs/static-analysis.md`` for the full catalogue.  The engine lives in
:mod:`repro.checks.engine`, the concrete rules in
:mod:`repro.checks.rules`.
"""

from repro.checks.cli import run_lint
from repro.checks.engine import (
    CheckError,
    CheckReport,
    Finding,
    ModuleUnderCheck,
    Rule,
    build_rules,
    check_paths,
    check_source,
    register_rule,
)
from repro.checks.report import render_rule_list, render_text
from repro.checks.rules import rule_catalogue

__all__ = [
    "CheckError",
    "CheckReport",
    "Finding",
    "ModuleUnderCheck",
    "Rule",
    "build_rules",
    "check_paths",
    "check_source",
    "register_rule",
    "render_rule_list",
    "render_text",
    "rule_catalogue",
    "run_lint",
]

"""The rule engine behind ``python -m repro lint``.

The reproduction's determinism and crash-safety guarantees rest on
conventions — all randomness through named streams, no wall clocks in
simulation paths, atomic JSON persistence — that the chaos harness can
only probe probabilistically.  This engine checks them *statically*: a
:class:`Rule` inspects one parsed module and yields :class:`Finding`
records; the engine walks a file tree, applies every registered rule,
honours inline ``# repro: allow[rule-id]`` suppressions, and reports
stable ``path:line`` findings.  Every finding fails the gate.

Rules are registered with :func:`register_rule` under a stable string
id (``unseeded-random``, ``non-atomic-json-write``, …); the concrete
invariants live in :mod:`repro.checks.rules`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

#: The inline suppression pragma: ``# repro: allow[rule-id]`` (several
#: ids comma-separated).  It silences matching findings on its own line
#: or, when the pragma stands on a comment-only line, on the next line.
_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: The synthetic rule id findings about unparseable files carry.
PARSE_ERROR_RULE = "parse-error"


class CheckError(Exception):
    """A lint invocation that cannot run (missing or unreadable path)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a ``path:line:col`` location.

    Ordering is by location then rule id, which is the stable order
    reports use.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def describe(self) -> str:
        """The canonical one-line text rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Rule:
    """One statically checkable invariant.

    Subclasses define the stable ``id``, a one-line ``summary`` and a
    ``rationale`` (both surfaced by ``--list`` and the docs), and
    implement :meth:`check` over a parsed module.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, module: "ModuleUnderCheck") -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for mypy

    def finding(
        self, module: "ModuleUnderCheck", node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` anchored at ``node`` in ``module``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def _ensure_rules_loaded() -> None:
    # The concrete rules register themselves on import; resolving them
    # lazily keeps engine <-> rules imports acyclic.
    import repro.checks.rules  # noqa: F401  (imported for registration)


class ModuleUnderCheck:
    """One parsed source file plus the lookups rules need.

    ``path`` is the path findings report (as discovered, POSIX
    separators); ``rel`` is the module's *architecture-relative* path —
    the portion starting at the ``repro/`` package when present — which
    is what path-scoped rules match against, so checks behave the same
    whether the tree is linted as ``src``, ``src/repro`` or an absolute
    path.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        self.rel = _architecture_relative(path)
        self._imports: Optional[Dict[str, str]] = None
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # -- lookups -----------------------------------------------------------
    @property
    def imports(self) -> Mapping[str, str]:
        """Local name -> dotted origin for every import in the module.

        ``import random`` maps ``random -> random``; ``from os import
        urandom as u`` maps ``u -> os.urandom``.  Later imports of the
        same name win, matching runtime rebinding closely enough for
        invariant checking.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            table[alias.asname] = alias.name
                        else:
                            # ``import a.b.c`` binds ``a``; deeper
                            # segments resolve through the attribute
                            # chain walker in :meth:`resolve`.
                            head = alias.name.split(".")[0]
                            table[head] = head
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        table[local] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    @property
    def parents(self) -> Mapping[ast.AST, ast.AST]:
        """Child -> parent for every node in the tree (built lazily)."""
        if self._parents is None:
            table: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    table[child] = parent
            self._parents = table
        return self._parents

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted origin of a Name/Attribute chain, or ``None``.

        A bare builtin resolves to itself (``open`` -> ``"open"``); an
        imported name resolves through :attr:`imports` (``Random`` ->
        ``"random.Random"`` after ``from random import Random``).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.imports.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def enclosing_functions(self, node: ast.AST) -> Iterator[ast.AST]:
        """The function definitions ``node`` sits inside, innermost first."""
        parents = self.parents
        current: Optional[ast.AST] = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield current
            current = parents.get(current)

    def in_path(self, *prefixes: str) -> bool:
        """Whether this module's architecture-relative path matches.

        A prefix ending in ``/`` matches a package subtree; any other
        prefix must match the path exactly.
        """
        for prefix in prefixes:
            if prefix.endswith("/"):
                if self.rel.startswith(prefix):
                    return True
            elif self.rel == prefix:
                return True
        return False

    # -- suppressions ------------------------------------------------------
    def suppressed_ids(self, line: int) -> Set[str]:
        """The rule ids an ``allow`` pragma silences on ``line``.

        A pragma counts when it sits on the line itself or on a
        comment-only line directly above it.
        """
        ids = self._pragma_ids(line)
        if line >= 2:
            above = self.lines[line - 2].strip()
            if above.startswith("#"):
                ids |= self._pragma_ids(line - 1)
        return ids

    def _pragma_ids(self, line: int) -> Set[str]:
        if not 1 <= line <= len(self.lines):
            return set()
        match = _PRAGMA.search(self.lines[line - 1])
        if not match:
            return set()
        return {part.strip() for part in match.group(1).split(",") if part.strip()}


def _architecture_relative(path: str) -> str:
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return Path(path).as_posix()


@dataclass
class CheckReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def summary(self) -> str:
        """The one-line run summary the CLI prints last."""
        return (
            f"{self.files_checked} file(s) checked: "
            f"{len(self.findings)} finding(s), {self.suppressed} suppressed"
        )


def build_rules() -> List[Rule]:
    """One instance of every registered rule, in id order."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def discover_files(paths: Sequence[str]) -> List[Path]:
    """The python files under ``paths`` (files verbatim, dirs recursed)."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise CheckError(f"no such file or directory: {raw}")
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def check_source(
    path: str, source: str, rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Check one in-memory module; returns (findings, suppressed count)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        finding = Finding(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 0) or 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], 0
    module = ModuleUnderCheck(path, source, tree)
    kept: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(module):
            if finding.rule in module.suppressed_ids(finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    return sorted(kept), suppressed


def check_paths(paths: Sequence[str]) -> CheckReport:
    """Lint ``paths`` with every registered rule."""
    rules = build_rules()
    report = CheckReport()
    for file_path in discover_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise CheckError(f"cannot read {file_path}: {error}")
        findings, suppressed = check_source(
            file_path.as_posix(), source, rules
        )
        report.files_checked += 1
        report.suppressed += suppressed
        report.findings.extend(findings)
    report.findings.sort()
    return report

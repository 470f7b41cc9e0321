"""Checker framework for reprolint.

The framework is deliberately small and dependency-free (stdlib ``ast`` +
``tokenize`` only):

* :class:`Finding` — one diagnostic (path, line, col, rule code, message);
* :class:`Checker` — base class; subclasses declare the rule codes they emit
  and implement :meth:`Checker.check` over one parsed module; checkers that
  need cross-module analysis override :meth:`Checker.prepare`, which runs
  once per lint with every module and the project index in hand;
* :func:`register` — decorator adding a checker class to the global registry;
* :class:`ModuleInfo` — a parsed source file plus the comment-derived side
  tables every checker needs: suppression lines (``# reprolint:
  disable=CODE``), hot-block markers (``# reprolint: hot``) and
  worker-boundary markers (``# reprolint: boundary[=ErrorType]``);
* :class:`ProjectIndex` — cross-file facts collected in a first pass over
  every linted module: the dataclass-field/default index the hash-stability
  family cross-checks serializers against, the project-wide
  :class:`~tools.reprolint.symbols.SymbolTable` (imports, classes, call
  resolution) behind the dataflow and exception-contract families;
* :func:`lint_paths` / :func:`lint_sources` — the two entry points: walk
  files, build the index, run every registered checker, drop suppressed
  findings (optionally reporting suppressions that no longer suppress
  anything as REP002).

Suppression semantics: a ``# reprolint: disable=REP101`` (comma-separated
codes, or ``all``) trailing comment suppresses matching findings on its own
line; when the comment stands on a line of its own it applies to the next
line that holds code.  Suppressions are intentionally line-scoped — a
file- or block-wide opt-out would defeat the point of the tool.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from tools.reprolint.symbols import SymbolTable

__all__ = [
    "Checker",
    "Finding",
    "FRAMEWORK_RULES",
    "ModuleInfo",
    "ProjectIndex",
    "all_rules",
    "findings_to_json",
    "lint_paths",
    "lint_sources",
    "register",
    "registered_checkers",
]

#: ``# reprolint: <directive>`` comment.  The directive is ``hot``,
#: ``boundary[=ErrorType]`` or
#: ``disable=CODE[,CODE...]``; anything after ``--`` is a human justification.
_DIRECTIVE = re.compile(r"#\s*reprolint:\s*(?P<body>[^#]*)")
_DISABLE = re.compile(r"disable\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)")
_HOT = re.compile(r"\bhot\b")
_BOUNDARY = re.compile(r"\bboundary(?:\s*=\s*(?P<error>[A-Za-z_][A-Za-z0-9_.]*))?")

#: Rules emitted by the framework itself rather than a registered checker.
FRAMEWORK_RULES: Dict[str, str] = {
    "REP001": "file does not parse (syntax error)",
    "REP002": "unused suppression: the disabled code no longer fires on "
    "the target line",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the text output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-output form (see ``docs/static-analysis.md`` for the schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass(frozen=True)
class SuppressionDirective:
    """One ``# reprolint: disable=...`` comment, kept for unused-disable audit."""

    #: Line the comment itself sits on (where REP002 is reported).
    directive_line: int
    #: Line whose findings it suppresses (same line, or the next for
    #: standalone comments).
    target_line: int
    codes: Tuple[str, ...]


@dataclass
class ModuleInfo:
    """One parsed source file plus comment-derived side tables."""

    path: str
    source: str
    tree: ast.Module
    #: line -> set of rule codes disabled there (``{"all"}`` disables all).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: lines carrying a ``# reprolint: hot`` marker.
    hot_lines: Set[int] = field(default_factory=set)
    #: line -> declared wrapper error type ("" = catch-all contract) for
    #: ``# reprolint: boundary[=ErrorType]`` markers.
    boundary_lines: Dict[int, str] = field(default_factory=dict)
    #: every disable directive, for ``--report-unused-disables``.
    directives: List[SuppressionDirective] = field(default_factory=list)

    @property
    def is_sim_path(self) -> bool:
        """Whether this module is simulation code (under the ``repro`` package).

        Determinism rules about wall-clock time apply only to simulation
        code; tools and examples legitimately read real time.
        """
        return "repro" in Path(self.path).parts

    @property
    def filename(self) -> str:
        return Path(self.path).name

    def suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line)
        if not codes:
            return False
        return "all" in codes or finding.code in codes


class ProjectIndex:
    """Cross-file facts shared by every checker.

    Two tables:

    * ``dataclasses`` maps a dataclass name to ``{field_name: default}``
      where the default is the literal default value when it is statically
      known, :data:`HAS_DEFAULT` for ``field(...)`` defaults whose value is
      not a literal, and :data:`NO_DEFAULT` for required fields;
    * ``symbols`` — the project-wide :class:`~tools.reprolint.symbols.SymbolTable`
      (modules, classes, functions, import bindings, call resolution) built
      once over every linted module.
    """

    #: Sentinel: field has a default but its value is not a literal.
    HAS_DEFAULT = object()
    #: Sentinel: field has no default (required).
    NO_DEFAULT = object()

    def __init__(self) -> None:
        self.dataclasses: Dict[str, Dict[str, object]] = {}
        self.symbols = SymbolTable()
        self.modules: List[ModuleInfo] = []

    # ------------------------------------------------------------- building
    def add_module(self, module: ModuleInfo) -> None:
        self.modules.append(module)
        self.symbols.add_module(module.path, module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                self.dataclasses[node.name] = _dataclass_fields(node)

    # -------------------------------------------------------------- queries
    def fields_of(self, class_name: str) -> Optional[Dict[str, object]]:
        """Field table of a known dataclass, or None."""
        return self.dataclasses.get(class_name)

    def module_by_name(self, module_name: str) -> Optional[ModuleInfo]:
        """The linted module with the given dotted name, if any."""
        path = self.symbols.module_paths.get(module_name)
        if path is None:
            return None
        for module in self.modules:
            if module.path == path:
                return module
        return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _literal_default(node: ast.expr) -> object:
    """The constant value of a default expression, or HAS_DEFAULT if dynamic."""
    if isinstance(node, ast.Constant):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return -node.operand.value
    return ProjectIndex.HAS_DEFAULT


def _dataclass_fields(node: ast.ClassDef) -> Dict[str, object]:
    table: Dict[str, object] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if stmt.value is None:
            table[name] = ProjectIndex.NO_DEFAULT
        elif (
            isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "field"
        ):
            default: object = ProjectIndex.NO_DEFAULT
            for keyword in stmt.value.keywords:
                if keyword.arg == "default":
                    default = _literal_default(keyword.value)
                elif keyword.arg == "default_factory":
                    default = ProjectIndex.HAS_DEFAULT
            table[name] = default
        else:
            table[name] = _literal_default(stmt.value)
    return table


class Checker:
    """Base class for one rule family.

    Subclasses set :attr:`rules` (code -> one-line description) and
    implement :meth:`check`, yielding :class:`Finding` objects.  Register
    with the :func:`register` decorator.
    """

    #: Human name of the family, e.g. ``"determinism"``.
    name: str = ""
    #: code -> one-line description of every rule this checker can emit.
    rules: Dict[str, str] = {}

    def prepare(self, project: ProjectIndex) -> None:
        """One-time cross-module pass, called before any :meth:`check`.

        Checkers that analyze the whole project (dataflow) compute
        their per-module findings here and replay them from :meth:`check`.
        """

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def finding(self, module: ModuleInfo, node: ast.AST, code: str, message: str) -> Finding:
        if code not in self.rules:  # pragma: no cover - checker authoring bug
            raise ValueError(f"{type(self).__name__} emitted unregistered code {code}")
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


_CHECKERS: List[Type[Checker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    overlap = set(cls.rules) & set(all_rules())
    if overlap:  # pragma: no cover - checker authoring bug
        raise ValueError(f"rule codes {sorted(overlap)} registered twice")
    _CHECKERS.append(cls)
    return cls


def registered_checkers() -> List[Type[Checker]]:
    """The registered checker classes, in registration order."""
    return list(_CHECKERS)


def all_rules() -> Dict[str, str]:
    """code -> description across the framework and every registered checker."""
    table: Dict[str, str] = dict(FRAMEWORK_RULES)
    for cls in _CHECKERS:
        table.update(cls.rules)
    return table


# ---------------------------------------------------------------- comments
def _scan_comments(module: ModuleInfo) -> None:
    """Populate the comment-derived side tables from the token stream.

    Fills suppressions, hot/boundary marker lines and the directive
    list.  Tokenizing (rather than regexing raw lines) means directives
    inside string literals are never honoured.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(module.source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(token.string)
        if match is None:
            continue
        body = match.group("body").split("--")[0]
        line = token.start[0]
        standalone = token.line.strip().startswith("#")
        if _HOT.search(body):
            module.hot_lines.add(line)
        boundary = _BOUNDARY.search(body)
        if boundary:
            module.boundary_lines[line] = boundary.group("error") or ""
        disable = _DISABLE.search(body)
        if disable:
            codes = {c.strip() for c in disable.group("codes").split(",") if c.strip()}
            target = line + 1 if standalone else line
            module.suppressions.setdefault(target, set()).update(codes)
            module.directives.append(
                SuppressionDirective(line, target, tuple(sorted(codes)))
            )


# ------------------------------------------------------------------ running
def _parse_module(path: str, source: str) -> Tuple[Optional[ModuleInfo], Optional[Finding]]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code="REP001",
            message=f"syntax error: {exc.msg}",
        )
    module = ModuleInfo(path, source, tree)
    _scan_comments(module)
    return module, None


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # De-duplicate while keeping order (a file given twice is linted once).
    unique: List[Path] = []
    seen: Set[Path] = set()
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _unused_disables(module: ModuleInfo, raw: List[Finding]) -> Iterator[Finding]:
    """REP002 findings for disable directives that suppress nothing."""
    by_line: Dict[int, Set[str]] = {}
    for finding in raw:
        by_line.setdefault(finding.line, set()).add(finding.code)
    for directive in module.directives:
        fired = by_line.get(directive.target_line, set())
        for code in directive.codes:
            used = bool(fired) if code == "all" else code in fired
            if not used:
                label = "disable=all" if code == "all" else f"disable={code}"
                yield Finding(
                    path=module.path,
                    line=directive.directive_line,
                    col=0,
                    code="REP002",
                    message=f"unused suppression {label!r}: nothing fires on "
                    f"line {directive.target_line}; delete the stale directive",
                )


def lint_sources(
    sources: Dict[str, str],
    select: Optional[Iterable[str]] = None,
    *,
    report_unused_disables: bool = False,
) -> List[Finding]:
    """Lint in-memory sources (``path -> text``).  The test-friendly core.

    ``select`` restricts output to the given rule codes or code prefixes
    (``"REP1"`` selects the whole determinism family).  With
    ``report_unused_disables``, disable directives whose codes no longer
    fire on their target line are reported as REP002.
    """
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path, text in sources.items():
        module, error = _parse_module(path, text)
        if error is not None:
            findings.append(error)
        if module is not None:
            modules.append(module)

    project = ProjectIndex()
    for module in modules:
        project.add_module(module)

    checkers = [cls() for cls in _CHECKERS]
    for checker in checkers:
        checker.prepare(project)
    for module in modules:
        raw: List[Finding] = []
        for checker in checkers:
            raw.extend(checker.check(module, project))
        findings.extend(f for f in raw if not module.suppressed(f))
        if report_unused_disables:
            findings.extend(_unused_disables(module, raw))

    if select is not None:
        wanted = tuple(select)
        findings = [f for f in findings if f.code.startswith(wanted)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    *,
    report_unused_disables: bool = False,
) -> List[Finding]:
    """Lint files and directories; the CLI entry point calls this."""
    sources: Dict[str, str] = {}
    for path in collect_files(paths):
        sources[str(path)] = path.read_text(encoding="utf-8")
    return lint_sources(
        sources,
        select=select,
        report_unused_disables=report_unused_disables,
    )


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Render findings as the stable JSON schema consumed by CI tooling."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    payload = {
        "version": 1,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "total": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# Checker modules register themselves on import; imported last so the
# registry and base classes above exist when they do.
from tools.reprolint import checkers as _checkers  # noqa: E402,F401  (registration side effect)

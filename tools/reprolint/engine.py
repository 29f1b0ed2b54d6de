"""reprolint core: module contexts, the rule protocol, and the runner.

The engine owns everything rule-agnostic:

* discovering ``*.py`` files under the configured paths;
* parsing each file once into a :class:`ModuleContext` — AST with parent
  links, comment map, ``# guarded-by:`` annotations and
  ``# reprolint: disable=`` suppressions extracted via :mod:`tokenize`;
* running every enabled rule's per-module pass, then its project-wide
  ``finalize`` pass (rules that correlate across modules, e.g. OBS001's
  register-once check, report there);
* applying inline suppressions and rendering human or JSON output.

Suppression syntax (same line as the finding)::

    something_racy()  # reprolint: disable=LOCK001 -- repr is informational
    other()           # reprolint: disable=all -- generated code

The ``-- reason`` is part of the contract: suppressions without one still
suppress, but the missing reason is surfaced in both output formats so
review catches it.
"""

from __future__ import annotations

import ast
import json
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from reprolint.findings import Finding
from reprolint.stats import RunStats

if TYPE_CHECKING:  # a type-only cycle: program.py imports ModuleContext
    from reprolint.program import ProgramModel

#: ``# guarded-by: _wakeup`` — declares the lock guarding the attribute
#: assigned on this line.  Rules read these through
#: :meth:`ModuleContext.guard_for_line`.
_GUARD_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

#: ``# reprolint: disable=RULE1,RULE2 -- reason`` (or ``disable=all``).
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?|all)"
    r"\s*(?:--\s*(?P<reason>.*))?$"
)

_PARENT_ATTR = "_reprolint_parent"


@dataclass(frozen=True)
class Suppression:
    rules: frozenset[str] | None  # None means ``all``
    reason: str

    def covers(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules


class ModuleContext:
    """Everything a rule needs to know about one parsed source file."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath  # POSIX, relative to the project root
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.module_name = _module_name(relpath)
        self.comments: dict[int, str] = {}
        self.guards: dict[int, str] = {}
        self.suppressions: dict[int, Suppression] = {}
        self._collect_comments()
        _link_parents(self.tree)

    def _collect_comments(self) -> None:
        lines = self.source.splitlines(keepends=True)
        try:
            tokens = tokenize.generate_tokens(iter(lines).__next__)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                line = tok.start[0]
                self.comments[line] = tok.string
                guard = _GUARD_RE.search(tok.string)
                if guard:
                    self.guards[line] = guard.group("lock")
                supp = _SUPPRESS_RE.search(tok.string)
                if supp:
                    raw = supp.group("rules").strip()
                    rules = (
                        None
                        if raw == "all"
                        else frozenset(
                            part.strip()
                            for part in raw.split(",")
                            if part.strip()
                        )
                    )
                    self.suppressions[line] = Suppression(
                        rules, (supp.group("reason") or "").strip()
                    )
        except tokenize.TokenError:
            pass  # unterminated strings etc.: the ast parse already passed

    def guard_for_line(self, lineno: int, end_lineno: int | None = None) -> str | None:
        """The ``guarded-by`` lock annotated on any line of this span."""
        for line in range(lineno, (end_lineno or lineno) + 1):
            if line in self.guards:
                return self.guards[line]
        return None

    # -- AST navigation helpers (rules share these) ---------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return getattr(node, _PARENT_ATTR, None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def enclosing_method(
        self, node: ast.AST, cls: ast.ClassDef
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The *outermost* function between ``node`` and ``cls`` — the
        method itself even when the access sits in a nested closure."""
        method = None
        for anc in self.ancestors(node):
            if anc is cls:
                break
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = anc
        return method

    def held_locks(self, node: ast.AST) -> set[str]:
        """Names X for every enclosing ``with self.X:`` block."""
        held: set[str] = set()
        for anc in self.ancestors(node):
            if not isinstance(anc, (ast.With, ast.AsyncWith)):
                continue
            for item in anc.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    held.add(expr.attr)
        return held

    def in_type_checking_block(self, node: ast.AST) -> bool:
        for anc in self.ancestors(node):
            if isinstance(anc, ast.If) and _is_type_checking_test(anc.test):
                return True
        return False


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_name(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT_ATTR, node)


class Rule:
    """Base class every lint rule extends.

    ``check_module`` runs once per file; ``finalize`` runs once per
    project after every module pass, for rules whose invariant spans
    modules; ``check_program`` runs once per project with the
    whole-program :class:`~reprolint.program.ProgramModel` (symbol
    table, lock inventory, call graph) — the model is only built when
    at least one enabled rule overrides it.  Any of the three may yield
    :class:`Finding` objects (the engine fills in suppression state
    afterwards).

    ``rationale`` and ``fix_recipe`` back ``repro lint --explain``:
    the first says which historical bug class the rule encodes, the
    second how to fix a finding.
    """

    id: str = "RULE000"
    summary: str = ""
    rationale: str = ""
    fix_recipe: str = ""

    def configure(self, options: dict[str, object]) -> None:
        """Apply this rule's ``[tool.reprolint.<id>]`` table (optional)."""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def finalize(self) -> Iterable[Finding]:
        return ()

    def check_program(self, program: "ProgramModel") -> Iterable[Finding]:
        """Whole-program pass over the shared :class:`ProgramModel`."""
        return ()

    def finding(
        self,
        ctx_or_path: "ModuleContext | str",
        node: ast.AST | None,
        message: str,
        hint: str = "",
        line: int | None = None,
        col: int | None = None,
    ) -> Finding:
        path = (
            ctx_or_path
            if isinstance(ctx_or_path, str)
            else ctx_or_path.relpath
        )
        if node is not None:
            line = getattr(node, "lineno", line) or 0
            col = getattr(node, "col_offset", col) or 0
        return Finding(
            path=path,
            line=line or 0,
            col=col or 0,
            rule=self.id,
            message=message,
            hint=hint,
        )


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [
            f for f in self.findings if not f.suppressed and not f.baselined
        ]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.baselined]

    def to_json(self, stats: RunStats | None = None) -> str:
        payload: dict[str, object] = {
            "tool": "reprolint",
            "files_checked": self.files_checked,
            "errors": self.errors,
            "findings": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
        }
        if stats is not None:
            payload["stats"] = stats.to_dict()
        return json.dumps(payload, indent=2)

    def format_human(self) -> str:
        lines = [f.format_human() for f in self.active]
        lines.extend(f.format_human() for f in self.suppressed)
        lines.extend(f.format_human() for f in self.baselined)
        lines.extend(f"error: {err}" for err in self.errors)
        n = len(self.active)
        lines.append(
            f"reprolint: {self.files_checked} files,"
            f" {n} finding{'s' if n != 1 else ''}"
            f" ({len(self.suppressed)} suppressed,"
            f" {len(self.baselined)} baselined)"
        )
        return "\n".join(lines)


def discover_files(
    root: Path, paths: Iterable[str], exclude: Iterable[str]
) -> list[Path]:
    exclude = tuple(exclude)
    files: list[Path] = []
    for entry in paths:
        target = (root / entry).resolve()
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            continue
        for path in candidates:
            rel = path.relative_to(root).as_posix()
            if any(rel.startswith(prefix) for prefix in exclude):
                continue
            files.append(path)
    # De-duplicate while keeping order (overlapping path arguments).
    seen: set[Path] = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def run_rules(
    root: Path,
    files: Iterable[Path],
    rules: Iterable[Rule],
    stats: RunStats | None = None,
) -> LintResult:
    """Parse ``files`` and run ``rules`` over them.

    ``stats`` (optional) accumulates parse and per-rule timings.
    """
    stats = stats if stats is not None else RunStats()
    result = LintResult()
    rules = list(rules)
    contexts: list[ModuleContext] = []
    t0 = time.perf_counter()
    for path in files:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(ModuleContext(path, rel, source))
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: {exc}")
    stats.parse_seconds += time.perf_counter() - t0
    result.files_checked = len(contexts)
    raw: list[tuple[Finding, ModuleContext | None]] = []
    for ctx in contexts:
        for rule in rules:
            t0 = time.perf_counter()
            found = list(rule.check_module(ctx))
            stats.add(rule.id, time.perf_counter() - t0)
            for finding in found:
                raw.append((finding, ctx))
    by_path = {ctx.relpath: ctx for ctx in contexts}
    for rule in rules:
        t0 = time.perf_counter()
        for finding in rule.finalize():
            raw.append((finding, by_path.get(finding.path)))
        stats.add(rule.id, time.perf_counter() - t0)
    if any(
        type(rule).check_program is not Rule.check_program for rule in rules
    ):
        # Imported here: program.py needs ModuleContext from this module.
        from reprolint.program import ProgramModel

        t0 = time.perf_counter()
        program = ProgramModel(contexts)
        stats.add("(program-model)", time.perf_counter() - t0)
        for rule in rules:
            t0 = time.perf_counter()
            for finding in rule.check_program(program):
                raw.append((finding, by_path.get(finding.path)))
            stats.add(rule.id, time.perf_counter() - t0)
    for finding, ctx in raw:
        if ctx is not None:
            supp = ctx.suppressions.get(finding.line)
            if supp is not None and supp.covers(finding.rule):
                finding = Finding(
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    rule=finding.rule,
                    message=finding.message,
                    hint=finding.hint,
                    suppressed=True,
                    suppress_reason=supp.reason,
                )
        result.findings.append(finding)
    result.findings.sort()
    return result

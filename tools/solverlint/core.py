"""Rule registry, pragma handling and the file/tree runner.

A :class:`Rule` inspects one parsed module and yields raw findings.  The
runner matches raw findings against ``# solverlint: ignore[rule]`` pragmas,
attaches suppression state, and (optionally) reports unused or unjustified
pragmas.

The framework is deliberately dependency-free (``ast`` + ``re`` only) so the
gate runs anywhere the package itself runs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: pragma grammar: ``# solverlint: ignore[rule-a, rule-b] -- justification``
PRAGMA_RE = re.compile(
    r"#\s*solverlint:\s*ignore\[([A-Za-z0-9_\-, ]+)\]"
    r"(?:\s*(?:--|—)\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, after suppression matching."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{tag}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# solverlint: ignore[...]`` pragma."""

    line: int
    rules: Tuple[str, ...]
    reason: str


class FileContext:
    """Everything a rule may want to know about the module under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions = scan_pragmas(source)

    @property
    def parts(self) -> Tuple[str, ...]:
        return Path(self.path).parts

    @property
    def basename(self) -> str:
        return Path(self.path).name


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name`, :attr:`description` and :attr:`invariant`
    and implement :meth:`check`, yielding ``(line, col, message)`` triples.
    :meth:`applies_to` restricts a rule to the subtree it guards; the runner
    skips out-of-scope files unless scoping is disabled (fixture tests).
    """

    name: str = ""
    description: str = ""
    #: the solver invariant the rule enforces (shown by ``--list-rules``)
    invariant: str = ""
    #: directory components any of which places a file in scope
    #: (``None`` = every file)
    scope_dirs: Optional[Tuple[str, ...]] = None
    #: file basenames excluded even when a scope dir matches
    scope_exclude: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.basename in self.scope_exclude:
            return False
        if self.scope_dirs is None:
            return True
        return any(part in self.scope_dirs for part in ctx.parts)

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """Name → rule instance for every registered rule (imports them)."""
    import tools.solverlint.rules  # noqa: F401  -- registration side effect

    return dict(_REGISTRY)


def scan_pragmas(source: str) -> Dict[int, Suppression]:
    """Parse every suppression pragma, keyed by 1-based physical line."""
    out: Dict[int, Suppression] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = PRAGMA_RE.search(text)
        if m is None:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
        out[i] = Suppression(line=i, rules=rules, reason=m.group("reason") or "")
    return out


def _statement_lines(tree: ast.Module) -> Dict[int, int]:
    """Map every line of a multi-line statement to the statement's first line.

    A pragma on the opening line of a statement suppresses findings anywhere
    inside that statement (long wrapped calls put the finding's column on a
    continuation line).
    """
    first: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and getattr(node, "end_lineno", None):
            for ln in range(node.lineno, int(node.end_lineno) + 1):
                # innermost statement wins: later (deeper) nodes overwrite
                # only when they start later than the recorded opener
                if ln not in first or node.lineno > first[ln]:
                    first[ln] = node.lineno
    return first


def _load_context(path: str) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse one file into a :class:`FileContext` (or a syntax finding)."""
    source = Path(path).read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            rule="syntax-error",
            path=path,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            message=f"cannot parse file: {exc.msg}",
        )
    return FileContext(path, source, tree), None


def lint_file(
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    enforce_scope: bool = True,
    warn_unused_ignores: bool = False,
    require_justification: bool = False,
) -> List[Finding]:
    """Lint one file; returns findings (suppressed ones included)."""
    ctx, error = _load_context(path)
    if ctx is None:
        assert error is not None
        return [error]
    active = list(rules if rules is not None else all_rules().values())
    #: raw (rule_name, line, col, message) findings
    raw: List[Tuple[str, int, int, str]] = []
    #: names of rules that actually ran on this file
    ran: set = set()
    for rule in active:
        if enforce_scope and not rule.applies_to(ctx):
            continue
        ran.add(rule.name)
        for line, col, message in rule.check(ctx):
            raw.append((rule.name, line, col, message))

    known = set(all_rules())
    findings: List[Finding] = []
    stmt_openers = _statement_lines(ctx.tree)
    used_pragmas: set = set()
    for rule_name, line, col, message in raw:
        sup = _matching_suppression(
            ctx.suppressions, rule_name, line, stmt_openers
        )
        if sup is not None:
            used_pragmas.add(sup.line)
            findings.append(
                Finding(rule_name, ctx.path, line, col, message,
                        suppressed=True, reason=sup.reason)
            )
        else:
            findings.append(Finding(rule_name, ctx.path, line, col, message))
    for sup in ctx.suppressions.values():
        unknown = [r for r in sup.rules if r not in known]
        for r in unknown:
            findings.append(
                Finding("unknown-rule", ctx.path, sup.line, 0,
                        f"pragma references unknown rule {r!r}")
            )
        if require_justification and not sup.reason:
            findings.append(
                Finding(
                    "unjustified-suppression", ctx.path, sup.line, 0,
                    "suppression pragma lacks a justification "
                    "(append ' -- <one-line reason>')",
                )
            )
        # a pragma for a rule excluded from this run (--rules subset) is
        # not "unused" — only warn when every pragma rule actually ran
        if (warn_unused_ignores and sup.line not in used_pragmas
                and not unknown
                and all(r in ran for r in sup.rules)):
            findings.append(
                Finding(
                    "unused-suppression", ctx.path, sup.line, 0,
                    f"pragma suppresses {', '.join(sup.rules)} but no such "
                    "finding fires on this line",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _matching_suppression(
    suppressions: Dict[int, Suppression],
    rule_name: str,
    line: int,
    stmt_openers: Dict[int, int],
) -> Optional[Suppression]:
    """A finding is suppressed by a pragma on its own line, on the previous
    line, or on the opening line of its (multi-line) statement."""
    candidates = [line, line - 1, stmt_openers.get(line, line)]
    for ln in candidates:
        sup = suppressions.get(ln)
        if sup is not None and rule_name in sup.rules:
            return sup
    return None


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    enforce_scope: bool = True,
    warn_unused_ignores: bool = False,
    require_justification: bool = False,
) -> List[Finding]:
    """Lint files and directory trees (``*.py``, sorted, recursive)."""
    files: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[Finding] = []
    for f in files:
        findings.extend(
            lint_file(
                str(f),
                rules=rules,
                enforce_scope=enforce_scope,
                warn_unused_ignores=warn_unused_ignores,
                require_justification=require_justification,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings

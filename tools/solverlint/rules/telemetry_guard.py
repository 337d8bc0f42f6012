"""``telemetry-guard`` — every telemetry/profiler call is dominated by a
None check.

``SolverConfig.telemetry`` and ``SolverConfig.profiler`` default to
``None`` and the whole observability layer's contract is "disabled costs
one attribute load and a None test".  Any ``X.telemetry.method(...)`` or
``X.profiler.method(...)`` call not dominated by an ``is not None`` check
crashes every non-instrumented run the moment the code path executes —
and such paths are exactly the rarely-exercised ones (recovery, fault
fallbacks).

The rule tracks, per function:

* direct call chains ``X.telemetry.m(...)`` / ``X.profiler.m(...)`` —
  guarded when a dominating test established the base ``is not None``;
* aliases ``tele = X.telemetry`` / ``prof = X.profiler`` (including
  closures captured by nested worker functions) — calls through the
  alias are guarded by ``tele is not None``.

Recognised guard forms: ``if x is not None: ...``, the early exit
``if x is None: return/raise/continue/break``, ``and``-conjoined tests
(``stats is not None and stats.telemetry is not None``), ternaries
(``... if x is None else x.m()``), ``while`` tests and ``assert``.
Guards never cross a function boundary (a closure must re-test).

The span protocol has one seam: a profiler ``.start(`` / ``.end(`` call
outside ``runtime/spans.py`` is a finding, guarded or not — profiled
regions open through ``with spans.span(prof, ...)``.
A profiler is ``X.profiler``, an alias of one, or a name ``prof`` /
``profiler``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.solverlint.core import FileContext, Rule, register
from tools.solverlint.rules.common import dump_no_ctx

#: attribute names holding optional observability objects (both default
#: to None on SolverConfig, with the same one-guarded-test contract)
_GUARDED_ATTRS = ("telemetry", "profiler")

#: the span-protocol methods only ``runtime/spans.py`` may call
_SPAN_PROTOCOL = ("start", "end")

#: conventional names of a span-profiler parameter or local
_PROFILER_NAMES = ("prof", "profiler")


def _is_profiler(expr: ast.expr, aliases: Dict[str, str]) -> bool:
    """Does ``expr`` hold a span profiler (``X.profiler``, an alias of
    one, or a ``prof`` / ``profiler`` name)?"""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "profiler"
    if isinstance(expr, ast.Name):
        return (aliases.get(expr.id) == "profiler"
                or expr.id in _PROFILER_NAMES)
    return False


def _key_of(expr: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Guard-fact key of an expression that may hold a telemetry bus
    or span profiler."""
    if isinstance(expr, ast.Name):
        if expr.id in aliases:
            return f"name:{expr.id}"
        return None
    if isinstance(expr, ast.Attribute) and expr.attr in _GUARDED_ATTRS:
        return f"expr:{dump_no_ctx(expr)}"
    return None


def _split_facts(test: ast.expr, aliases: Dict[str, str]
                 ) -> Tuple[Set[str], Set[str]]:
    """(facts when test is true, facts when test is false)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        t, f = _split_facts(test.operand, aliases)
        return f, t
    if isinstance(test, ast.BoolOp):
        true_facts: Set[str] = set()
        false_facts: Set[str] = set()
        for v in test.values:
            t, f = _split_facts(v, aliases)
            if isinstance(test.op, ast.And):
                true_facts |= t
            else:
                false_facts |= f
        return ((true_facts, set()) if isinstance(test.op, ast.And)
                else (set(), false_facts))
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        key = _key_of(test.left, aliases)
        if key is not None:
            if isinstance(test.ops[0], ast.IsNot):
                return {key}, set()
            if isinstance(test.ops[0], ast.Is):
                return set(), {key}
    return set(), set()


def _terminates(stmts: List[ast.stmt]) -> bool:
    """Does this suite unconditionally leave the enclosing one?"""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


@register
class TelemetryGuardRule(Rule):
    """Telemetry calls must be dominated by an ``is not None`` check."""

    name = "telemetry-guard"
    description = (
        "every fac.telemetry.* / config.telemetry.* / x.profiler.* call "
        "(and calls through a 'tele = x.telemetry' or 'prof = x.profiler' "
        "alias) must be dominated by an 'is not None' check — telemetry "
        "and the span profiler default to None; profiler start/end calls "
        "belong to runtime/spans.py alone (open spans through spans.span)")
    invariant = (
        "a run without a telemetry bus or span profiler never crashes on "
        "an instrumentation site: disabled telemetry costs one attribute "
        "load and a None test, a disabled span one shared null context")

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        self._out: List[Tuple[int, int, str]] = []
        self._seam = ctx.parts[-2:] == ("runtime", "spans.py")
        self._suite(ctx.tree.body, set(), {})
        yield from self._out

    # -- statement walk -------------------------------------------------
    def _suite(self, stmts: List[ast.stmt], facts: Set[str],
               aliases: Dict[str, str]) -> None:
        facts = set(facts)
        aliases = dict(aliases)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # closures inherit aliases but never guard facts
                self._suite(stmt.body, set(), aliases)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._suite(stmt.body, set(), aliases)
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                self._scan(stmt.value, facts, aliases)
                name = stmt.targets[0].id
                if (isinstance(stmt.value, ast.Attribute)
                        and stmt.value.attr in _GUARDED_ATTRS):
                    aliases[name] = stmt.value.attr
                elif (isinstance(stmt.value, ast.Name)
                        and stmt.value.id in aliases):
                    aliases[name] = aliases[stmt.value.id]
                    if f"name:{stmt.value.id}" in facts:
                        facts.add(f"name:{name}")
                else:
                    aliases.pop(name, None)
                    facts.discard(f"name:{name}")
                continue
            if isinstance(stmt, ast.If):
                self._scan(stmt.test, facts, aliases)
                t, f = _split_facts(stmt.test, aliases)
                self._suite(stmt.body, facts | t, aliases)
                self._suite(stmt.orelse, facts | f, aliases)
                # early exits establish the opposite fact downstream
                if _terminates(stmt.body) and not stmt.orelse:
                    facts |= f
                elif stmt.orelse and _terminates(stmt.orelse) \
                        and not _terminates(stmt.body):
                    facts |= t
                continue
            if isinstance(stmt, ast.While):
                self._scan(stmt.test, facts, aliases)
                t, _ = _split_facts(stmt.test, aliases)
                self._suite(stmt.body, facts | t, aliases)
                self._suite(stmt.orelse, facts, aliases)
                continue
            if isinstance(stmt, ast.Assert):
                self._scan(stmt.test, facts, aliases)
                t, _ = _split_facts(stmt.test, aliases)
                facts |= t
                continue
            # generic statement: scan expressions, recurse into suites
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan(child, facts, aliases)
                elif isinstance(child, ast.withitem):
                    self._scan(child.context_expr, facts, aliases)
                elif isinstance(child, ast.ExceptHandler):
                    self._suite(child.body, facts, aliases)
            for fname in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, fname, None)
                if sub and all(isinstance(s, ast.stmt) for s in sub):
                    self._suite(sub, facts, aliases)

    # -- expression walk ------------------------------------------------
    def _scan(self, expr: ast.expr, facts: Set[str],
              aliases: Dict[str, str]) -> None:
        if isinstance(expr, ast.IfExp):
            self._scan(expr.test, facts, aliases)
            t, f = _split_facts(expr.test, aliases)
            self._scan(expr.body, facts | t, aliases)
            self._scan(expr.orelse, facts | f, aliases)
            return
        if isinstance(expr, ast.BoolOp):
            acc = set(facts)
            for v in expr.values:
                self._scan(v, acc, aliases)
                t, f = _split_facts(v, aliases)
                acc |= t if isinstance(expr.op, ast.And) else f
            return
        if isinstance(expr, ast.Call):
            self._check_call(expr, facts, aliases)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan(child, facts, aliases)
            elif isinstance(child, ast.keyword):
                self._scan(child.value, facts, aliases)

    def _check_call(self, call: ast.Call, facts: Set[str],
                    aliases: Dict[str, str]) -> None:
        fn = call.func
        if not isinstance(fn, ast.Attribute):
            return
        base = fn.value
        if (fn.attr in _SPAN_PROTOCOL and not self._seam
                and _is_profiler(base, aliases)):
            self._out.append(
                (call.lineno, call.col_offset,
                 f"profiler call .{fn.attr}(...) outside runtime/spans.py; "
                 f"open spans through `spans.span`"))
            return
        key: Optional[str] = None
        shown = ""
        if isinstance(base, ast.Attribute) and base.attr in _GUARDED_ATTRS:
            key = f"expr:{dump_no_ctx(base)}"
            shown = f"<...>.{base.attr}.{fn.attr}"
        elif isinstance(base, ast.Name) and base.id in aliases:
            key = f"name:{base.id}"
            shown = f"{base.id}.{fn.attr}"
        if key is None or key in facts:
            return
        self._out.append(
            (call.lineno, call.col_offset,
             f"observability call {shown}(...) is not dominated by an "
             f"'is not None' check; a run without a telemetry bus / "
             f"span profiler crashes here"))

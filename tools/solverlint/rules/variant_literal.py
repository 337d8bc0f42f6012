"""``variant-literal`` — strategy decisions are made once, in ``config.py``.

The BLR strategies (``minimal-memory``, ``just-in-time``; the literature
names their loop orders ``cuf``/``ucf``) are decided once, by the
``SolverConfig`` properties (``compress_at_fill``,
``compress_before_solve``) and the ``STRATEGY_DOWNGRADES`` ladder that
drive the engine.  A string comparison against one of those literals
anywhere else re-implements the dispatch ad hoc and silently diverges
when the strategy space changes — exactly the "silent fallback" erosion
the JOREK study documents.

The rule flags *comparisons* only (``==``/``!=``/``in``/``not in``
against the known literals).  Dict constructions (``STRATEGY_DOWNGRADES``),
argparse ``choices=...`` lists and docstrings are not comparisons and do
not fire.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from tools.solverlint.core import FileContext, Rule, register

#: the BLR strategies and the literature's names for their loop orders
VARIANT_LITERALS = frozenset({
    "minimal-memory", "just-in-time", "cuf", "ucf",
})

_COMPARE_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _literals_in(expr: ast.expr) -> Iterator[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        if expr.value in VARIANT_LITERALS:
            yield expr.value
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            yield from _literals_in(elt)


@register
class VariantLiteralRule(Rule):
    """Variant/strategy literals are compared only inside the engine."""

    name = "variant-literal"
    description = (
        "no \"minimal-memory\"/\"just-in-time\"/loop-order string "
        "comparisons outside config.py — use the SolverConfig properties "
        "(compress_at_fill, compress_before_solve) instead")
    invariant = (
        "strategy dispatch happens exactly once, in config.py; growing "
        "the strategy space cannot silently miss an ad-hoc string "
        "comparison elsewhere")
    scope_exclude = ("config.py",)

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, _COMPARE_OPS) for op in node.ops):
                continue
            hits = set(_literals_in(node.left))
            for comp in node.comparators:
                hits.update(_literals_in(comp))
            if hits:
                lits = ", ".join(sorted(repr(h) for h in hits))
                yield (node.lineno, node.col_offset,
                       f"comparison against variant literal(s) {lits} "
                       f"outside config.py; use the SolverConfig "
                       f"properties (compress_at_fill, "
                       f"compress_before_solve) so a new strategy "
                       f"cannot be missed")

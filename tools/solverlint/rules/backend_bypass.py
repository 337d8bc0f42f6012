"""``backend-bypass`` — all hot-path numerics go through the kernel module.

Every GEMM/TRSM/GETRF of the factorization runs through the kernel module
in ``core/backend.py`` (:data:`repro.core.backend.KERNELS`), so it is
counted and conformance-tested; a direct ``np.linalg`` / ``np.dot`` /
``scipy`` call inside ``core/`` or ``lowrank/`` silently bypasses that
accounting (the JOREK MUMPS/PaStiX study shows how unnoticed dense
fallbacks erode BLR's wins at scale).  This rule flags direct numeric
*calls* — references such as ``except np.linalg.LinAlgError`` are fine —
outside the sanctioned numeric surface:

* ``backend.py`` (the kernel module) and the decomposition kernels that
  *are* the compression backend (``rrqr.py``, ``svd.py``,
  ``recompress.py``) — these wrap LAPACK directly by design;
* ``refinement.py`` — iterative refinement operates on full-length
  vectors, not blocks, outside the blocked kernel module;
* **declared cold paths**: any enclosing function whose docstring
  mentions ``cold path`` or ``diagnostic`` (case-insensitive), mirroring
  the conjugation rule's declared-adjoint surface — one-shot diagnostics
  like ``backward_error`` declare themselves where they live.

Everything else needs a justified pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from tools.solverlint.core import FileContext, Rule, register
from tools.solverlint.rules.common import FunctionNode, get_docstring

#: numpy module aliases (mirrors common.NUMPY_NAMES)
_NUMPY_NAMES = ("np", "numpy", "_np")

#: scipy module aliases used in this codebase
_SCIPY_NAMES = ("scipy", "sla", "spla")

#: top-level numpy functions that are numeric kernels (not array plumbing)
_NUMPY_NUMERIC = frozenset({
    "dot", "matmul", "vdot", "inner", "outer", "einsum", "tensordot",
    "kron", "solve", "lstsq",
})

#: docstring markers declaring a function a sanctioned cold path
COLD_PATH_MARKERS = ("cold path", "diagnostic")


def _bypass_call(node: ast.Call) -> Optional[str]:
    """The dotted name of a backend-bypassing numeric call, or ``None``."""
    fn = node.func
    if not isinstance(fn, ast.Attribute):
        return None
    # np.linalg.<anything>(...)
    if (isinstance(fn.value, ast.Attribute)
            and fn.value.attr == "linalg"
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id in _NUMPY_NAMES):
        return f"{fn.value.value.id}.linalg.{fn.attr}"
    if isinstance(fn.value, ast.Name):
        root = fn.value.id
        # np.dot / np.einsum / ... (numeric kernels only)
        if root in _NUMPY_NAMES and fn.attr in _NUMPY_NUMERIC:
            return f"{root}.{fn.attr}"
        # scipy.* / sla.* — any scipy call is backend territory here
        if root in _SCIPY_NAMES:
            return f"{root}.{fn.attr}"
    return None


def _cold_path_declared(fn_stack: List[FunctionNode]) -> bool:
    for fn in fn_stack:
        doc = get_docstring(fn).lower()
        if any(marker in doc for marker in COLD_PATH_MARKERS):
            return True
    return False


@register
class BackendBypassRule(Rule):
    """Direct numeric calls must route through the kernel module."""

    name = "backend-bypass"
    description = (
        "no direct np.linalg/np.dot/scipy numeric calls inside core/ and "
        "lowrank/ outside backend.py and declared cold paths (docstring "
        "mentions 'cold path' or 'diagnostic')")
    invariant = (
        "every hot-path GEMM/TRSM/factorization kernel routes through the "
        "kernel module in core/backend.py, so its call accounting and "
        "conformance tests see all the flops")
    scope_dirs = ("core", "lowrank")
    scope_exclude = (
        "backend.py", "rrqr.py", "svd.py", "recompress.py",
        "refinement.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Tuple[int, int, str]]:
        stack: List[FunctionNode] = []

        def visit(node: ast.AST) -> Iterator[Tuple[int, int, str]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stack.append(child)
                    yield from visit(child)
                    stack.pop()
                    continue
                if isinstance(child, ast.Call):
                    dotted = _bypass_call(child)
                    if dotted is not None and not _cold_path_declared(stack):
                        yield (child.lineno, child.col_offset,
                               f"direct numeric call {dotted}() bypasses "
                               f"the kernel module in core/backend.py; "
                               f"route it through fac.backend or declare "
                               f"the function a cold path")
                yield from visit(child)

        yield from visit(ctx.tree)

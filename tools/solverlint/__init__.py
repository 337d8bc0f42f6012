"""solverlint — domain-specific static analysis for the repro solver.

The solver maintains hard invariants that reviewers cannot reliably police
by eye (see ``docs/static-analysis.md``), among them:

1. **dtype discipline** — kernels never silently promote a float32/complex64
   factorization to 64-bit through a dtype-less allocation or a hard-coded
   Python scalar type;
2. **pure-transpose low-rank storage** — conjugation appears only at the
   declared Hermitian adjoint surface.

``solverlint`` encodes each invariant as an AST rule (plus a strict-typing
gate, ``missing-annotations``, that enforces fully annotated definitions so
``mypy --strict`` stays green).  Run it with::

    python -m tools.solverlint src/repro

Findings can be suppressed line-by-line with a justified pragma::

    x = a.conj()  # solverlint: ignore[conjugation-at-adjoint] -- Hermitian residual norm
"""

from tools.solverlint.core import (
    Finding,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    register,
)

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "register",
]

"""Flop models of the dense block kernels, and the finiteness sentinel.

The kernels themselves — the diagonal block factorizations (`getrf`
without pivoting / `potrf` / `ldlt`), the triangular panel solves and GEMM,
wrapping LAPACK (via scipy) the way PaStiX wraps MKL — live in
:mod:`repro.core.backend`.  This module counts their flops so Table 2's
machine-independent cost columns can be reproduced.

Pivoting: PaStiX performs *static* pivoting — the elimination order is fixed
by the analysis step, and a too-small pivot is replaced by a perturbation of
magnitude ``threshold * max |diag|`` (the factorization then acts on a
slightly perturbed matrix; iterative refinement absorbs the perturbation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def block_all_finite(a: Optional[np.ndarray]) -> bool:
    """NaN/Inf sentinel used by the recovery layer's breakdown detection.

    ``None`` and empty arrays count as finite; ``np.isfinite`` checks both
    components of complex arrays, so this is complex-safe.
    """
    return a is None or a.size == 0 or bool(np.isfinite(a).all())


def flop_scale(dtype: "np.dtype | str") -> float:
    """Flop multiplier for complex arithmetic (1 complex mul+add = 4 real
    flops under the usual LAPACK-style counting); 1.0 for real dtypes."""
    return 4.0 if np.dtype(dtype).kind == "c" else 1.0


def getrf_flops(n: int) -> float:
    return (2.0 / 3.0) * n ** 3


def potrf_flops(n: int) -> float:
    return (1.0 / 3.0) * n ** 3


def trsm_flops(m: int, n: int) -> float:
    """Triangular solve with an ``m x m`` triangle and ``n`` right-hand sides."""
    return float(m) * m * n


def ldlt_flops(n: int) -> float:
    return (1.0 / 3.0) * n ** 3

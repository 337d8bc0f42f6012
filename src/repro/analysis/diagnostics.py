"""Factor-based diagnostics: determinant, inertia, condition estimate.

Classic byproducts a direct solver exposes for free:

* ``slogdet`` — the (sign, log|det|) of A from the diagonal of the factors
  (U's diagonal for LU, L's squared diagonal for Cholesky, D for LDLᵗ);
  with BLR compression the result is exact up to the τ-perturbation of the
  factorization.
* ``inertia`` — (#negative, #zero, #positive) eigenvalues of a symmetric
  matrix from the signs of D in an LDLᵗ factorization (Sylvester's law of
  inertia).
* ``condest`` — a lower bound on κ₁(A) = ‖A‖₁ ‖A⁻¹‖₁ via Hager–Higham
  1-norm power iteration on A⁻¹, using the factorization's solve (and its
  transpose solve) as the operator.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.factor import NumericColumnBlock, NumericFactor
from repro.core.trisolve import solve_factored
from repro.sparse.csc import CSCMatrix


def _ldlt_pivots(nc: NumericColumnBlock
                 ) -> Tuple[np.ndarray, List[Tuple[float, float]]]:
    """The D of a factored LDLᵗ column block, real (a Hermitian LDLᴴ
    forces it): its 1×1 pivots, and one ``(det, trace)`` per 2×2 pivot
    block (``nc.pivd21``)."""
    d = np.diag(nc.diag)
    if d.dtype.kind == "c":
        d = d.real
    if nc.pivd21 is None:
        return d, []
    idx = np.flatnonzero(nc.pivd21)
    pair = np.zeros(d.size, dtype=bool)
    pair[idx] = True
    pair[idx + 1] = True
    return d[~pair], [(float(d[j] * d[j + 1] - np.abs(nc.pivd21[j]) ** 2),
                       float(d[j] + d[j + 1])) for j in idx]


def factor_slogdet(fac: NumericFactor) -> Tuple[complex, float]:
    """(sign, log|det(A)|) from the factored diagonal blocks.

    For real factorizations ``sign`` is ±1.0 (a float); for complex ones it
    is the unit-modulus phase ``det/|det|`` (numpy's ``slogdet`` convention).
    """
    sign: complex = 1.0
    logdet = 0.0
    for nc in fac.cblks:
        d = np.diag(nc.diag)
        if fac.config.factotype == "cholesky":
            # det = prod(L_ii)^2 = prod(|L_ii|^2): always positive (the
            # Hermitian-Cholesky diagonal is real positive)
            logdet += 2.0 * float(np.sum(np.log(np.abs(d))))
        elif fac.config.factotype == "ldlt" and nc.pivd21 is not None:
            # threshold-pivoted block: D is block diagonal, so the 2×2
            # pivots contribute their determinants, not their diagonal
            # entries (which individually can even be zero)
            singles, pairs = _ldlt_pivots(nc)
            sign *= float(np.prod(np.sign(singles)))
            logdet += float(np.sum(np.log(np.abs(singles))))
            for det2, _ in pairs:
                sign *= float(np.sign(det2))
                logdet += float(np.log(np.abs(det2)))
        else:
            # LU (diag of U) and LDLᵗ (D) both live on the packed diagonal
            if d.dtype.kind == "c":
                nz = d[d != 0]
                sign *= complex(np.prod(nz / np.abs(nz)))
                if nz.size < d.size:
                    sign = 0.0
            else:
                sign *= float(np.prod(np.sign(d)))
            logdet += float(np.sum(np.log(np.abs(d))))
    return sign, logdet


def factor_inertia(fac: NumericFactor) -> Tuple[int, int, int]:
    """(n_negative, n_zero, n_positive) from an LDLᵗ factorization.

    By Sylvester's law of inertia the signs of D match the eigenvalue
    signs of the (symmetrically permuted) matrix.  Requires
    ``factotype='ldlt'``; Cholesky implies all-positive by construction.

    Exact zeros in D are counted explicitly (a singular matrix reports a
    nonzero ``n_zero`` instead of misclassifying the eigenvalue by a sign
    test), and 2×2 pivot blocks from threshold pivoting are classified by
    determinant and trace: a negative determinant is one eigenvalue of
    each sign (the canonical Bunch–Kaufman 2×2), a positive one puts both
    on the side of the trace, and a singular block contributes one zero
    plus the sign of its trace.
    """
    if fac.config.factotype == "cholesky":
        n = fac.symb.n
        return (0, 0, n)
    if fac.config.factotype != "ldlt":
        raise ValueError("inertia requires an ldlt (or cholesky) "
                         "factorization")
    neg = zero = pos = 0
    for nc in fac.cblks:
        d, pairs = _ldlt_pivots(nc)
        for det2, trace in pairs:
            if det2 < 0:
                neg += 1
                pos += 1
            elif det2 > 0:
                if trace > 0:
                    pos += 2
                else:
                    neg += 2
            else:
                zero += 1
                if trace > 0:
                    pos += 1
                elif trace < 0:
                    neg += 1
                else:
                    zero += 1
        neg += int(np.sum(d < 0))
        zero += int(np.sum(d == 0))
        pos += int(np.sum(d > 0))
    return neg, zero, pos


def condest_1norm(a: CSCMatrix, fac: NumericFactor, perm: np.ndarray,
                  maxiter: int = 10) -> float:
    """Hager–Higham estimate of ``κ₁(A)`` using the factorization.

    Runs the classical 1-norm power iteration on A⁻¹: repeatedly solve
    ``A x = e`` and ``Aᵗ z = sign(x)`` until the estimate stalls.  Returns
    ``‖A‖₁ · est(‖A⁻¹‖₁)`` — a lower bound, usually within a small factor
    of the true condition number.  Complex operators need ``A⁻ᴴ`` (the
    Hermitian adjoint); the factored solve exposes the pure transpose, so
    the adjoint is applied by conjugating around it.
    """
    n = a.n

    def solve(v: np.ndarray, trans: bool = False) -> np.ndarray:
        y = solve_factored(fac, v[perm], trans=trans)
        out = np.empty_like(y)
        out[perm] = y
        return out

    complex_arith = fac.dtype.kind == "c"
    x = np.full(n, 1.0 / n,
                dtype=np.complex128 if complex_arith else np.float64)
    est = 0.0
    last_j = -1
    for _ in range(maxiter):
        y = solve(x)
        new_est = float(np.abs(y).sum())
        if complex_arith:
            ay = np.abs(y)
            xi = np.where(ay == 0, 1.0 + 0.0j, y / np.where(ay == 0, 1.0, ay))
            # Hager–Higham on a complex operator needs A⁻ᴴ; the trans solve
            # is the pure transpose, so conjugate around it:
            # A⁻ᴴ ξ = conj(A⁻ᵀ conj(ξ))
            z = np.conj(solve(np.conj(xi), trans=True))
        else:
            xi = np.sign(y)
            xi[xi == 0] = 1.0
            z = solve(xi, trans=True)
        j = int(np.argmax(np.abs(z)))
        if new_est <= est or j == last_j:
            est = max(est, new_est)
            break
        est = new_est
        last_j = j
        x = np.zeros(n, dtype=x.dtype)
        x[j] = 1.0
    return est * a.norm1()

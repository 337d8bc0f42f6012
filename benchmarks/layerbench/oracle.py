"""Independent oracle: nothing here trusts a number the solver reports.

Residuals use a scipy CSR matvec, the reference solution comes from
``scipy.sparse.linalg.splu``, the inertia from pinned values (24³) or a
dense eigenvalue count (small grids).  ``RefinementResult.backward_error``
is never read: on ``helmholtz_3d(20)`` LDLᵀ it reports 1.3e-24 where the
true residual is 1.7e-15.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: grids up to this many unknowns get their inertia from dense eigenvalues
DENSE_EIG_LIMIT = 4096


class Oracle:
    """scipy's view of the system matrix."""

    def __init__(self, a: Any) -> None:
        csc = sp.csc_matrix((a.values, a.rowind, a.colptr), shape=(a.n, a.n))
        self.csc = csc
        self.csr = csc.tocsr()
        self._lu: Optional[Any] = None

    def backward_error(self, x: np.ndarray, b: np.ndarray) -> float:
        """``‖Ax − b‖₂ / ‖b‖₂``."""
        return float(np.linalg.norm(self.csr @ x - b) / np.linalg.norm(b))

    def reference_solution(self, b: np.ndarray) -> np.ndarray:
        if self._lu is None:
            self._lu = spla.splu(self.csc)
        return self._lu.solve(b)

    def inertia(self) -> Tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts, by dense eigvalsh."""
        n = self.csc.shape[0]
        if n > DENSE_EIG_LIMIT:
            raise ValueError(f"no dense inertia oracle for n={n}")
        ev = np.linalg.eigvalsh(self.csc.toarray())
        eps = np.finfo(float).eps * n * float(np.abs(ev).max())
        return (int((ev < -eps).sum()), int((np.abs(ev) <= eps).sum()),
                int((ev > eps).sum()))


class Checks:
    """One attempted operation per check, one failure per failed check.

    A check that raises is a failure, never an abort: the remaining
    checks still run.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def check(self, name: str, test: Callable[[], Tuple[bool, str]]) -> None:
        try:
            ok, detail = test()
        except Exception:  # a broken check must not hide the others
            ok, detail = False, traceback.format_exc(limit=3)
        self.records.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def at_most(value: float, limit: float) -> Tuple[bool, str]:
    return bool(value <= limit), f"{value:.3e} <= {limit:.1e}"


def relative_difference(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))

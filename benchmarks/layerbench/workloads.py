"""The four workloads: matrix, solver configuration, accuracy limits.

Why each exists is recorded in ``README.md`` and, for the three
``BENCHMARK.json`` lists (``helm24-ldlt`` is not one: the driver's time
budget holds three steady workloads), next to its name there.  The matrices
are deterministic; ``--seed`` seeds the right-hand sides only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: compression tolerance τ of every BLR workload
TAU = 1e-4

#: load shape shared by all workloads: the laptop-scale tile sizes at which
#: compression bites on a 24³ grid, sequential engine
SHARED: Dict[str, Any] = dict(
    tolerance=TAU, kernel="rrqr", threads=1, dtype="float64",
    split_size=64, split_min=32, compress_min_width=32,
    compress_min_height=8, rank_ratio=0.5, cmin=15, frat=0.08)

#: default grid edge; below 24³ compression stops biting (smoke tests pass 8)
GRID = 24

#: wavenumber (in grid units) that makes the Helmholtz operator indefinite
HELMHOLTZ_WAVENUMBER = 2.2


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: str                # "laplacian_3d" | "helmholtz_3d"
    overrides: Dict[str, Any]   # on top of SHARED
    #: limit on the backward error of the first plain solve
    solve_error_limit: float
    #: inertia of the matrix at the default grid (symmetric workloads)
    inertia: Optional[Tuple[int, int, int]] = None

    def build_matrix(self, grid: int) -> Any:
        from repro.sparse import generators

        if self.matrix == "helmholtz_3d":
            return generators.helmholtz_3d(
                grid, wavenumber=HELMHOLTZ_WAVENUMBER)
        return generators.laplacian_3d(grid)

    def config(self, **extra: Any) -> Any:
        from repro import SolverConfig

        return SolverConfig(**{**SHARED, **self.overrides, **extra})


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("lap24-dense", "laplacian_3d",
             {"strategy": "dense"}, solve_error_limit=1e-10),
    Workload("lap24-jit", "laplacian_3d",
             {"strategy": "just-in-time"}, solve_error_limit=10 * TAU),
    Workload("lap24-mm", "laplacian_3d",
             {"strategy": "minimal-memory"}, solve_error_limit=10 * TAU),
    Workload("helm24-ldlt", "helmholtz_3d",
             {"strategy": "just-in-time", "factotype": "ldlt",
              "pivoting": "threshold"},
             solve_error_limit=1e-10, inertia=(4555, 0, 9269)),
)}

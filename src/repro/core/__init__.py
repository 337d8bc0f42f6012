"""Core solver: supernodal BLR factorization, solve, refinement, facade.

The package mirrors the paper's pipeline.  :class:`~repro.core.solver.Solver`
is the public entry point:

>>> from repro import Solver, SolverConfig, laplacian_3d
>>> a = laplacian_3d(8)
>>> solver = Solver(a, SolverConfig.laptop_scale(strategy="just-in-time"))
>>> stats = solver.factorize()
>>> x = solver.solve(b)                                     # doctest: +SKIP

Internals: :mod:`~repro.core.dense_kernels` wraps the BLAS/LAPACK building
blocks with flop accounting; :mod:`~repro.core.factor` holds the numerical
block storage and its assembly from the CSC matrix;
:mod:`~repro.core.factorization` implements the right-looking drivers for the
Dense / Just-In-Time / Minimal Memory strategies (Algorithms 1 and 2);
:mod:`~repro.core.trisolve` the mixed dense/low-rank triangular solves;
:mod:`~repro.core.scheduler` the execution engine;
:mod:`~repro.core.refinement` the preconditioned GMRES/CG/iterative
refinement of §4.4.
"""

from repro.core.solver import Solver
from repro.core.refinement import gmres, conjugate_gradient, iterative_refinement

__all__ = ["Solver", "gmres", "conjugate_gradient", "iterative_refinement"]

"""repro — a Block Low-Rank supernodal sparse direct solver.

A from-scratch Python reproduction of

    G. Pichon, E. Darve, M. Faverge, P. Ramet, J. Roman,
    "Sparse Supernodal Solver Using Block Low-Rank Compression",
    IPDPS/PDSEC 2017 (Inria RR-9022).

Public API highlights:

* :class:`~repro.core.solver.Solver` — analyze / factorize / solve / refine.
* :class:`~repro.config.SolverConfig` — strategy (``dense`` /
  ``just-in-time`` / ``minimal-memory``), kernel (``rrqr`` / ``svd``),
  tolerance τ, and every threshold of the paper's §4 setup.
* :mod:`repro.sparse.generators` — the evaluation workloads (3D Laplacians
  and proxies for the paper's SuiteSparse suite).
* :mod:`repro.lowrank` — the compression and extend-add kernels of §3,
  usable standalone on dense blocks.
* :class:`~repro.runtime.telemetry.Telemetry` — opt-in series/event store
  (``SolverConfig(telemetry=Telemetry())``): the run's timeline, beside
  the counts the per-run ``RunReport`` of :mod:`repro.analysis.report`
  reads from the run's own state.
* :class:`~repro.runtime.spans.SpanProfiler` — opt-in causal span
  profiler (``SolverConfig(profiler=SpanProfiler())``): one trace tree
  per run, rolled up
  by :mod:`repro.analysis.profile` into the RunReport
  (``docs/observability.md``).
* :class:`~repro.runtime.recovery.RecoveryPolicy` — opt-in self-healing
  (``SolverConfig(recovery=RecoveryPolicy())``): breakdown detection,
  local task retries and escalation ladders (``docs/robustness.md``).
* :mod:`repro.core.backend` — the kernel module: every BLAS/LAPACK call
  of the solver, with per-op call counts (:func:`get_backend`) and a
  column-stable multi-RHS solve path (``docs/performance.md``).
* :class:`~repro.core.variants.BlrVariant` — a BLR run's loop order
  (``cuf`` for minimal-memory, ``ucf`` for just-in-time) and threshold
  mode (``SolverConfig(strategy=..., threshold_mode=...)``;
  ``docs/variants.md``).
"""

from repro.config import SolverConfig
from repro.core.backend import get_backend
from repro.core.solver import Solver
from repro.core.variants import BlrVariant
from repro.runtime.recovery import NumericalBreakdown, RecoveryPolicy
from repro.runtime.spans import SpanProfiler
from repro.runtime.telemetry import Telemetry
from repro.core.refinement import gmres, conjugate_gradient, iterative_refinement
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    laplacian_2d,
    laplacian_3d,
    convection_diffusion_3d,
    elasticity_3d,
    heterogeneous_poisson_3d,
    anisotropic_laplacian_3d,
)

__version__ = "1.0.0"

__all__ = [
    "Solver",
    "SolverConfig",
    "BlrVariant",
    "SpanProfiler",
    "Telemetry",
    "NumericalBreakdown",
    "RecoveryPolicy",
    "CSCMatrix",
    "get_backend",
    "gmres",
    "conjugate_gradient",
    "iterative_refinement",
    "laplacian_2d",
    "laplacian_3d",
    "convection_diffusion_3d",
    "elasticity_3d",
    "heterogeneous_poisson_3d",
    "anisotropic_laplacian_3d",
    "__version__",
]

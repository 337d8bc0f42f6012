"""Solver configuration.

All tunables of the paper's evaluation (§4) appear here with the paper's
values as defaults where they make sense at paper scale, and with explicit
small-problem presets for laptop-scale runs:

* ``tolerance`` — the prescribed relative tolerance τ such that every
  compressed block satisfies ``||A - Â|| <= τ ||A||``.
* ``strategy`` — ``"dense"`` (original PaStiX behaviour), ``"minimal-memory"``
  or ``"just-in-time"``.
* ``kernel`` — ``"rrqr"`` or ``"svd"`` compression family.
* ``cmin`` — minimal size of non-separated subgraphs in nested dissection
  (paper: 15).
* ``frat`` — column-aggregation fill ratio for supernode amalgamation
  (paper: 0.08, i.e. merging is allowed while added fill stays below 8%).
* ``split_size`` / ``split_min`` — column blocks wider than ``split_size``
  are split into chunks of at least ``split_min`` (paper: 256 / 128).
* ``compress_min_width`` / ``compress_min_height`` — a block is a compression
  candidate only if its supernode width is at least ``compress_min_width``
  (paper: 128) and its height at least ``compress_min_height`` (paper: 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # numpy is imported lazily at runtime (keep import light)
    import numpy as np

    from repro.runtime.recovery import RecoveryPolicy
    from repro.runtime.spans import SpanProfiler
    from repro.runtime.telemetry import Telemetry

#: valid factorization strategies: the dense solver and the paper's two
#: BLR strategies (each compresses at one point of a column block's task:
#: :attr:`SolverConfig.compress_at_fill` /
#: :attr:`SolverConfig.compress_before_solve`)
STRATEGIES = ("dense", "minimal-memory", "just-in-time")
#: valid truncation-threshold modes (the ``betatype`` axis; see
#: :meth:`SolverConfig.compress_thresholds`)
THRESHOLD_MODES = ("local", "local-scaled", "global", "global-scaled")
#: the escalation ladder's strategy downgrades: each step compresses
#: later (denser intermediates, better stability) than the one before
STRATEGY_DOWNGRADES: Dict[str, str] = {"minimal-memory": "just-in-time",
                                       "just-in-time": "dense"}
#: valid compression kernel families (the paper's two)
KERNELS = ("rrqr", "svd")
#: valid numerical factorizations
FACTOTYPES = ("lu", "cholesky", "ldlt")
#: valid ordering algorithms (``geometric`` needs node coordinates passed
#: to the Solver)
ORDERINGS = ("nested-dissection", "geometric", "amd", "natural")
#: valid arithmetic precisions (PaStiX's s/d/c/z)
DTYPES = ("float32", "float64", "complex64", "complex128")
#: valid diagonal-block pivoting modes for the ``ldlt`` factotype
PIVOTINGS = ("static", "threshold")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable configuration for :class:`repro.core.solver.Solver`.

    Use :meth:`paper_scale` or :meth:`laptop_scale` for presets, and
    :meth:`with_options` (a thin ``dataclasses.replace`` wrapper) to derive
    variants.
    """

    # --- compression --------------------------------------------------
    strategy: str = "just-in-time"
    kernel: str = "rrqr"
    tolerance: float = 1e-8
    #: truncation-threshold mode (the ``betatype`` axis): ``"local"``
    #: (the paper's per-block rule, default), ``"local-scaled"`` (τ/p),
    #: ``"global"`` (tail measured against ``||A||_F``), or
    #: ``"global-scaled"`` (both)
    threshold_mode: str = "local"
    #: maximum admissible rank as a fraction of min(m, n); blocks whose
    #: revealed rank exceeds it are stored dense (paper §3.4 uses 1/4).
    rank_ratio: float = 0.25

    # --- ordering / symbolic ------------------------------------------
    ordering: str = "nested-dissection"
    cmin: int = 15
    frat: float = 0.08
    split_size: int = 256
    split_min: int = 128
    compress_min_width: int = 128
    compress_min_height: int = 20
    #: apply the intra-supernode reordering of [21] to merge off-diag blocks
    reorder_supernodes: bool = True

    # --- numerics ------------------------------------------------------
    factotype: str = "lu"
    #: diagonal-block pivoting mode for ``factotype='ldlt'``:
    #: ``"static"`` (the paper's PaStiX behaviour — perturb tiny
    #: diagonals, never permute) or ``"threshold"`` (dynamic
    #: Bunch–Kaufman-style threshold partial pivoting with 1×1/2×2
    #: pivots and per-supernode within-panel permutations; see
    #: docs/robustness.md).  Ignored by ``lu``/``cholesky``.
    pivoting: str = "static"
    #: threshold-pivoting parameter ``u`` in (0, 0.5]: a candidate 1×1
    #: pivot ``d`` is admissible when ``|d| >= u * max|column|``.  Larger
    #: values bound element growth more tightly (more 2×2 pivots and
    #: swaps); smaller values pivot less.  0.1 is the sparse-solver
    #: folklore default (HSL MA57 lineage).
    pivot_u: float = 0.1
    #: delayed-pivot fallback: when no admissible pivot exists under
    #: ``pivot_u``, perturb the offending diagonal entry (static-pivoting
    #: style) instead of raising ``pivot-failure``.  Off by default; the
    #: recovery ladder switches it on as its second pivoting rung.
    pivot_fallback: bool = False
    #: arithmetic precision of the factorization — one of
    #: ``float32``/``float64``/``complex64``/``complex128`` (PaStiX's
    #: s/d/c/z); ``None`` inherits the matrix's dtype (real non-float
    #: inputs default to float64)
    dtype: Optional[str] = None

    # --- parallelism ---------------------------------------------------
    #: worker threads of the factorization; 1 is the only legal value (the
    #: worker pool is retired: it never ran faster than the sequential
    #: engine).  The field moves to ``serialize.RETIRED_CONFIG_FIELDS``
    #: once the benchmark's shared settings stop passing ``threads=1``.
    threads: int = 1

    # --- robustness -----------------------------------------------------
    #: self-healing policy (:class:`~repro.runtime.recovery.RecoveryPolicy`
    #: or a dict of its fields, e.g. from a deserialized config): enables
    #: breakdown sentinels, per-block dense fallback on compression
    #: failure, local task retries and the whole-solve escalation ladder.
    #: ``None`` (the default) disables the recovery layer entirely — every
    #: detection site then costs one ``is not None`` test and the solver's
    #: failure behaviour is exactly the pre-recovery one.
    recovery: Optional["RecoveryPolicy"] = None

    # --- observability -------------------------------------------------
    #: attach a :class:`~repro.runtime.telemetry.Telemetry` store: the
    #: compression kernels, LR2LR recompression and memory tracker then
    #: add time-stamped series points to it — the run's timeline, beside
    #: the counts its own state keeps — and ``Solver.run_report()``
    #: carries its snapshot.  ``None`` (the default) disables it at the
    #: cost of one ``is not None`` test per site.
    #: Excluded from equality/repr — it is a runtime channel, not a
    #: numerical tunable (serialized factor archives store it as null).
    telemetry: Optional["Telemetry"] = field(
        default=None, repr=False, compare=False)
    #: attach a :class:`~repro.runtime.spans.SpanProfiler`: the whole
    #: pipeline (ordering → symbolic → assembly → per-cblk tasks →
    #: trisolve → refinement) then records one tree of nested spans with
    #: phase/cblk/level attributes, rolled up per phase, kernel and level
    #: (:mod:`repro.analysis.profile`; the fan-in tasks are its ``task``
    #: bucket) and drawn as a Gantt chart.  The profiler, like the solver,
    #: belongs to one thread.  ``None`` (the
    #: default) disables profiling at the cost of one ``is not None`` test
    #: per site.  Like ``telemetry``, excluded from equality/repr and
    #: serialized as null.
    profiler: Optional["SpanProfiler"] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.factotype not in FACTOTYPES:
            raise ValueError(f"factotype must be one of {FACTOTYPES}, got {self.factotype!r}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if self.cmin < 1:
            raise ValueError("cmin must be >= 1")
        if not (self.frat >= 0.0):
            raise ValueError("frat must be >= 0")
        if self.split_size < 1:
            raise ValueError("split_size must be >= 1")
        if self.split_min > self.split_size:
            raise ValueError("split_min must be <= split_size")
        if self.threads != 1:
            raise ValueError(
                f"threads must be 1, got {self.threads!r}: the worker pool "
                "is retired and the factorization always runs sequentially")
        if not (0.0 < self.rank_ratio <= 1.0):
            raise ValueError("rank_ratio must be in (0, 1]")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, got "
                f"{self.threshold_mode!r}")
        if self.pivoting not in PIVOTINGS:
            raise ValueError(
                f"pivoting must be one of {PIVOTINGS}, got {self.pivoting!r}")
        if not (0.0 < self.pivot_u <= 0.5):
            raise ValueError("pivot_u must be in (0, 0.5]")
        if self.recovery is not None:
            from repro.runtime.recovery import RecoveryPolicy

            if isinstance(self.recovery, dict):
                # round-trip support: serialized configs store the policy
                # as a plain field dict (dataclasses.asdict recurses)
                object.__setattr__(self, "recovery",
                                   RecoveryPolicy(**self.recovery))
            elif not isinstance(self.recovery, RecoveryPolicy):
                raise TypeError(
                    "recovery must be a RecoveryPolicy, a dict of its "
                    f"fields, or None; got {type(self.recovery).__name__}")
        if self.dtype is not None and self.dtype not in DTYPES:
            raise ValueError(
                f"dtype must be one of {DTYPES} (or None), got {self.dtype!r}")

    # ------------------------------------------------------------------
    @classmethod
    def paper_scale(cls, **overrides: Any) -> "SolverConfig":
        """The paper's experimental setup (§4, first paragraph)."""
        base = dict(
            cmin=15, frat=0.08, split_size=256, split_min=128,
            compress_min_width=128, compress_min_height=20,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def laptop_scale(cls, **overrides: Any) -> "SolverConfig":
        """Thresholds scaled down ~4x so compression kicks in on 10k-100k
        unknown problems (the paper's run at 1M+ unknowns)."""
        base = dict(
            cmin=15, frat=0.08, split_size=64, split_min=32,
            compress_min_width=32, compress_min_height=8,
        )
        base.update(overrides)
        return cls(**base)

    def with_options(self, **overrides: Any) -> "SolverConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def is_blr(self) -> bool:
        return self.strategy != "dense"

    @property
    def compress_at_fill(self) -> bool:
        """Minimal Memory (Compress-Update-Factor): a task compresses its
        column block's candidates from their assembled entries as it fills
        the column block, before any update lands; updates then run in
        low-rank arithmetic."""
        return self.strategy == "minimal-memory"

    @property
    def compress_before_solve(self) -> bool:
        """Just-In-Time (Update-Compress-Factor): the panels take every
        update dense and are compressed once, right before the panel
        solve (Algorithm 2 lines 3-4)."""
        return self.strategy == "just-in-time"

    def compress_thresholds(self, ncblk: int, global_norm: float
                            ) -> Tuple[float, Optional[float]]:
        """The ``(tol_eff, norm_ref)`` pair of :attr:`threshold_mode`.

        Every compression kernel truncates at
        ``tol_eff * max(||block||_F, norm_ref)``:

        =================  ===========  ==========================
        mode               tol_eff      norm_ref
        =================  ===========  ==========================
        ``local``          τ            ``None`` (block norm only)
        ``local-scaled``   τ / p        ``None``
        ``global``         τ            ``global_norm``
        ``global-scaled``  τ / p        ``global_norm``
        =================  ===========  ==========================

        with ``p = ncblk`` the number of column blocks.  ``local`` is the
        paper's rule; the scaled modes keep the *global* backward error at
        τ-level when per-block errors accumulate, and the global modes let
        blocks small relative to ``||A||_F`` truncate harder.
        """
        tol_eff = self.tolerance
        if self.threshold_mode in ("local-scaled", "global-scaled"):
            tol_eff = self.tolerance / max(ncblk, 1)
        norm_ref: Optional[float] = None
        if self.threshold_mode in ("global", "global-scaled"):
            norm_ref = float(global_norm)
        return tol_eff, norm_ref

    @property
    def is_symmetric_facto(self) -> bool:
        return self.factotype in ("cholesky", "ldlt")

    def resolve_dtype(self, matrix_dtype: Union[str, np.dtype, None] = None
                      ) -> np.dtype:
        """The numpy dtype the factorization runs in.

        ``config.dtype`` wins when set; otherwise the matrix's own dtype is
        kept (non-inexact inputs having already been coerced to float64 by
        :class:`~repro.sparse.csc.CSCMatrix`).  Asking for a *real*
        factorization of a complex matrix is an error — it would silently
        discard imaginary parts.
        """
        import numpy as np

        if self.dtype is not None:
            want = np.dtype(self.dtype)
            if (matrix_dtype is not None
                    and np.dtype(matrix_dtype).kind == "c"
                    and want.kind != "c"):
                raise ValueError(
                    f"config.dtype={self.dtype!r} is real but the matrix is "
                    "complex; a real factorization would discard imaginary "
                    "parts")
            return want
        if matrix_dtype is not None:
            return np.dtype(matrix_dtype)
        return np.dtype(np.float64)

    def resolve_storage_dtype(self, compute_dtype: Union[str, np.dtype]
                              ) -> Optional[np.dtype]:
        """The narrow dtype a BLR factor may store a column block in:
        float32 under float64, complex64 under complex128, ``None`` for
        single-precision arithmetic and for the dense strategy.  Which
        column blocks are narrowed is decided by their compression
        (:func:`repro.core.factor.compress_column_block`)."""
        import numpy as np

        if not self.is_blr:
            return None
        return {"float64": np.dtype(np.float32),
                "complex128": np.dtype(np.complex64)}.get(
                    np.dtype(compute_dtype).name)

"""Numerical block storage and assembly.

A :class:`NumericFactor` owns one :class:`NumericColumnBlock` per symbolic
column block.  Storage comes in two modes, mirroring how PaStiX lays factors
out:

* **panel mode** — the column block's off-diagonal part is one contiguous
  dense array (``lpanel``, rows stacked in block order).  Used by the Dense
  strategy throughout and by every column block of a BLR run in which
  nothing compressed; contiguity is what lets the update loop issue one
  BLAS3 GEMM per facing block instead of one per block pair, the panel
  solve one TRSM per side and the triangular solves one product per sweep.
* **blocks mode** — a list with one entry per off-diagonal block, each a
  dense array or a :class:`~repro.lowrank.block.LowRankBlock`.  One rule, at
  every compression site (:func:`compress_column_block`): **blocks mode =
  holds at least one low-rank block**.  Minimal Memory still never charges
  a dense panel it does not keep — a block is compressed from a transient
  scratch and only what is stored is tracked — and a column block of its
  whose candidates were all rejected keeps that scratch as its panels, at
  the bytes its dense blocks would have cost.

Nothing is allocated before the factorization: :func:`assemble` only
resolves dtypes and norms, and each column block is allocated and scattered
by :meth:`NumericFactor.fill_column_block` when its own task starts (the
paper's §4.3 proposal to "delay the allocation and the compression of the
original blocks").  The tracked peak is therefore the factored prefix plus
the column blocks in flight under every strategy — the dense factor for
Dense, the compressed factor plus one dense column block for Just-In-Time,
the compressed factor for Minimal Memory.

The diagonal block is always a separate dense ``(w, w)`` array (paper §2.2:
"all diagonal blocks are considered dense").  For LU, a second structure
(``upanel`` / ``ublocks``) stores Uᵗ with the same shape as L — the paper's
"PaStiX solver stores L, and Uᵗ if required".

Every allocation, free and resize is reported to a
:class:`~repro.runtime.memory.MemoryTracker`, which is how the Figure 6/7
memory measurements are produced.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.recovery import RecoveryState
    from repro.runtime.spans import SpanProfiler

from repro.config import SolverConfig
from repro.core.backend import KERNELS
from repro.core.variants import BlrVariant, resolve_variant
from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import block_nbytes, compress_block, rank_cap
from repro.lowrank.recompress import sqnorm
from repro.runtime.memory import MemoryTracker, array_nbytes
from repro.runtime.spans import span
from repro.runtime.stats import FactorizationStats, KernelStats
from repro.sparse.csc import CSCMatrix
from repro.symbolic.structure import SymbolicColumnBlock, SymbolicFactor

Block = Union[np.ndarray, LowRankBlock]


class NumericColumnBlock:
    """Numerical storage of one column block."""

    __slots__ = ("sym", "diag", "lpanel", "upanel", "lblocks", "ublocks",
                 "row_offsets", "offrows", "factored", "pivperm", "pivd21")

    def __init__(self, sym: SymbolicColumnBlock,
                 row_offsets: np.ndarray) -> None:
        self.sym = sym
        self.diag: Optional[np.ndarray] = None
        self.lpanel: Optional[np.ndarray] = None
        self.upanel: Optional[np.ndarray] = None
        self.lblocks: Optional[List[Block]] = None
        self.ublocks: Optional[List[Block]] = None
        #: within-block pivot permutation (threshold-pivoted ldlt only):
        #: row ``i`` of the factored diagonal block is row ``pivperm[i]``
        #: of the assembled one.  ``None`` = identity (static pivoting).
        self.pivperm: Optional[np.ndarray] = None
        #: 2×2 pivot subdiagonals: ``pivd21[j]`` is ``D[j+1, j]`` when a
        #: 2×2 pivot starts at column ``j``, zero elsewhere.  ``None``
        #: when the block was factored with 1×1 pivots only.
        self.pivd21: Optional[np.ndarray] = None
        #: where each off-diagonal block starts in the stacked panel frame
        #: (``SymbolicFactor.row_offsets``, shared and read-only)
        self.row_offsets = row_offsets
        self.offrows = int(row_offsets[-1])
        self.factored = False

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.sym.ncols

    @property
    def panel_mode(self) -> bool:
        return self.lpanel is not None

    def lblock(self, i: int) -> Block:
        """The i-th off-diagonal L block (0-based over off blocks)."""
        if self.lpanel is not None:
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            return self.lpanel[lo:hi]
        return self.lblocks[i]

    def ublock(self, i: int) -> Block:
        if self.upanel is not None:
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            return self.upanel[lo:hi]
        return self.ublocks[i]

    def nbytes(self, sides: int) -> int:
        """Current storage (diag + off-blocks of ``sides`` factor sides)."""
        total = array_nbytes(self.diag) if self.diag is not None else 0
        if self.lpanel is not None:
            total += array_nbytes(self.lpanel) * sides
        if self.lblocks is not None:
            total += sum(block_nbytes(b) for b in self.lblocks)
            if self.ublocks is not None:
                total += sum(block_nbytes(b) for b in self.ublocks)
        return total


class NumericFactor:
    """The factorized matrix: block storage + bookkeeping.

    Created by :func:`assemble`; each column block allocated by
    :meth:`fill_column_block` when its task starts, then factored by
    :mod:`repro.core.factorization`; consumed by
    :mod:`repro.core.trisolve`.
    """

    def __init__(self, symb: SymbolicFactor, config: SolverConfig,
                 recovery: Optional["RecoveryState"] = None) -> None:
        self.symb = symb
        self.config = config
        #: the kernel instance (:data:`repro.core.backend.KERNELS`) —
        #: every numeric hot path of the factorization and the triangular
        #: solves calls through it.
        self.backend = KERNELS
        self.cblks: List[NumericColumnBlock] = [
            NumericColumnBlock(c, symb.row_offsets[c.id])
            for c in symb.cblks]
        # the telemetry bus (config.telemetry, None = disabled) and the
        # run's recovery record ride on the memory tracker (high-water
        # timeline) and the kernel stats (compression / recompression
        # samples, a failed compression's keep-dense verdict) so no kernel
        # signature changes; the engine reads telemetry from config
        self.tracker = MemoryTracker(telemetry=config.telemetry)
        self.stats = FactorizationStats(kernels=KernelStats(
            locked=True, telemetry=config.telemetry, recovery=recovery))
        self.nperturbed = 0
        #: run-wide threshold-pivoting aggregates (see
        #: :meth:`add_pivot_stats`); stay zero under static pivoting
        self.pivot_swaps = 0
        self.pivots_2x2 = 0
        self.pivot_growth = 0.0
        #: guards the counters every task accumulates into
        #: (``nperturbed``, pivot stats)
        self._counter_lock = threading.Lock()
        #: arithmetic dtype of the factorization (resolved by
        #: :func:`assemble` from the matrix and ``config.dtype``)
        self.dtype = np.dtype(np.float64)
        #: narrow dtype a column block is stored in once its compression
        #: discarded enough (:func:`narrow_if_discarded`); ``None`` when nothing
        #: may narrow (dense strategy, single-precision arithmetic)
        self.storage_dtype = None
        #: 2 when both L and Uᵗ off-diagonal panels are stored (LU), else 1
        self.sides = 1 if config.is_symmetric_facto else 2
        #: what :meth:`fill_column_block` scatters: the matrix entries and
        #: where they land (:func:`_entry_landings`); set by
        #: :func:`assemble`, released by the engine once every task has
        #: run, so a finished factor holds only its factor
        self.entries: Optional[Tuple[np.ndarray, ...]] = None
        #: optional :class:`~repro.runtime.spans.SpanProfiler` — mirrored
        #: from ``config.profiler`` so the engines and kernels pay a single
        #: attribute load; the engine opens one causal span per task and
        #: the kernels nest factor/compress/update children in it
        self.profiler: Optional["SpanProfiler"] = config.profiler
        #: optional :class:`~repro.runtime.faults.FaultInjector` — fired at
        #: the top of every factor/update task when set
        self.faults = None
        #: the run's :class:`~repro.runtime.recovery.RecoveryState` when it
        #: carries a policy (``config.recovery``), else ``None``; every
        #: breakdown sentinel and fallback in the factorization path is
        #: gated on it
        self.recovery: Optional["RecoveryState"] = (
            recovery if recovery is not None and recovery.policy is not None
            else None)
        #: resolved BLR variant of this run (None for the dense strategy)
        self.variant: Optional[BlrVariant] = resolve_variant(config)
        #: Frobenius norm of the permuted input matrix (reference of the
        #: global threshold modes; set by :func:`assemble`)
        self.global_norm = 0.0
        #: effective compression tolerance / norm reference of this run
        #: (``variant.compress_scale`` of ``config.tolerance``); every
        #: compression and recompression site reads these instead of the
        #: raw config tolerance
        self.comp_tol = config.tolerance
        self.comp_norm_ref: Optional[float] = None

    @property
    def hermitian(self) -> bool:
        """Complex Cholesky / LDLᴴ: the factor is ``L Lᴴ`` / ``L D Lᴴ``, so
        every transposed operand is an adjoint (LU stays a transpose)."""
        return self.config.is_symmetric_facto and self.dtype.kind == "c"

    def fill_column_block(self, k: int) -> None:
        """The first step of column block ``k``'s task: allocate its
        storage and scatter the matrix entries into it (structural zeros
        explicit).  A column block already filled is left as it is, so a
        caller may fill every column block before the engine runs.

        * Dense / Just-In-Time: the dense panels are kept and charged; JIT
          compresses them once they are fully updated.
        * Minimal Memory (compress-at-assembly, Algorithm 1 lines 1–4):
          each low-rank candidate is compressed from the dense scratch at
          once; the scratch is never charged, only what is stored is.  In
          the pull engine nothing has landed in ``k`` before its own task,
          so this is the input an up-front assembly would compress."""
        nc = self.cblks[k]
        if nc.diag is not None:
            return
        w = nc.width
        nc.diag = np.zeros((w, w), dtype=self.dtype)
        self.tracker.alloc(array_nbytes(nc.diag))
        lpanel = np.zeros((nc.offrows, w), dtype=self.dtype)
        upanel = None if self.sides == 1 else np.zeros_like(lpanel)
        dest, bounds, lvals, uvals = self.entries
        d0, p0, p1 = bounds[2 * k:2 * k + 3]
        nc.diag.reshape(-1)[dest[d0:p0]] = lvals[d0:p0]
        lpanel.reshape(-1)[dest[p0:p1]] = lvals[p0:p1]
        if upanel is not None:
            upanel.reshape(-1)[dest[p0:p1]] = uvals[p0:p1]
        if self.variant is not None and self.variant.compress_at_assembly:
            with span(self.profiler, "compress", cblk=k,
                      kernel=self.config.kernel):
                self.tracker.alloc(
                    compress_column_block(self, nc, lpanel, upanel))
        else:
            nc.lpanel, nc.upanel = lpanel, upanel
            self.tracker.alloc(array_nbytes(lpanel) * self.sides)

    def clear_column_block(self, k: int) -> None:
        """Free column block ``k``'s storage, returning it to the state
        before its task — where a failed attempt restarts from, since only
        task ``k`` ever mutates ``k``."""
        nc = self.cblks[k]
        self.tracker.free(nc.nbytes(self.sides))
        nc.diag = nc.lpanel = nc.upanel = nc.lblocks = nc.ublocks = None
        nc.pivperm = nc.pivd21 = None
        nc.factored = False

    # -- sizing ----------------------------------------------------------
    def dense_factor_nbytes(self) -> int:
        """Bytes the factors would occupy fully dense (Figure 6 baseline)."""
        total = 0
        for c in self.symb.cblks:
            w = c.ncols
            off = sum(b.nrows for b in c.off_blocks())
            total += (w * w + self.sides * off * w) * self.dtype.itemsize
        return total

    def factor_nbytes(self) -> int:
        """Current compressed storage of all blocks."""
        return sum(nc.nbytes(self.sides) for nc in self.cblks)

    def add_perturbed(self, n: int) -> None:
        """Accumulate perturbed-pivot counts from factor tasks.

        Integer addition under ``_counter_lock``, so the result stays
        independent of accumulation order."""
        if n:
            with self._counter_lock:
                self.nperturbed += n

    def note_accumulator_peak(self, nbytes: int) -> None:
        """Fold one task's extend-add accumulator high-water mark into
        ``stats.accumulator_peak_nbytes`` (a max, so independent of the
        order tasks report in)."""
        if nbytes > self.stats.accumulator_peak_nbytes:
            with self._counter_lock:
                self.stats.accumulator_peak_nbytes = max(
                    self.stats.accumulator_peak_nbytes, nbytes)

    def add_pivot_stats(self, stats: Dict[str, Any]) -> None:
        """Accumulate per-block threshold-pivoting statistics.

        ``stats`` is the dict returned by the ``ldlt_pivot`` kernel
        (swaps / n2x2 / perturbed / growth).  Sums and the growth max are
        taken under ``_counter_lock`` — run-wide aggregates shared by
        every task."""
        with self._counter_lock:
            self.pivot_swaps += int(stats.get("swaps", 0))
            self.pivots_2x2 += int(stats.get("n2x2", 0))
            self.nperturbed += int(stats.get("perturbed", 0))
            self.pivot_growth = max(self.pivot_growth,
                                    float(stats.get("growth", 0.0)))

    # -- block mutation with memory accounting ----------------------------
    def set_block(self, nc: NumericColumnBlock, side: str, i: int,
                  new: Block) -> None:
        """Replace off-block ``i`` on side ``'l'``/``'u'``, tracking bytes."""
        blocks = nc.lblocks if side == "l" else nc.ublocks
        old = blocks[i]
        self.tracker.resize(block_nbytes(old), block_nbytes(new))
        blocks[i] = new


def assemble(a_perm: CSCMatrix, symb: SymbolicFactor,
             config: SolverConfig,
             recovery: Optional["RecoveryState"] = None) -> NumericFactor:
    """The factor of ``a_perm``, before any of its storage exists.

    Resolves the arithmetic and storage dtypes and the compression norms —
    from the CSC values, so the thresholds are the whole matrix's — and
    keeps the entries for :meth:`NumericFactor.fill_column_block`, which
    each task calls for its own column block.  Nothing is allocated here,
    so no strategy's peak holds the dense structure beside what it has
    stored (the Just-In-Time peak is its factor plus the column blocks in
    flight, not the dense solver's).

    ``recovery`` is the run's record (see :class:`NumericFactor`), attached
    before the first compression.
    """
    # one transpose checks the pattern and gives Uᵗ its values: L and Uᵗ
    # then land through one index computation
    at_perm = a_perm.transpose()
    if not (np.array_equal(a_perm.colptr, at_perm.colptr)
            and np.array_equal(a_perm.rowind, at_perm.rowind)):
        raise ValueError("assemble expects a pattern-symmetric matrix")
    fac = NumericFactor(symb, config, recovery)
    fac.dtype = config.resolve_dtype(a_perm.values.dtype)
    fac.storage_dtype = config.resolve_storage_dtype(fac.dtype)
    fac.global_norm = float(np.linalg.norm(a_perm.values))  # solverlint: ignore[backend-bypass] -- one norm of the raw CSC value array at assembly; the kernel module in core/backend.py works on dense blocks only
    if fac.variant is not None:
        fac.comp_tol, fac.comp_norm_ref = fac.variant.compress_scale(
            config.tolerance, symb.ncblk, fac.global_norm)
    fac.entries = _entry_landings(
        a_perm, None if fac.sides == 1 else at_perm.values, symb)
    return fac


def _entry_landings(a: CSCMatrix, uvals: Optional[np.ndarray],
                    symb: SymbolicFactor) -> Tuple[np.ndarray, ...]:
    """Where every entry of ``a`` on or below its column block's diagonal
    block lands, for all column blocks at once: ``(dest, bounds, lvals,
    uvals)``.  The entries are grouped by column block, those of its
    diagonal block first; ``bounds[2k:2k+3]`` delimits column block ``k``'s
    two groups, ``dest`` is each entry's flat index into the diagonal
    block or the stacked off-diagonal frame, and ``lvals`` / ``uvals``
    are its values in ``a`` and in the transpose.  An entry below the
    diagonal block that the symbolic structure does not cover raises."""
    first = np.array([c.first_col for c in symb.cblks] + [symb.n])
    widths = np.diff(first)
    cols = a.col_indices()
    k = np.repeat(np.arange(symb.ncblk), widths)[cols]
    rows, fc, w = a.rowind, first[k], widths[k]
    below = rows >= fc + w
    keep = np.flatnonzero(rows >= fc)
    k, rows, fc, w, below = k[keep], rows[keep], fc[keep], w[keep], below[keep]
    local = cols[keep] - fc
    dest = (rows - fc) * w + local
    # frame positions from one search over every column block's frame,
    # keyed (column block, global row): each frame is sorted, and so are
    # the column blocks
    nrows = [len(r) for r in symb.off_rows]
    frame_k = np.repeat(np.arange(symb.ncblk), nrows)
    key = frame_k * symb.n + np.concatenate(symb.off_rows)
    want = k[below] * symb.n + rows[below]
    pos = np.searchsorted(key, want)
    if want.size and (not key.size
                      or (key.take(pos, mode="clip") != want).any()):
        raise AssertionError(
            "matrix entry outside the symbolic structure")
    frame_start = np.concatenate(([0], np.cumsum(nrows)))
    dest[below] = (pos - frame_start[k[below]]) * w[below] + local[below]
    group = 2 * k + below
    order = np.argsort(group, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(
        np.bincount(group, minlength=2 * symb.ncblk))))
    take = keep[order]
    return (dest[order], bounds, a.values[take],
            None if uvals is None else uvals[take])


#: a column block is stored narrow once its truncations discarded at least
#: this many unit roundoffs of the narrow dtype, relative to its norm: the
#: storage rounding then adds at most 1 % of an error it already carries
NARROW_BUDGET = 100.0


def narrow_if_discarded(fac: NumericFactor, nc: NumericColumnBlock,
                        dropped2: float) -> None:
    """Store the blocks of ``nc`` in ``fac.storage_dtype`` once its
    truncations dropped ``dropped2`` (a squared Frobenius norm) of at least
    :data:`NARROW_BUDGET` unit roundoffs of that dtype relative to its
    norm (a low-rank block's is ``‖v‖``: its ``u`` is orthonormal).  The
    caller accounts the bytes."""
    narrow = fac.storage_dtype
    if narrow is None or dropped2 <= 0:
        return
    sides = [bl for bl in (nc.lblocks, nc.ublocks) if bl is not None]
    norm2 = sum(sqnorm(b.v if isinstance(b, LowRankBlock) else b)
                for blocks in sides for b in blocks)
    if dropped2 >= (NARROW_BUDGET * np.finfo(narrow).eps / 2) ** 2 * norm2:
        for blocks in sides:
            blocks[:] = [b if b.dtype == narrow else b.astype(narrow)
                         for b in blocks]


def compress_column_block(fac: NumericFactor, nc: NumericColumnBlock,
                          lpanel: np.ndarray,
                          upanel: Optional[np.ndarray]) -> int:
    """The compression point of one column block: try every low-rank
    candidate of its dense ``lpanel`` / ``upanel``, store the outcome on
    ``nc`` and return the bytes it holds.

    One rule at every site: **blocks mode = holds at least one low-rank
    block**.  When a candidate is accepted the column block gets per-block
    storage (the other blocks as dense arrays); when none is, the panels
    themselves are kept, so a column block that stayed dense costs what it
    costs in the dense solver — same bytes, same batched kernels.

    Precision follows the error already discarded: the blocks of a column
    block are stored in ``fac.storage_dtype`` when what its accepted
    compressions dropped is large enough to absorb the rounding
    (:func:`narrow_if_discarded`).  Read from the kernels' own output, never
    reconstructed: for an orthonormal ``u`` a block discarded
    ``‖B‖² − ‖v‖²``.  A column block that kept its panels stays wide.

    When a fault injector arms the compression site (or a kernel genuinely
    dies) and the recovery policy allows it, nothing is tried and the
    panels are kept — the dense fallback, cheapest rung of the escalation
    ladder."""
    cfg = fac.config
    offs = nc.row_offsets
    panels = [lpanel] if upanel is None else [lpanel, upanel]
    compress_ok = True
    if fac.faults is not None:
        try:
            fac.faults.on_compress(fac, nc.sym.id)
        except Exception as exc:
            rec = fac.recovery
            if (rec is None or rec.policy is None
                    or not rec.policy.dense_fallback):
                raise
            rec.record("dense_fallback", site="compress", cblk=nc.sym.id,
                       error=type(exc).__name__)
            compress_ok = False
    accepted: Dict[Tuple[int, int], LowRankBlock] = {}
    for i, b in enumerate(nc.sym.off_blocks()):
        if not (b.lr_candidate and compress_ok):
            continue
        cap = rank_cap(b.nrows, nc.width, cfg.rank_ratio)
        for side, panel in enumerate(panels):
            lr = compress_block(panel[offs[i]:offs[i + 1]], fac.comp_tol,
                                cfg.kernel, max_rank=cap,
                                stats=fac.stats.kernels,
                                norm_ref=fac.comp_norm_ref)
            if lr is not None:
                accepted[side, i] = lr
    if accepted:
        # per side, the list of its blocks once one compressed
        blocks = [[accepted.get((side, i), np.ascontiguousarray(
            panel[offs[i]:offs[i + 1]])) for i in range(nc.sym.noff)]
            for side, panel in enumerate(panels)]
        nc.lpanel = nc.upanel = None
        nc.lblocks = blocks[0]
        nc.ublocks = blocks[1] if upanel is not None else None
        # what the accepted blocks discarded: ‖B‖² − ‖v‖² (orthonormal u)
        narrow_if_discarded(fac, nc, sum(
            sqnorm(panels[side][offs[i]:offs[i + 1]]) - sqnorm(lr.v)
            for (side, i), lr in accepted.items()))
    else:
        nc.lpanel, nc.upanel = lpanel, upanel
        nc.lblocks = nc.ublocks = None
    return nc.nbytes(fac.sides) - array_nbytes(nc.diag)

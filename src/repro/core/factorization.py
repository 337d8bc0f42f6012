"""Right-looking supernodal factorization drivers (Algorithms 1 and 2).

Per column block ``k`` the elimination performs the paper's three steps:

1. factorize the dense diagonal block (``getrf`` without pivoting /
   ``potrf``);
2. solve the off-diagonal panels against it — in Just-In-Time mode the
   panels meet their compression point *first* (Algorithm 2 lines 3–4), so
   the solves of the blocks that compressed run on the ``v`` factors;
3. apply the update ``A(i),(j) -= L(i),k · U k,(j)`` for every pair of
   off-diagonal blocks — dense GEMM, ``LR2GE`` or ``LR2LR`` depending on
   strategy and block storage.  Updates are *pulled* per target column
   block; those aimed at a low-rank block are gathered over all
   contributors and recompressed once (:data:`UpdateAccumulator`).

A column block stays in panel mode until a block in it actually compresses
(*blocks mode = holds at least one low-rank block*, whatever the strategy),
which lets step 2 run one TRSM per side and step 3 one batched GEMM per
side for each target it faces (PaStiX's stacked-panel trick); only a
column block that holds a low-rank block dispatches per block pair through
:mod:`repro.lowrank.kernels`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dense_kernels import (
    block_all_finite,
    flop_scale,
    getrf_flops,
    ldlt_flops,
    potrf_flops,
    trsm_flops,
)
from repro.core.backend import PivotError
from repro.core.factor import (
    Block,
    NumericColumnBlock,
    NumericFactor,
    compress_column_block,
    narrow_if_discarded,
)
from repro.runtime.recovery import NumericalBreakdown
from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import (
    block_nbytes,
    lr2ge_update,
    lr2lr_update_multi,
    lr_product,
    rank_cap,
)
from repro.runtime.memory import array_nbytes
from repro.runtime.spans import span


# ----------------------------------------------------------------------
# per-column-block elimination (steps 1 + 2)
# ----------------------------------------------------------------------

def factor_column_block(fac: NumericFactor, k: int) -> None:
    """Factor the diagonal block of column block ``k`` and solve its panels.

    When the factor carries a span profiler (``fac.profiler``) one
    ``"factor"`` span is recorded per call; when it carries a fault injector
    (``fac.faults``) the injector's factor-site hooks fire first (and may
    raise, stall, or poison the panels — that is their job).
    """
    if fac.faults is not None:
        fac.faults.on_factor(fac, k)
    if fac.recovery is not None:
        _breakdown_check_input(fac, k)
    cfg = fac.config
    nc = fac.cblks[k]
    stats = fac.stats.kernels
    be = fac.backend
    w = nc.width
    with span(fac.profiler, "factor", cblk=k, factotype=cfg.factotype):
        # --- step 1: diagonal block factorization -----------------------
        t0 = time.perf_counter()
        if cfg.factotype == "lu":
            lu, nperturbed = be.getrf(nc.diag, cfg.pivot_threshold)
            nc.diag[...] = lu
            fl = getrf_flops(w)
        elif cfg.factotype == "cholesky":
            l_mat, nperturbed = be.potrf(nc.diag, cfg.pivot_threshold)
            nc.diag[...] = 0.0
            nc.diag[np.tril_indices(w)] = l_mat[np.tril_indices(w)]
            fl = potrf_flops(w)
        elif cfg.factotype == "ldlt":
            if cfg.pivoting == "threshold":
                nperturbed = _ldlt_pivot_diag(fac, nc, k)
            else:
                packed, nperturbed = be.ldlt(nc.diag, cfg.pivot_threshold)
                # unit-lower L below, D on diagonal
                nc.diag[...] = np.tril(packed)
            fl = ldlt_flops(w)
        else:  # pragma: no cover - guarded by SolverConfig validation
            raise NotImplementedError(
                f"factotype {cfg.factotype!r} is not implemented yet")
        fac.add_perturbed(nperturbed)
        stats.add("block_facto", seconds=time.perf_counter() - t0,
                  flops=fl * flop_scale(fac.dtype))
        rec = fac.recovery
        if rec is not None:
            if not block_all_finite(nc.diag):
                rec.record("breakdown", site="factor", cblk=k,
                           cause="nan-factor")
                raise NumericalBreakdown(
                    "nan-factor", cblk=k, site="factor",
                    detail="diagonal factorization produced non-finite "
                           "entries")
            budget = (rec.policy.pivot_budget if rec.policy is not None
                      else None)
            # the budget polices *unsanctioned* perturbations; once the
            # escalation ladder (or the user) explicitly enables the
            # delayed-pivot fallback, its perturbations are the last
            # resort and charging them would make that rung unreachable
            sanctioned = cfg.pivoting == "threshold" and cfg.pivot_fallback
            if budget is not None and not sanctioned and nperturbed > budget * w:
                rec.record("breakdown", site="factor", cblk=k,
                           cause="pivot-budget", nperturbed=nperturbed)
                raise NumericalBreakdown(
                    "pivot-budget", cblk=k, site="factor",
                    detail=f"{nperturbed}/{w} pivots perturbed exceeds "
                           f"budget {budget}")

        # --- Just-In-Time compression point -------------------------------
        # ``ucf`` compresses the fully-updated panels before the solve
        # (Algorithm 2 lines 3-4); ``cuf`` compressed at assembly.
        v = fac.variant
        if v is not None and v.compress_before_solve:
            _compress_panels(fac, nc)

        # --- step 2: panel solves ----------------------------------------
        _panel_solve(fac, nc)
        nc.factored = True


def _first_nonfinite(nc: NumericColumnBlock) -> Optional[str]:
    """Name of the first storage piece of ``nc`` holding NaN/Inf, or None."""
    if not block_all_finite(nc.diag):
        return "diag"
    if nc.panel_mode:
        if not block_all_finite(nc.lpanel):
            return "lpanel"
        if nc.upanel is not None and not block_all_finite(nc.upanel):
            return "upanel"
        return None
    for side, blocks in (("l", nc.lblocks), ("u", nc.ublocks)):
        if blocks is None:
            continue
        for i, b in enumerate(blocks):
            if isinstance(b, LowRankBlock):
                if not (block_all_finite(b.u) and block_all_finite(b.v)):
                    return f"{side}blocks[{i}]"
            elif not block_all_finite(b):
                return f"{side}blocks[{i}]"
    return None


def _breakdown_check_input(fac: NumericFactor, k: int) -> None:
    """Pre-factor NaN/Inf sentinel: raise a structured breakdown instead of
    letting a poisoned panel silently contaminate the whole trailing
    matrix.  Only called when a recovery state is armed."""
    bad = _first_nonfinite(fac.cblks[k])
    if bad is not None:
        rec = fac.recovery
        if rec is not None:
            rec.record("breakdown", site="factor", cblk=k,
                       cause="nan-input", where=bad)
        raise NumericalBreakdown(
            "nan-input", cblk=k, site="factor",
            detail=f"non-finite entries in {bad} before factorization")


def _ldlt_pivot_diag(fac: NumericFactor, nc: NumericColumnBlock,
                     k: int) -> int:
    """Threshold (Bunch–Kaufman style) pivoted LDLᵀ of the diagonal block.

    Stores the packed factor on ``nc.diag``, the within-block permutation
    on ``nc.pivperm`` (``None`` when it collapses to identity) and the
    2×2 subdiagonal of D on ``nc.pivd21`` (``None`` when every pivot is
    1×1).  Returns the static-perturbation count — nonzero only in
    delayed-pivot fallback mode — so the caller's existing pivot-budget
    check keeps working.  Kernel pivot failures surface as structured
    :class:`NumericalBreakdown` events carrying the kernel's cause
    (``pivot-failure`` / ``pivot-growth``) for the recovery ladder.
    """
    cfg = fac.config
    be = fac.backend
    try:
        packed, perm, d21, pstats = be.ldlt_pivot(
            nc.diag, cfg.pivot_u, cfg.pivot_growth_limit,
            cfg.pivot_fallback, cfg.pivot_threshold)
    except PivotError as exc:
        rec = fac.recovery
        if rec is not None:
            rec.record("breakdown", site="factor", cblk=k,
                       cause=exc.kind, column=exc.col)
        raise NumericalBreakdown(
            exc.kind, cblk=k, site="factor", detail=str(exc)) from exc
    nc.diag[...] = np.tril(packed)
    nc.pivperm = (None if np.array_equal(perm, np.arange(nc.width))
                  else perm)
    nc.pivd21 = d21 if int(pstats["n2x2"]) else None
    fac.add_pivot_stats(pstats)
    swaps, n2x2 = int(pstats["swaps"]), int(pstats["n2x2"])
    perturbed = int(pstats["perturbed"])
    tele = cfg.telemetry
    if tele is not None and (swaps or n2x2 or perturbed):
        # one event per block that actually pivoted (the run-wide totals
        # live on the factor: fac.pivot_swaps / pivots_2x2 / pivot_growth)
        tele.emit("pivoting", cblk=k, swaps=swaps, two_by_two=n2x2,
                  perturbations=perturbed, growth=float(pstats["growth"]))
    return perturbed


def apply_d(x: np.ndarray, d: np.ndarray, d21: Optional[np.ndarray],
            hermitian: bool, inverse: bool = False,
            cols: bool = False) -> np.ndarray:
    """``D x`` — ``D⁻¹ x`` with ``inverse`` — for the block-diagonal D of
    an LDLᵗ factor, on the rows of ``x``; with ``cols``, ``x D`` / ``x D⁻¹``.

    ``d`` holds the diagonal of D, ``d21`` the subdiagonals of its 2×2
    pivot blocks (``d21[j] = D[j+1, j]``, zero elsewhere; ``None`` when
    every pivot is 1×1, and then this is one broadcast product or
    quotient).  A Hermitian factor has ``D[j, j+1] = conj(D[j+1, j])``.
    Each 2×2 block is inverted through its determinant.  Columns go
    through the rows of the transpose, ``x D = (Dᵗ xᵗ)ᵗ``, where ``Dᵗ`` is
    the D of ``conj(d21)``.  Complex products are not bitwise commutative
    (FMA), so a 2×2 product keeps its operands in the order it reads:
    ``x`` first in ``x D`` and in every solve, ``D`` first in ``D x``.
    """
    if cols:
        x, d21 = x.T, None if d21 is None else d21.conj()
    if d21 is None:
        out = x / d[:, None] if inverse else x * d[:, None]
        return out.T if cols else out
    idx = np.flatnonzero(d21)
    if inverse:
        de = d.copy()
        de[idx] = de[idx + 1] = 1.0
        out = x / de[:, None]
    else:
        out = x * d[:, None]
    for j in idx:
        dl = d21[j]
        du = np.conj(dl) if hermitian else dl
        x1, x2 = x[j], x[j + 1]
        if inverse:
            det = d[j] * d[j + 1] - du * dl
            out[j] = (x1 * d[j + 1] - x2 * du) / det
            out[j + 1] = (x2 * d[j] - x1 * dl) / det
        elif cols:
            out[j] = out[j] + x2 * du
            out[j + 1] = out[j + 1] + x1 * dl
        else:
            out[j] = d[j] * x1 + du * x2
            out[j + 1] = dl * x1 + d[j + 1] * x2
    return out.T if cols else out


def _compress_panels(fac: NumericFactor, nc: NumericColumnBlock) -> None:
    """Compression point of fully-updated dense panels (Algorithm 2 lines
    3-4).  The column block leaves panel mode only if a block is accepted
    (:func:`~repro.core.factor.compress_column_block`)."""
    with span(fac.profiler, "compress", cblk=nc.sym.id,
              kernel=fac.config.kernel):
        old_bytes = array_nbytes(nc.lpanel) * fac.sides
        fac.tracker.resize(old_bytes, compress_column_block(
            fac, nc, nc.lpanel, nc.upanel))


#: factotype → per stored side ``(side, lower, trans, unit, pivoted)``:
#: its off-diagonal blocks solve ``X op(T) = A`` against the ``lower`` (else
#: upper) triangle ``T`` of the factored diagonal block, unit or not, then
#: — when ``pivoted`` — take the within-block permutation first and
#: ``D⁻¹`` last.  ``"C"`` is the adjoint of a Hermitian factor and the
#: transpose of a real one.
_PANEL_SOLVES = {
    # L(i) U00 = A(i) ; Uᵗ(i) L00ᵗ = Aᵗ(i)
    "lu": (("l", False, "N", False, False), ("u", True, "T", True, False)),
    # L(i) L00ᴴ = A(i)
    "cholesky": (("l", True, "C", False, False),),
    # L(i) D L00ᴴ = A(i) Pᵗ
    "ldlt": (("l", True, "C", True, True),),
}


def _panel_solve(fac: NumericFactor, nc: NumericColumnBlock) -> None:
    """Solve every off-diagonal block against the factored diagonal, as
    :data:`_PANEL_SOLVES` says; a panel is one tall dense block.

    A low-rank block ``u vᵗ`` solves its ``v`` from the left with the
    flipped transpose (``u vᵗ op(T)⁻¹ = u (op(T)⁻ᵗ v)ᵗ``): ``N`` ↔ ``T``,
    and the adjoint of a Hermitian factor as conjugate / ``N`` solve (and
    ``D⁻¹``) / conjugate back.
    """
    be = fac.backend
    stats = fac.stats.kernels
    w = nc.width
    t0 = time.perf_counter()
    fl = 0.0
    for side, lower, trans, unit, pivoted in _PANEL_SOLVES[
            fac.config.factotype]:
        if trans == "C" and not fac.hermitian:
            trans = "T"
        adjoint = trans == "C"
        perm = nc.pivperm if pivoted else None
        if pivoted:
            d = np.diag(nc.diag)
            if fac.hermitian:
                d = d.real  # D is real for Hermitian LDLᴴ
        panel = getattr(nc, side + "panel")
        blocks = [panel] if panel is not None else getattr(nc, side + "blocks")
        for i, blk in enumerate(blocks):
            if isinstance(blk, LowRankBlock):
                if blk.rank:
                    v = blk.v if perm is None else blk.v[perm]
                    v = be.trsm(nc.diag, v.conj() if adjoint else v,
                                lower=lower, trans="T" if trans == "N" else "N",
                                unit_diagonal=unit)
                    if pivoted:
                        v = apply_d(v, d, nc.pivd21, fac.hermitian,
                                    inverse=True)
                    blk.v[...] = v.conj() if adjoint else v
                fl += trsm_flops(w, blk.rank)
            elif blk.shape[0]:
                x = be.trsm(nc.diag, blk if perm is None else blk[:, perm],
                            side="right", lower=lower, trans=trans,
                            unit_diagonal=unit)
                if pivoted:
                    x = apply_d(x, d, nc.pivd21, fac.hermitian,
                                inverse=True, cols=True)
                if panel is not None:
                    panel[...] = x
                else:  # rebound, so no block keeps the dense panel alive
                    blocks[i] = x.astype(blk.dtype, copy=False)
                fl += trsm_flops(w, blk.shape[0])
    stats.add("panel_solve", seconds=time.perf_counter() - t0,
              flops=fl * flop_scale(fac.dtype))


# ----------------------------------------------------------------------
# step 3: right-looking updates
# ----------------------------------------------------------------------

#: Task-local gather of the contributions aimed at the low-rank blocks of
#: one target column block (the Minimal-Memory extend-add): target block
#: ``(side, i)`` → its ``(piece, row_off, col_off)`` contributions.  Dense
#: pieces are subtracted into one lazily allocated block-sized scratch kept
#: at the head of the list (so it carries *minus* their sum); low-rank
#: pieces are kept as they come, to be stacked by :func:`flush_accumulated`.
#: One accumulator lives inside one fan-in task and never outlives it.
UpdateAccumulator = Dict[Tuple[str, int], List[Tuple[Block, int, int]]]


def apply_updates_from(fac: NumericFactor, k: int, target: int,
                       acc: UpdateAccumulator) -> None:
    """Apply the updates of source column block ``k`` aimed at column block
    ``target``.  Contributions to dense storage land immediately; those
    aimed at a low-rank block of ``target`` are gathered in ``acc`` (the
    calling task's accumulator) for :func:`flush_accumulated`.

    One ``"update"`` span is recorded per call; fault-injector update hooks
    fire first.
    """
    if fac.faults is not None:
        fac.faults.on_update(fac, k, target)
    nc = fac.cblks[k]
    with span(fac.profiler, "update", cblk=k, target=target,
              mode="panel" if nc.panel_mode else "blocks"):
        if nc.panel_mode:
            _updates_from_panel(fac, nc, target, acc)
        else:
            _updates_from_blocks(fac, nc, target, acc)


def _updates_from_panel(fac: NumericFactor, nc: NumericColumnBlock,
                        t: int, acc: UpdateAccumulator) -> None:
    """Batched dense update of ``t`` by a panel-mode source: one product
    per side and one landing per destination for the whole visit.

    With ``F`` the rows of the blocks facing ``t``, ``W = L[F ∪ below] ·
    U[F]ᵗ`` holds the facing square (its lower block triangle is the L
    side's, its strict upper one the Uᵗ side's transposed) on top of the L
    rows below; ``W_u = U[below] · L[F]ᵗ`` is the Uᵗ side's.  Symmetric
    factorizations keep the lower block triangle only — one product per
    facing block for the square when several face ``t`` — so the flops are
    those of the per-pair products either way
    (:meth:`SymbolicFactor.update_entries`).

    Hermitian factorizations (complex Cholesky/LDLᴴ) conjugate the
    transposed operand: the trailing update is ``A(i,j) -= L(i) L(j)ᴴ``
    (``.conj()`` is a no-copy pass-through for real panels).
    """
    stats = fac.stats.kernels
    sym = nc.sym
    offs = nc.row_offsets
    is_lu = nc.upanel is not None
    be = fac.backend
    first, end = fac.symb.facing_ranges(sym.id)[t]
    tnc = fac.cblks[t]
    drow, pos = fac.symb.landing_map(sym.id, t)
    base, dend = offs[first], offs[end]
    nf, nbelow = dend - base, len(pos)
    t0 = time.perf_counter()
    # the rows this visit multiplies, in the compute dtype (a panel stored
    # narrow by an older archive is promoted: exactly those rows)
    l_rows = _as_dtype(nc.lpanel[base:], fac.dtype)
    u_rows = _as_dtype(nc.upanel[base:], fac.dtype) if is_lu else None
    facing = _update_operand(fac, nc, l_rows[:nf],
                             u_rows[:nf] if is_lu else None)
    # rows facing t go to its diagonal block, the rows below to its
    # off-diagonal storage: through a slice where the landing is contiguous
    cols = _span(drow)
    below = below_u = None
    if is_lu or end - first == 1:
        w = be.gemm(l_rows, facing, trans_b="T")
        _subtract_at(tnc.diag, cols, cols, w[:nf])
        below = w[nf:]
    else:
        for j in range(first, end):
            lo, hi = offs[j] - base, offs[j + 1] - base
            tnc.diag[drow[lo:], drow[lo]:drow[lo] + hi - lo] -= be.gemm(
                l_rows[lo:nf], facing[lo:hi], trans_b="T")
        if nbelow:
            below = be.gemm(l_rows[nf:], facing, trans_b="T")
    if is_lu and nbelow:
        below_u = be.gemm(u_rows[nf:], l_rows[:nf], trans_b="T")
    # one charge per visit, from the structure: every entry computed costs
    # 2·width flops, every entry landed one more
    landed, below_entries = fac.symb.update_entries(sym.id, t, is_lu)
    computed = landed + fac.sides * below_entries
    slabs = [("l", below), ("u", below_u)] if is_lu else [("l", below)]
    if tnc.panel_mode and nbelow:
        rows = _span(pos)
        for side, slab in slabs:
            _subtract_at(tnc.lpanel if side == "l" else tnc.upanel,
                         rows, cols, slab)
    elif nbelow:
        # blocks-mode target: W cut once, at the target's block boundaries
        toffs = tnc.row_offsets
        cut = pos.searchsorted(toffs)
        for i in np.flatnonzero(cut[1:] > cut[:-1]):
            lo, hi = cut[i], cut[i + 1]
            rows = _span(pos[lo:hi] - toffs[i])
            for side, slab in slabs:
                _subtract_at(_landing(fac, tnc, side, i, acc), rows, cols,
                             slab[lo:hi])
    stats.add("dense_update", seconds=time.perf_counter() - t0,
              flops=2.0 * nc.width * computed * flop_scale(fac.dtype)
              + computed)


def _span(idx: np.ndarray) -> "slice | np.ndarray":
    """The sorted, duplicate-free index array ``idx`` as a slice when its
    entries are consecutive (first/last test), else itself."""
    n = len(idx)
    if n and idx[-1] - idx[0] == n - 1:
        return slice(idx[0], idx[0] + n)
    return idx


def _subtract_at(dst: np.ndarray, rows: "slice | np.ndarray",
                 cols: "slice | np.ndarray", w: np.ndarray) -> None:
    """``dst[rows × cols] -= w`` for rows and columns each given as a slice
    or an index array (of :func:`_span`)."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        rows = rows[:, None]
    dst[rows, cols] -= w


def _updates_from_blocks(fac: NumericFactor, nc: NumericColumnBlock,
                         t: int, acc: UpdateAccumulator) -> None:
    """Per-pair updates through the low-rank kernels — the sources that
    left panel mode because a block of theirs compressed.

    Hermitian factorizations conjugate the transposed operand
    (``A(i,j) -= L(i) L(j)ᴴ``), as in the panel path.
    """
    cfg = fac.config
    stats = fac.stats.kernels
    sym = nc.sym
    is_lu = nc.ublocks is not None
    first, end = fac.symb.facing_ranges(sym.id)[t]
    tnc = fac.cblks[t]
    offs = nc.row_offsets
    drow, pos = fac.symb.landing_map(sym.id, t)
    base, dend = offs[first], offs[end]
    # the operands of this visit in the compute dtype, promoted once each
    # (a product of two narrow operands would otherwise run narrow)
    lsrc = [_as_dtype(b, fac.dtype) for b in nc.lblocks[first:]]
    usrc = ([_as_dtype(b, fac.dtype) for b in nc.ublocks[first:]]
            if is_lu else None)
    for j in range(first, end):
        coff = sym.blocks[1 + j].first_row - tnc.sym.first_col
        lb_j = lsrc[j - first]
        ub_j = _update_operand(fac, nc, lb_j,
                               usrc[j - first] if is_lu else None)
        for i in range(j, sym.noff):
            in_diag = i < end
            row = drow[offs[i] - base] if in_diag else pos[offs[i] - dend]
            contrib = lr_product(lsrc[i - first], ub_j,
                                 fac.comp_tol, cfg.kernel, stats,
                                 norm_ref=fac.comp_norm_ref)
            if contrib is not None:
                _land_block(fac, tnc, in_diag, row, coff, contrib, "l", acc)
            if is_lu and i > j:
                contrib_u = lr_product(usrc[i - first], lb_j,
                                       fac.comp_tol, cfg.kernel,
                                       stats, norm_ref=fac.comp_norm_ref)
                if contrib_u is not None:
                    _land_block(fac, tnc, in_diag, row, coff, contrib_u,
                                "u", acc)


def flush_accumulated(fac: NumericFactor, k: int,
                      acc: UpdateAccumulator) -> None:
    """Land the contributions gathered for ``k``'s low-rank blocks: one
    compression of the dense scratch (under the target's rank cap) and one
    recompression per target block, falling back to dense storage when the
    cap is exceeded.  Empties ``acc``, so the scratch is released before
    ``k`` is factored."""
    cfg = fac.config
    stats = fac.stats.kernels
    tnc = fac.cblks[k]
    # nothing is released while gathering: the high-water mark is now
    fac.note_accumulator_peak(sum(
        block_nbytes(piece) for contribs in acc.values()
        for piece, _, _ in contribs))
    dropped = 0.0
    for (side, i), contribs in acc.items():
        scratch = contribs[0][0]
        if isinstance(scratch, np.ndarray):
            # gathered through lr2ge_update, it holds minus the sum
            np.negative(scratch, out=scratch)
        tgt = (tnc.lblocks if side == "l" else tnc.ublocks)[i]
        cap = rank_cap(tgt.m, tgt.n, cfg.rank_ratio)
        stored = tgt.dtype
        tgt = tgt.astype(fac.dtype)
        tail: List[float] = []
        new: Optional[Block] = lr2lr_update_multi(
            tgt, contribs, fac.comp_tol, cfg.kernel, max_rank=cap,
            stats=stats, norm_ref=fac.comp_norm_ref, tail=tail)
        if new is None:
            # rank exceeded the cap: fall back to dense storage (updated
            # at full precision and exactly, stored as the target was)
            new = np.asarray(tgt.to_dense(), dtype=fac.dtype)
            for piece, ro, co in contribs:
                lr2ge_update(new, piece, ro, co, stats)
        else:
            # the scratch's compression, then the recompression
            dropped += sum(tail)
        fac.set_block(tnc, side, i,
                      new if new.dtype == stored else new.astype(stored))
    acc.clear()
    if dropped > 0:
        # precision follows the error discarded, as at a compression point
        before = tnc.nbytes(fac.sides)
        narrow_if_discarded(fac, tnc, dropped)
        fac.tracker.resize(before, tnc.nbytes(fac.sides))


def _as_dtype(block: Optional[Block], dtype: np.dtype) -> Optional[Block]:
    """``block`` cast to ``dtype`` — itself when it already is.  Updates
    promote every narrow operand so: a product of *two* narrow operands
    would otherwise run in storage precision."""
    if isinstance(block, LowRankBlock):
        return block.astype(dtype)
    if isinstance(block, np.ndarray) and block.dtype != dtype:
        return block.astype(dtype)
    return block


def _update_operand(fac: NumericFactor, nc: NumericColumnBlock,
                    lb: Block, ub: Optional[Block]) -> Block:
    """The transposed operand of the updates ``A(i),(j) -= L(i) op(·)``
    from facing block ``j``: ``U(j)`` (LU, stored as ``ub``), ``L(j) D``
    (LDLᵗ) or ``L(j)`` (Cholesky) — conjugated for a Hermitian factor,
    whose update is ``L(i) (L(j) D)ᴴ``.  The within-block pivot
    permutation contracts away (both operands live in the permuted
    basis); a low-rank ``L(j) = u vᵗ`` takes D on ``vᵗ``."""
    if ub is not None:
        return ub
    if fac.config.factotype == "ldlt":
        # D stays complex here while the solves read it .real: the two
        # round signed zeros apart, and the pinned digests see it
        d, d21 = np.diag(nc.diag), nc.pivd21
        if isinstance(lb, LowRankBlock):  # (u vᵗ) D = u (Dᵗ v)ᵗ
            dt21 = None if d21 is None else d21.conj()
            lb = LowRankBlock(lb.u, apply_d(lb.v, d, dt21, fac.hermitian))
        else:
            lb = apply_d(lb, d, d21, fac.hermitian, cols=True)
    return lb.conj() if fac.hermitian else lb


# ----------------------------------------------------------------------
# landing of one source block's contribution in the target column block
# ----------------------------------------------------------------------

def _transpose(contrib: Block) -> Block:
    if isinstance(contrib, LowRankBlock):
        return LowRankBlock(contrib.v, contrib.u)
    return contrib.T


def _land_block(fac: NumericFactor, tnc: NumericColumnBlock, in_diag: bool,
                row: int, coff: int, contrib: Block, side: str,
                acc: UpdateAccumulator) -> None:
    """Subtract ``contrib`` — one source block's rows, one facing block's
    columns — from column block ``tnc`` at local column ``coff`` and the
    landing ``row`` of :meth:`SymbolicFactor.landing_map`: a local row of
    the diagonal block when ``in_diag``, else a position in the stacked
    off-diagonal frame.

    ``side == 'l'`` updates the L storage, ``side == 'u'`` the Uᵗ storage
    (transposed into the diagonal block's upper triangle when ``in_diag``).
    Pieces aimed at a low-rank block are gathered in ``acc`` instead.  One
    rule on every branch: a rank-0 low-rank contribution lands nothing,
    gathers nothing and charges nothing.
    """
    if isinstance(contrib, LowRankBlock) and contrib.rank == 0:
        return
    stats = fac.stats.kernels
    if in_diag:  # always dense
        if side == "l":
            lr2ge_update(tnc.diag, contrib, row, coff, stats)
        else:
            lr2ge_update(tnc.diag, _transpose(contrib), coff, row, stats)
        return
    if tnc.panel_mode:
        lr2ge_update(tnc.lpanel if side == "l" else tnc.upanel, contrib,
                     row, coff, stats)
        return
    # blocks-mode target: cut where the rows cross into the next block
    offs = tnc.row_offsets
    blocks = tnc.lblocks if side == "l" else tnc.ublocks
    i = offs.searchsorted(row, side="right") - 1
    stop = row + contrib.shape[0]
    lo = row
    while lo < stop:
        hi = min(stop, offs[i + 1])
        piece = contrib
        if hi - lo < stop - row:
            piece = (LowRankBlock(contrib.u[lo - row:hi - row], contrib.v)
                     if isinstance(contrib, LowRankBlock)
                     else contrib[lo - row:hi - row])
        if (isinstance(blocks[i], LowRankBlock)
                and isinstance(piece, LowRankBlock)):
            acc.setdefault((side, i), []).append((piece, lo - offs[i], coff))
        else:
            lr2ge_update(_landing(fac, tnc, side, i, acc), piece,
                         lo - offs[i], coff, stats)
        lo, i = hi, i + 1


def _landing(fac: NumericFactor, tnc: NumericColumnBlock, side: str,
             i: int, acc: UpdateAccumulator) -> np.ndarray:
    """Where dense entries aimed at block ``i`` of ``tnc``'s ``side``
    land: the block itself when it is dense, else the scratch at the head
    of its accumulator list, allocated on first use (it carries minus the
    sum of what lands)."""
    tgt = (tnc.lblocks if side == "l" else tnc.ublocks)[i]
    if not isinstance(tgt, LowRankBlock):
        return tgt
    pend = acc.setdefault((side, i), [])
    if not (pend and isinstance(pend[0][0], np.ndarray)):
        pend.insert(0, (np.zeros(tgt.shape, dtype=fac.dtype), 0, 0))
    return pend[0][0]

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

Every column block keeps its dense rows stacked in one panel per side,
beside the map of its low-rank blocks (:mod:`repro.core.factor`): step 2
is one TRSM per side for the panel and one per low-rank ``v``; step 3 one
batched GEMM per side for the dense rows of each target a source faces
(PaStiX's stacked-panel trick, :func:`_updates_from_panel`), while only
the facing pairs that hold a low-rank block go pair by pair through
:mod:`repro.lowrank.kernels` (:func:`_updates_from_lowrank`).  A target's
dense rows are found in its panel by a per-block row shift; what faces
its low-rank blocks gathers in the accumulator.  The column blocks of a
bottom subtree (no low-rank candidate anywhere below them) pass their
updates up as dense contribution blocks instead of visiting each target:
one product per column block (:func:`accumulate_contribution`), one
extend-add per child (:func:`extend_add`) and one landing per target
outside (:func:`land_contribution`), through the same landing as a visit
(:func:`_land_dense`).
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
from repro.core.backend import PivotError, accumulate_product
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
            lu, nperturbed = be.getrf(nc.diag)
            nc.diag[...] = lu
            fl = getrf_flops(w)
        elif cfg.factotype == "cholesky":
            l_mat, nperturbed = be.potrf(nc.diag)
            nc.diag[...] = 0.0
            nc.diag[np.tril_indices(w)] = l_mat[np.tril_indices(w)]
            fl = potrf_flops(w)
        elif cfg.factotype == "ldlt":
            if cfg.pivoting == "threshold":
                nperturbed = _ldlt_pivot_diag(fac, nc, k)
            else:
                packed, nperturbed = be.ldlt(nc.diag)
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
                raise NumericalBreakdown(
                    "pivot-budget", cblk=k, site="factor",
                    detail=f"{nperturbed}/{w} pivots perturbed exceeds "
                           f"budget {budget}", nperturbed=nperturbed)

        # --- Just-In-Time compression point -------------------------------
        # the fully-updated panels are compressed before the solve
        # (Algorithm 2 lines 3-4); Minimal Memory compressed when the task
        # filled the column block (NumericFactor.fill_column_block).
        if cfg.compress_before_solve:
            with span(fac.profiler, "compress", cblk=k, kernel=cfg.kernel):
                fac.tracker.resize(
                    array_nbytes(nc.lpanel) * fac.sides,
                    compress_column_block(fac, nc, nc.lpanel, nc.upanel))

        # --- step 2: panel solves ----------------------------------------
        _panel_solve(fac, nc)
        nc.factored = True


def _breakdown_check_input(fac: NumericFactor, k: int) -> None:
    """Pre-factor NaN/Inf sentinel: raise a structured breakdown, naming
    the first storage piece of column block ``k`` that holds one, instead
    of letting a poisoned panel silently contaminate the whole trailing
    matrix.  Only called when a recovery state is armed."""
    nc = fac.cblks[k]
    pieces = [("diag", (nc.diag,))] + [
        (f"{side}panel" if i < 0 else f"{side}block({i})",
         (b.u, b.v) if isinstance(b, LowRankBlock) else (b,))
        for side, i, b in nc.stored()]
    for bad, parts in pieces:
        if not all(map(block_all_finite, parts)):
            raise NumericalBreakdown(
                "nan-input", cblk=k, site="factor",
                detail=f"non-finite entries in {bad} before factorization",
                where=bad)


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
            nc.diag, cfg.pivot_u, fallback=cfg.pivot_fallback)
    except PivotError as exc:
        raise NumericalBreakdown(
            exc.kind, cblk=k, site="factor", detail=str(exc),
            column=exc.col) from exc
    nc.diag[...] = np.tril(packed)
    nc.pivperm = (None if np.array_equal(perm, np.arange(nc.width))
                  else perm)
    nc.pivd21 = d21 if int(pstats["n2x2"]) else None
    fac.add_pivot_stats(pstats)
    return int(pstats["perturbed"])


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
    :data:`_PANEL_SOLVES` says: per side one TRSM for the panel's dense
    rows, and one per low-rank block.

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
        panel = nc.panel(side)
        if panel.shape[0]:
            x = be.trsm(nc.diag, panel if perm is None else panel[:, perm],
                        side="right", lower=lower, trans=trans,
                        unit_diagonal=unit)
            if pivoted:
                x = apply_d(x, d, nc.pivd21, fac.hermitian, inverse=True,
                            cols=True)
            panel[...] = x
            fl += trsm_flops(w, panel.shape[0])
        for blk in nc.lowrank(side).values():
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


def apply_updates_from(fac: NumericFactor, k: int, t: int,
                       acc: UpdateAccumulator) -> Tuple[float, float, int]:
    """Apply the updates of column block ``k`` aimed at column block ``t``
    (those aimed at a low-rank block of ``t`` gather in the task's ``acc``
    for :func:`flush_accumulated`): the dense rows through
    :func:`_updates_from_panel`, whose ``(seconds, flops, gemms)`` the task
    charges, the pairs holding a low-rank block through
    :func:`_updates_from_lowrank`.  The fault injector's update hook fires
    first; one ``"update"`` span is recorded per call."""
    if fac.faults is not None:
        fac.faults.on_update(fac, k, t)
    nc = fac.cblks[k]
    with span(fac.profiler, "update", cblk=k, target=t, mode="visit"):
        t0 = time.perf_counter()
        first, end = fac.symb.facing_ranges(k)[t]
        drow, pos = fac.symb.landing_map(k, t, first, end)
        dense = [_dense_rows(fac, nc, side, first, drow, pos)
                 for side in "lu"[:fac.sides]]
        flops, gemms = _updates_from_panel(fac, nc, t, end - first, dense, acc)
        seconds = time.perf_counter() - t0
        if nc.llowrank or nc.ulowrank:
            _updates_from_lowrank(fac, nc, t, first, end, drow, pos, dense,
                                  acc)
    return seconds, flops, gemms


def _dense_rows(fac: NumericFactor, nc: NumericColumnBlock, side: str,
                first: int, drow: np.ndarray, pos: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, offs, drow, pos)`` of ``side`` for a visit from block
    ``first`` on: the panel from there (compute dtype), where each block
    from ``first`` on starts in it, the landing map of those rows."""
    offs = nc.panel_offsets(side)
    base = offs[first]
    rows = _as_dtype(nc.panel(side)[base:], fac.dtype)
    if offs is not nc.row_offsets:  # skip the rows of the low-rank blocks
        keep = nc.panel_rows(side)[nc.row_offsets[first]:]
        drow, pos = drow[keep[:len(drow)]], pos[keep[len(drow):]]
    return rows, offs[first:] - base, drow, pos


def _updates_from_panel(fac: NumericFactor, nc: NumericColumnBlock, t: int,
                        nfacing: int, dense: List[Tuple[np.ndarray, ...]],
                        acc: UpdateAccumulator) -> Tuple[float, int]:
    """Batched dense update of ``t`` by the dense rows of a source, per
    side as :func:`_dense_rows` gives them, whose first ``nfacing`` blocks
    face ``t``: one product per side and one landing per destination.
    Returns ``(flops, gemms)`` for the calling task to charge: every entry
    computed costs ``2·width`` flops to form and one to land.

    With ``F`` the dense rows of the blocks facing ``t``, ``W = L[F ∪
    below] · U[F]ᵗ`` holds the facing square (its lower block triangle is
    the L side's, its strict upper one the Uᵗ side's transposed) on top of
    the L rows below; ``W_u = U[below] · L[F]ᵗ`` is the Uᵗ side's.
    Symmetric factorizations keep the lower block triangle only — one
    product per facing block for the square when several face ``t``.

    Hermitian factorizations (complex Cholesky/LDLᴴ) conjugate the
    transposed operand: the trailing update is ``A(i,j) -= L(i) L(j)ᴴ``
    (``.conj()`` is a no-copy pass-through for real panels).
    """
    tnc = fac.cblks[t]
    l_rows, loffs, ldrow, lpos = dense[0]
    nf = loffs[nfacing]
    square = below = None
    slabs: List[Tuple[str, np.ndarray, "slice | np.ndarray", np.ndarray]] = []
    computed = gemms = 0
    lcols = ucols = _span(ldrow)
    if fac.sides == 2:
        u_rows, uoffs, udrow, upos = dense[1]
        ucols, unf = lcols if udrow is ldrow else _span(udrow), uoffs[nfacing]
        if unf and len(l_rows):
            w = l_rows @ u_rows[:unf].T
            square, below = w[:nf], w[nf:]
            computed, gemms = w.size, 1
        if len(upos) and nf:
            below_u = u_rows[unf:] @ l_rows[:nf].T
            slabs.append(("u", upos, lcols, below_u))
            computed += below_u.size
            gemms += 1
    elif nf:
        facing = _update_operand(fac, nc, l_rows[:nf], None)
        if nfacing == 1:
            w = l_rows @ facing.T
            square, below = w[:nf], w[nf:]
            computed, gemms = w.size, 1
        else:
            for lo, hi in zip(loffs[:nfacing], loffs[1:nfacing + 1]):
                if hi > lo:
                    part = l_rows[lo:nf] @ facing[lo:hi].T
                    tnc.diag[ldrow[lo:], ldrow[lo]:ldrow[lo] + hi - lo] -= part
                    computed += part.size
                    gemms += 1
            if len(lpos):
                below = l_rows[nf:] @ facing.T
                computed += below.size
                gemms += 1
    if below is not None:
        slabs.insert(0, ("l", lpos, ucols, below))
    _land_dense(fac, tnc, (lcols, ucols), square, slabs, acc)
    return (2.0 * nc.width * computed * flop_scale(fac.dtype) + computed,
            gemms)


def _land_dense(fac: NumericFactor, tnc: NumericColumnBlock,
                at: Tuple["slice | np.ndarray", "slice | np.ndarray"],
                square: Optional[np.ndarray],
                slabs: List[Tuple[str, np.ndarray, "slice | np.ndarray",
                                  np.ndarray]],
                acc: UpdateAccumulator) -> None:
    """Subtract one dense update from the target column block ``tnc``:
    ``square`` from its diagonal block at the rows and columns ``at``
    (none when the caller landed it), and each ``(side, pos, cols, slab)``
    at the frame positions ``pos`` and the columns ``cols`` of that side:
    in the panel, shifted past the rows of the low-rank blocks before
    them, or in a low-rank block's scratch in ``acc``."""
    if square is not None:
        _subtract_at(tnc.diag, at[0], at[1], square)
    last = rows = None
    for side, pos, cols, slab in slabs:
        if not len(pos):
            continue
        panel, lowrank = tnc.panel(side), tnc.lowrank(side)
        if not lowrank:
            if pos is not last:  # the sides often share their rows
                last, rows = pos, _span(pos)
            _subtract_at(panel, rows, cols, slab)
            continue
        offs, poffs = tnc.row_offsets, tnc.panel_offsets(side)
        cut = pos.searchsorted(offs)
        start = 0  # the first block of a run of dense blocks
        for i in (*lowrank, tnc.sym.noff):  # ascending
            lo, hi = cut[start], cut[i]
            if hi > lo:  # one shift for the whole run
                _subtract_at(panel, _span(pos[lo:hi] - offs[start]
                                          + poffs[start]), cols, slab[lo:hi])
            if i in lowrank and cut[i + 1] > hi:
                # the scratch at the head of the block's gather, allocated
                # on first use: it carries minus the sum of what lands
                pend = acc.setdefault((side, i), [])
                if not (pend and isinstance(pend[0][0], np.ndarray)):
                    pend.insert(0, (np.zeros(lowrank[i].shape,
                                             dtype=fac.dtype), 0, 0))
                _subtract_at(pend[0][0], _span(pos[hi:cut[i + 1]] - offs[i]),
                             cols, slab[hi:cut[i + 1]])
            start = i + 1


def _span(idx: np.ndarray) -> "slice | np.ndarray":
    """The sorted, duplicate-free index array ``idx`` as a slice when its
    entries are consecutive (first/last test), else itself."""
    n = len(idx)
    if n and idx[-1] - idx[0] == n - 1:
        return slice(idx[0], idx[0] + n)
    return idx


def _block_index(rows: "slice | np.ndarray", cols: "slice | np.ndarray"
                 ) -> Tuple["slice | np.ndarray", "slice | np.ndarray"]:
    """The index of ``dst[rows × cols]`` for rows and columns each given as
    a slice or an index array (of :func:`_span`)."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return rows[:, None], cols
    return rows, cols


def _subtract_at(dst: np.ndarray, rows: "slice | np.ndarray",
                 cols: "slice | np.ndarray", w: np.ndarray) -> None:
    """``dst[rows × cols] -= w`` (:func:`_block_index`)."""
    dst[_block_index(rows, cols)] -= w


# ----------------------------------------------------------------------
# bottom subtrees: updates passed up as dense contribution blocks
# ----------------------------------------------------------------------
#
# A column block of a bottom subtree (``SymbolicFactor.subtree_plan``)
# never holds a low-rank block: none of its blocks is a candidate.  Its
# contribution block (CB) is a Fortran-ordered square over its
# off-diagonal rows that holds the sum of the updates its subtree aims at
# those rows, still to be subtracted: entry ``(a, b)`` updates the matrix
# entry at global rows ``(off_rows[a], off_rows[b])``.  An LU CB is the
# whole square; a symmetric one is valid on its lower block triangle (and
# so on the lower triangle of every diagonal block it lands in, the one
# the diagonal kernels read).


def accumulate_contribution(fac: NumericFactor, nc: NumericColumnBlock,
                            cb: np.ndarray) -> Tuple[float, int]:
    """Add the update of the factored column block ``nc`` to its
    contribution block ``cb``: for LU, ``L·(Uᵗ)ᵗ`` over all its rows by one
    ``?gemm`` with ``beta = 1`` (:func:`~repro.core.backend.
    accumulate_product`); for a symmetric factorization the lower block
    triangle, one product per off-diagonal block against
    :func:`_update_operand`.  Returns ``(flops, gemms)``, the flops those
    of the fan-in visits it replaces: every entry of the square (its lower
    block triangle when symmetric) costs ``2·width`` to form, one to land."""
    offs = nc.row_offsets
    nrows = nc.offrows
    if nc.upanel is not None:
        accumulate_product(cb, nc.lpanel, nc.upanel)
        computed, gemms = nrows * nrows, 1
    else:
        op = _update_operand(fac, nc, nc.lpanel, None)
        for j in range(nc.sym.noff):
            lo, hi = offs[j], offs[j + 1]
            cb[lo:, lo:hi] += nc.lpanel[lo:] @ op[lo:hi].T
        computed = (nrows * nrows + int((np.diff(offs) ** 2).sum())) // 2
        gemms = nc.sym.noff
    return (2.0 * nc.width * computed * flop_scale(fac.dtype) + computed,
            gemms)


def extend_add(fac: NumericFactor, c: int, k: int, cb_c: np.ndarray,
               cb_k: np.ndarray) -> None:
    """Extend-add the contribution block ``cb_c`` of ``c`` into its parent
    ``k`` inside a bottom subtree: the rows facing ``k`` land in its
    diagonal block and its panels (:func:`_land_dense`), the rest adds
    into ``k``'s own contribution block ``cb_k`` (their rows are rows of
    ``k``: :meth:`SymbolicFactor.landing_map`).  ``cb_c`` is only read.
    Fires the fault injector's update hook and records one ``"update"``
    span, as a fan-in visit does."""
    if fac.faults is not None:
        fac.faults.on_update(fac, c, k)
    with span(fac.profiler, "update", cblk=c, target=k, mode="cb"):
        nf, pos = _land_contribution(fac, c, k, cb_c, {})
        if len(pos):
            rows = _span(pos)
            cb_k[_block_index(rows, rows)] += cb_c[nf:, nf:]


def land_contribution(fac: NumericFactor, r: int, t: int, cb: np.ndarray,
                      acc: UpdateAccumulator) -> int:
    """Land the part of subtree root ``r``'s held contribution block
    ``cb`` that faces ``t``, a column block outside every bottom subtree.
    ``t``'s targets consume it in ascending order, so ``cb`` starts at the
    rows facing ``t``; returns how many there are, for the engine to cut
    ``cb`` down to its trailing square once ``t``'s task has succeeded.
    ``cb`` is only read.  Hooks and span as in :func:`extend_add`."""
    if fac.faults is not None:
        fac.faults.on_update(fac, r, t)
    with span(fac.profiler, "update", cblk=r, target=t, mode="cb"):
        return _land_contribution(fac, r, t, cb, acc)[0]


def _land_contribution(fac: NumericFactor, c: int, t: int, cb: np.ndarray,
                       acc: UpdateAccumulator) -> Tuple[int, np.ndarray]:
    """Subtract the rows of ``cb`` (``c``'s contribution block, starting at
    its blocks facing ``t``) that ``t``'s column block holds: the facing
    square from its diagonal block, the rows below against the facing
    columns from its L side and, for LU, their mirror from its Uᵗ side.
    Returns the number of facing rows and the frame positions of the rows
    below them in ``t``."""
    first, end = fac.symb.facing_ranges(c)[t]
    drow, pos = fac.symb.landing_map(c, t, first, end)
    nf = len(drow)
    cols = _span(drow)
    slabs = [("l", pos, cols, cb[nf:, :nf])]
    if fac.sides == 2:
        slabs.append(("u", pos, cols, cb[:nf, nf:].T))
    _land_dense(fac, fac.cblks[t], (cols, cols), cb[:nf, :nf], slabs, acc)
    return nf, pos


def _updates_from_lowrank(fac: NumericFactor, nc: NumericColumnBlock,
                          t: int, first: int, end: int, drow: np.ndarray,
                          pos: np.ndarray, dense: List[Tuple[np.ndarray, ...]],
                          acc: UpdateAccumulator) -> None:
    """The updates of ``t`` that :func:`_updates_from_panel` leaves out:
    pair by pair through the low-rank kernels, for each facing pair
    ``(i, j)`` (``i ≥ j``, plus the Uᵗ side's ``i > j``) whose operands
    hold a low-rank block.

    Hermitian factorizations conjugate the transposed operand
    (``A(i,j) -= L(i) L(j)ᴴ``), as in the panel path.
    """
    noff = nc.sym.noff
    is_lu = fac.sides == 2
    offs = nc.row_offsets
    base, dend = offs[first], offs[end]
    coff0 = fac.cblks[t].sym.first_col
    lr_l, lr_u = nc.llowrank, nc.ulowrank
    lr_op = lr_u if is_lu else lr_l  # the blocks op(L(j)) reads
    # the blocks from ``first`` on in the compute dtype: a low-rank one
    # promoted here, a dense one a slice of the visit's promoted rows
    src = [[_as_dtype(lr[i], fac.dtype) if i in lr else
            rows[roffs[i - first]:roffs[i + 1 - first]]
            for i in range(first, noff)]
           for lr, (rows, roffs, _, _) in zip((lr_l, lr_u), dense)]
    lsrc, usrc = src[0], src[-1]  # usrc is read for LU only

    def product(a: Block, b: Block) -> Optional[Block]:
        return lr_product(a, b, fac.comp_tol, fac.config.kernel,
                          fac.stats.kernels, norm_ref=fac.comp_norm_ref)

    for j in range(first, end):
        coff = nc.sym.blocks[1 + j].first_row - coff0
        lb_j = lsrc[j - first]
        ub_j = _update_operand(fac, nc, lb_j,
                               usrc[j - first] if is_lu else None)
        for i in range(j, noff):
            l_pair = i in lr_l or j in lr_op
            u_pair = is_lu and i > j and (i in lr_u or j in lr_l)
            if not (l_pair or u_pair):
                continue
            in_diag = i < end
            row = drow[offs[i] - base] if in_diag else pos[offs[i] - dend]
            if l_pair:
                _land_block(fac, t, in_diag, row, coff,
                            product(lsrc[i - first], ub_j), "l", acc)
            if u_pair:
                _land_block(fac, t, in_diag, row, coff,
                            product(usrc[i - first], lb_j), "u", acc)


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
        tgt = tnc.lowrank(side)[i]
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
        before = tnc.nbytes()
        narrow_if_discarded(fac, tnc, dropped)
        fac.tracker.resize(before, tnc.nbytes())


def _as_dtype(block: Block, dtype: np.dtype) -> Block:
    """``block`` cast to ``dtype`` — itself when it already is.  Updates
    promote every narrow operand so: a product of *two* narrow operands
    would otherwise run in storage precision."""
    return block if block.dtype == dtype else block.astype(dtype)


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

def _land_block(fac: NumericFactor, t: int, in_diag: bool, row: int,
                coff: int, contrib: Optional[LowRankBlock], side: str,
                acc: UpdateAccumulator) -> None:
    """Subtract the low-rank ``contrib`` — one source block's rows, one
    facing block's columns — from column block ``t`` at local column
    ``coff`` and the landing ``row`` of :meth:`SymbolicFactor.landing_map`:
    a local row of the diagonal block when ``in_diag``, else a position in
    the stacked off-diagonal frame, cut at the target's blocks when it
    holds a low-rank one (gathered in ``acc``).  ``side == 'u'`` updates
    the Uᵗ storage (transposed into the diagonal block's upper triangle).
    A product that vanished (``None``) or has rank 0 lands nothing.
    """
    if contrib is None or contrib.rank == 0:
        return
    stats = fac.stats.kernels
    tnc = fac.cblks[t]
    if in_diag:  # always dense; the Uᵗ side lands transposed
        if side == "u":
            contrib, row, coff = LowRankBlock(contrib.v, contrib.u), coff, row
        lr2ge_update(tnc.diag, contrib, row, coff, stats)
        return
    panel, lowrank = tnc.panel(side), tnc.lowrank(side)
    if not lowrank:
        lr2ge_update(panel, contrib, row, coff, stats)
        return
    offs, poffs = tnc.row_offsets, tnc.panel_offsets(side)
    i = offs.searchsorted(row, side="right") - 1
    lo, stop = row, row + contrib.m
    while lo < stop:
        hi = min(stop, offs[i + 1])
        piece = (contrib if hi - lo == contrib.m else
                 LowRankBlock(contrib.u[lo - row:hi - row], contrib.v))
        if i in lowrank:
            acc.setdefault((side, i), []).append((piece, lo - offs[i], coff))
        else:
            lr2ge_update(panel, piece, lo - offs[i] + poffs[i], coff, stats)
        lo, i = hi, i + 1

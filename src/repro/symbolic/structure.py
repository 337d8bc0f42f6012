"""Block structure of the factorized matrix.

Follows the paper's notation (§2.1 and Figure 2): the matrix is partitioned
into ``Ncblk`` column blocks; column block ``k`` owns a dense diagonal block
``A(0),k`` plus ``bk`` off-diagonal blocks ``A(j),k``, each spanning the full
width of the column block and a contiguous *row* interval ``(j)`` that lies
entirely inside one facing column block.  With a symmetric pattern the row
block ``Ak,(1:bk)`` of U has exactly the same shape, so the same structure
describes both L and (transposed) U storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class SymbolicBlock:
    """One block of a column block.

    ``first_row`` / ``nrows`` give the global (post-ordering) row interval;
    ``facing`` is the id of the column block whose columns cover those rows
    (for the diagonal block, the column block itself); ``lr_candidate``
    marks blocks eligible for low-rank storage.
    """

    first_row: int
    nrows: int
    facing: int
    lr_candidate: bool = False

    @property
    def end_row(self) -> int:
        return self.first_row + self.nrows

    def rows(self) -> np.ndarray:
        return np.arange(self.first_row, self.end_row, dtype=np.int64)


@dataclass
class SymbolicColumnBlock:
    """A column block: contiguous columns plus its list of blocks.

    ``blocks[0]`` is always the diagonal block.  Off-diagonal blocks are
    sorted by ``first_row`` and never overlap.  ``snode`` records which
    pre-splitting supernode this column block is a tile of (tiles of one
    supernode share ``snode``).
    """

    id: int
    first_col: int
    ncols: int
    snode: int
    blocks: List[SymbolicBlock] = field(default_factory=list)

    @property
    def end_col(self) -> int:
        return self.first_col + self.ncols

    @property
    def diag(self) -> SymbolicBlock:
        return self.blocks[0]

    @property
    def noff(self) -> int:
        """The paper's ``bk``: number of off-diagonal blocks."""
        return len(self.blocks) - 1

    def off_blocks(self) -> Sequence[SymbolicBlock]:
        return self.blocks[1:]

    def total_rows(self) -> int:
        return sum(b.nrows for b in self.blocks)

    def nnz(self) -> int:
        """Dense storage of this column block (one triangle's worth)."""
        return self.total_rows() * self.ncols


class SymbolicFactor:
    """Complete symbolic block structure of L (and Uᵗ).

    Provides the lookups the numerical factorization needs:

    * ``cblk_of_col(j)`` — column block owning global column ``j``;
    * ``panel_positions(t, rows)`` — position of global rows inside ``t``'s
      stacked off-diagonal frame (assembly and the landing map use it);
    * ``landing_map(k, t)`` — where the rows of source ``k`` land in target
      ``t``, computed once per visited pair (the relative-index extend-add);
    * ``update_entries(k, t, lu)`` — how many entries that visit computes,
      the closed form its flops are charged from;
    * ``contributors(t)`` — column blocks with a block facing ``t`` (the
      dependency set of the paper's right-looking algorithm);
    * ``facing_ranges(k)`` — ``facing cblk → (first, end)`` index range of
      ``k``'s off-diagonal blocks facing it (blocks are row-sorted, so
      those facing one column block are contiguous).
    """

    def __init__(self, n: int, cblks: List[SymbolicColumnBlock]) -> None:
        self.n = int(n)
        self.cblks = cblks
        self._col_starts = np.array([c.first_col for c in cblks], dtype=np.int64)
        self._validate()
        # per-cblk stacked off-diagonal frame (blocks in order, rows
        # stacked): ``row_offsets[k][i]`` is the frame position block i
        # starts at, ``off_rows[k]`` (a view of one global array) the global
        # row at every position; built here so that the engine only ever
        # reads them
        off = [b for c in cblks for b in c.off_blocks()]
        starts = np.zeros(len(off) + 1, dtype=np.int64)
        np.cumsum([b.nrows for b in off], out=starts[1:])
        rows = np.repeat(np.array([b.first_row for b in off], dtype=np.int64)
                         - starts[:-1], np.diff(starts)) + np.arange(starts[-1])
        ends = np.cumsum([c.noff for c in cblks])
        self.row_offsets: List[np.ndarray] = [
            starts[e - c.noff:e + 1] - starts[e - c.noff]
            for c, e in zip(cblks, ends)]
        self.off_rows: List[np.ndarray] = [
            rows[starts[e - c.noff]:starts[e]] for c, e in zip(cblks, ends)]
        self._facing: Optional[Tuple[List[List[int]],
                                     List[Dict[int, Tuple[int, int]]]]] = None

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        pos = 0
        for k, c in enumerate(self.cblks):
            if c.id != k:
                raise ValueError("column block ids must be 0..Ncblk-1 in order")
            if c.first_col != pos:
                raise ValueError("column blocks must tile the columns")
            pos = c.end_col
            if not c.blocks:
                raise ValueError(f"column block {k} has no blocks")
            d = c.blocks[0]
            if d.first_row != c.first_col or d.nrows != c.ncols:
                raise ValueError(f"column block {k} has a malformed diagonal block")
            prev_end = d.end_row
            for b in c.blocks[1:]:
                if b.first_row < prev_end:
                    raise ValueError(
                        f"blocks of column block {k} overlap or are unsorted")
                prev_end = b.end_row
        if pos != self.n:
            raise ValueError("column blocks do not cover all columns")

    # -- lookups --------------------------------------------------------
    @property
    def ncblk(self) -> int:
        return len(self.cblks)

    def cblk_of_col(self, j: int) -> int:
        """Column block owning global column ``j``."""
        k = int(np.searchsorted(self._col_starts, j, side="right")) - 1
        return k

    def panel_positions(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Position inside column block ``t``'s stacked off-diagonal frame
        (blocks in order, rows stacked) of each global row of ``rows``,
        every one of which must belong to one of ``t``'s blocks."""
        frame = self.off_rows[t]
        pos = np.searchsorted(frame, rows)
        if rows.size and (not frame.size or (
                frame.take(pos, mode="clip") != rows).any()):
            raise AssertionError(
                f"row outside the symbolic structure of column block {t}")
        return pos

    def landing_map(self, k: int, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Where source column block ``k``'s rows land in the target ``t``
        it faces: ``(drow, pos)``.

        ``drow`` holds the local row inside ``t``'s diagonal block of each
        row of ``k``'s blocks facing ``t``; ``pos`` the position inside
        ``t``'s stacked off-diagonal frame of every row of ``k`` below
        them.  Both are in ``k``'s frame order, so the update of block pair
        ``(i, j)`` lands at the entries of block ``i``'s rows.  Rows that
        are contiguous globally are contiguous in the frame: one source
        block lands in one slice of a panel-mode target.
        """
        first, end = self.facing_ranges(k)[t]
        offs, rows = self.row_offsets[k], self.off_rows[k]
        return (rows[offs[first]:offs[end]] - self.cblks[t].first_col,
                self.panel_positions(t, rows[offs[end]:]))

    def update_entries(self, k: int, t: int, lu: bool) -> Tuple[int, int]:
        """Entries of ``t`` the dense update by source ``k`` computes:
        ``(facing, below)``.

        ``facing`` counts those in ``t``'s diagonal block — the whole
        square over the rows of ``k``'s blocks facing ``t`` for LU (the L
        side's lower block triangle plus the Uᵗ side's strict upper one),
        the lower block triangle alone for a symmetric factorization —
        and ``below`` those under it, per side.  Each costs ``2·ncols(k)``
        flops to form and one to land: exactly what the products and
        subtracts of the block pairs ``(i, j)`` add up to.
        """
        first, end = self.facing_ranges(k)[t]
        offs = self.row_offsets[k]
        nf = int(offs[end] - offs[first])
        facing = nf * nf
        if not lu and end - first > 1:
            facing = (facing + int((np.diff(offs[first:end + 1]) ** 2).sum())
                      ) // 2
        return facing, nf * int(offs[-1] - offs[end])

    def contributors(self, t: int) -> List[int]:
        """Ids of column blocks with at least one block facing ``t``."""
        return self._facing_index()[0][t]

    def facing_ranges(self, k: int) -> Dict[int, Tuple[int, int]]:
        """``facing → (first, end)`` ranges over ``k``'s off-diagonal
        blocks, in ascending facing order."""
        return self._facing_index()[1][k]

    def _facing_index(self) -> Tuple[List[List[int]],
                                     List[Dict[int, Tuple[int, int]]]]:
        """Contributor lists and facing ranges, built once in one sweep."""
        if self._facing is None:
            contr: List[List[int]] = [[] for _ in self.cblks]
            facing: List[Dict[int, Tuple[int, int]]] = []
            for c in self.cblks:
                ranges: Dict[int, Tuple[int, int]] = {}
                for j, b in enumerate(c.off_blocks()):
                    first = ranges[b.facing][0] if b.facing in ranges else j
                    ranges[b.facing] = (first, j + 1)
                facing.append(ranges)
                for t in ranges:
                    contr[t].append(c.id)
            self._facing = (contr, facing)
        return self._facing

    def block_etree(self) -> np.ndarray:
        """Parent of each column block: the facing column block of its first
        off-diagonal block (-1 for roots) — the block elimination tree."""
        parent = np.full(self.ncblk, -1, dtype=np.int64)
        for c in self.cblks:
            if c.noff:
                parent[c.id] = c.blocks[1].facing
        return parent

    # -- statistics (Figure 1 / DESIGN experiment fig1) -----------------
    def nnz(self) -> int:
        """Dense nnz of the L structure (diagonal blocks counted in full)."""
        return sum(c.nnz() for c in self.cblks)

    def total_off_blocks(self) -> int:
        return sum(c.noff for c in self.cblks)

    def n_lr_candidates(self) -> int:
        return sum(1 for c in self.cblks for b in c.off_blocks()
                   if b.lr_candidate)

    def summary(self) -> dict:
        widths = [c.ncols for c in self.cblks]
        return {
            "n": self.n,
            "ncblk": self.ncblk,
            "nnz_blocks": self.nnz(),
            "off_blocks": self.total_off_blocks(),
            "lr_candidates": self.n_lr_candidates(),
            "max_width": max(widths) if widths else 0,
            "mean_width": float(np.mean(widths)) if widths else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SymbolicFactor(n={self.n}, ncblk={self.ncblk}, "
                f"off_blocks={self.total_off_blocks()})")

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
from itertools import chain
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csc import ranges


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


#: the fields of a block, as :class:`SymbolicFactor` reads them all at once
_FIELDS = attrgetter("first_row", "nrows", "facing", "lr_candidate")


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

    def nnz(self) -> int:
        """Dense storage of this column block (one triangle's worth)."""
        return sum(b.nrows for b in self.blocks) * self.ncols


class SubtreePlan(NamedTuple):
    """Where the engine passes updates up as contribution blocks.

    A *bottom subtree* is a maximal subtree of the block elimination tree
    in which no column block holds a low-rank candidate: nothing in it
    can ever compress, so its column blocks stay dense panels.  Each of
    its column blocks hands its updates to its parent as one dense
    contribution block over its off-diagonal rows (multifrontal); every
    other column block pulls its contributors' updates (fan-in).

    * ``root[k]`` — the root of the bottom subtree holding ``k``, -1 when
      ``k`` lies in none;
    * ``children[k]`` — ``k``'s children inside its bottom subtree, whose
      contribution blocks ``k`` extend-adds (empty outside one);
    * ``pulls[t]`` — what the task of a column block ``t`` outside every
      bottom subtree pulls, ascending: its fan-in contributors plus the
      subtree roots whose contribution block faces it (the rows of any
      subtree column block facing ``t`` are rows of its root).
    """

    root: np.ndarray
    children: List[List[int]]
    pulls: List[List[int]]


class SymbolicFactor:
    """Complete symbolic block structure of L (and Uᵗ).

    Provides the lookups the numerical factorization needs:

    * ``cblk_of_col(j)`` — column block owning global column ``j``;
    * ``landing_map(k, t, first, end)`` — where the rows of source ``k``
      land in target ``t``, computed once per visited pair (the
      relative-index extend-add);
    * ``contributors(t)`` — column blocks with a block facing ``t`` (the
      dependency set of the paper's right-looking algorithm);
    * ``facing_ranges(k)`` — ``facing cblk → (first, end)`` index range of
      ``k``'s off-diagonal blocks facing it (blocks are row-sorted, so
      those facing one column block are contiguous);
    * ``subtree_plan()`` — the bottom subtrees that pass their updates up
      as contribution blocks (:class:`SubtreePlan`).
    """

    def __init__(self, n: int, cblks: List[SymbolicColumnBlock]) -> None:
        self.n = int(n)
        self.cblks = cblks
        self._col_starts = np.array([c.first_col for c in cblks], dtype=np.int64)
        self._col_ends = self._col_starts + np.array(
            [c.ncols for c in cblks], dtype=np.int64)
        # every block's fields, column block after column block:
        # ``_bptr[k]:_bptr[k + 1]`` are column block k's
        self._bptr = np.append(0, np.cumsum([len(c.blocks) for c in cblks],
                                            dtype=np.int64))
        first, nrows, facing, lr = np.fromiter(
            chain.from_iterable(map(_FIELDS, chain.from_iterable(
                c.blocks for c in cblks))),
            dtype=np.int64, count=4 * int(self._bptr[-1])).reshape(-1, 4).T
        self._facing_of, self._lr = facing, lr.astype(bool)
        self._validate(first, nrows)
        # per-cblk stacked off-diagonal frame (blocks in order, rows
        # stacked): ``row_offsets[k][i]`` is the frame position block i
        # starts at, ``off_rows[k]`` (a view of one global array) the global
        # row at every position; built here so that the engine only ever
        # reads them
        noff = np.diff(self._bptr) - 1
        off = ranges(self._bptr[:-1] + 1, noff)
        first, nrows, facing = first[off], nrows[off], facing[off]
        starts = np.append(0, np.cumsum(nrows))
        rows = ranges(first, nrows)
        begin = np.cumsum(noff) - noff
        offsets = (starts[ranges(begin, noff + 1)]
                   - starts[begin].repeat(noff + 1))
        at = np.append(0, np.cumsum(noff + 1)).tolist()
        self.row_offsets: List[np.ndarray] = [
            offsets[lo:hi] for lo, hi in zip(at, at[1:])]
        at = starts[np.append(begin, off.size)]
        self.off_rows: List[np.ndarray] = [
            rows[lo:hi] for lo, hi in zip(at.tolist(), at[1:].tolist())]
        self._facing: Optional[Tuple[List[List[int]],
                                     List[Dict[int, Tuple[int, int]]]]] = None
        self._subtrees: Optional[SubtreePlan] = None
        self._check_landings(first, first + nrows, facing, rows,
                             np.arange(self.ncblk).repeat(np.diff(at)))

    # ------------------------------------------------------------------
    def _validate(self, first: np.ndarray, nrows: np.ndarray) -> None:
        """Column blocks in order and tiling the columns, each with its
        diagonal block first and its blocks (rows ``first`` / ``nrows``)
        sorted apart: the first to break a rule is named, by its first."""
        head, nblocks = self._bptr[:-1], np.diff(self._bptr)
        # a block starting before the one above it in its column block ends
        early = np.append(False, first[1:] < (first + nrows)[:-1])
        early[head[nblocks > 0]] = False
        early = np.append(0, np.cumsum(early))
        diag = np.append(first, -1)[head], np.append(nrows, -1)[head]
        rules = [
            (np.array([c.id for c in self.cblks]) != np.arange(self.ncblk),
             "column block ids must be 0..Ncblk-1 in order"),
            (self._col_starts != np.append(0, self._col_ends[:-1]),
             "column blocks must tile the columns"),
            (nblocks == 0, "column block {} has no blocks"),
            ((diag[0] != self._col_starts)
             | (diag[1] != self._col_ends - self._col_starts),
             "column block {} has a malformed diagonal block"),
            (early[self._bptr[1:]] > early[head],
             "blocks of column block {} overlap or are unsorted")]
        bad = np.array([mask for mask, _ in rules]).reshape(len(rules), -1)
        if bad.any():
            k = int(bad.any(axis=0).argmax())
            raise ValueError(rules[int(bad[:, k].argmax())][1].format(k))
        if (self._col_ends[-1] if self.ncblk else 0) != self.n:
            raise ValueError("column blocks do not cover all columns")

    def _check_landings(self, first: np.ndarray, end: np.ndarray,
                        facing: np.ndarray, rows: np.ndarray,
                        owner: np.ndarray) -> None:
        """What every update visit relies on, checked once: the
        off-diagonal blocks (rows ``first:end``, column block after column
        block; ``rows`` all their rows, ``owner`` the column block of each)
        land inside the column blocks they face.

        * A block lies inside the column block it faces — else its landing
          in that diagonal block would wrap around (``ValueError``).
        * Every row of a column block below its parent's columns is a row
          of that parent (:meth:`block_etree`).  By induction along the
          block elimination tree, the rows of a column block below *any*
          target it faces are then rows of that target, so
          :meth:`landing_map` is one slice and one search.
        """
        col_ends = self._col_ends
        f = np.clip(facing, 0, self.ncblk - 1)
        inside = ((facing == f) & (first >= self._col_starts[f])
                  & (end <= col_ends[f]))
        if not inside.all():
            i = int(np.argmin(inside))
            raise ValueError(
                f"block at rows {first[i]}..{end[i]} lies outside column "
                f"block {facing[i]}, which it faces")
        parent = self.block_etree()[owner]
        below = rows >= col_ends[parent]
        # (column block, row) keys ascend: rows ascend within a column block
        keys = owner * self.n + rows
        want = parent[below] * self.n + rows[below]
        held = keys.take(keys.searchsorted(want), mode="clip") == want
        if not held.all():
            raise AssertionError(
                "row outside the symbolic structure of column block "
                f"{parent[below][np.argmin(held)]}")

    # -- lookups --------------------------------------------------------
    @property
    def ncblk(self) -> int:
        return len(self.cblks)

    def cblk_of_col(self, j: int) -> int:
        """Column block owning global column ``j``."""
        k = int(np.searchsorted(self._col_starts, j, side="right")) - 1
        return k

    def landing_map(self, k: int, t: int, first: int, end: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Where source column block ``k``'s rows land in the target ``t``
        it faces through its off-diagonal blocks ``first:end``
        (:meth:`facing_ranges`): ``(drow, pos)``.

        ``drow`` holds the local row inside ``t``'s diagonal block of each
        row of ``k``'s blocks facing ``t``; ``pos`` the position inside
        ``t``'s stacked off-diagonal frame of every row of ``k`` below
        them (each one of ``t``'s rows, checked at construction).  Both are
        in ``k``'s frame order, so the update of block pair ``(i, j)``
        lands at the entries of block ``i``'s rows.  Rows that are
        contiguous globally are contiguous in the frame: one source block
        lands in one slice of a target's panel.
        """
        offs, rows = self.row_offsets[k], self.off_rows[k]
        return (rows[offs[first]:offs[end]] - self.cblks[t].first_col,
                self.off_rows[t].searchsorted(rows[offs[end]:]))

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
                spans: Dict[int, Tuple[int, int]] = {}
                for j, b in enumerate(c.off_blocks()):
                    first = spans[b.facing][0] if b.facing in spans else j
                    spans[b.facing] = (first, j + 1)
                facing.append(spans)
                for t in spans:
                    contr[t].append(c.id)
            self._facing = (contr, facing)
        return self._facing

    def subtree_plan(self) -> SubtreePlan:
        """The bottom subtrees and every task's pull list, built once
        (:class:`SubtreePlan`).  Read from the structure alone — which
        blocks are low-rank candidates — so every strategy gets the same
        subtrees."""
        if self._subtrees is None:
            parent = self.block_etree()
            # a parent follows its children: one ascending sweep marks
            # every column block whose subtree holds a candidate
            holds = np.array([any(b.lr_candidate for b in c.off_blocks())
                              for c in self.cblks], dtype=bool)
            for k in range(self.ncblk):
                if holds[k] and parent[k] >= 0:
                    holds[parent[k]] = True
            root = np.full(self.ncblk, -1, dtype=np.int64)
            children: List[List[int]] = [[] for _ in self.cblks]
            for k in range(self.ncblk - 1, -1, -1):
                if holds[k]:
                    continue
                p = int(parent[k])
                if p >= 0 and not holds[p]:
                    root[k] = root[p]
                    children[p].append(k)
                else:
                    root[k] = k
            for c in children:
                c.reverse()
            inner = (root >= 0) & (root != np.arange(self.ncblk))
            pulls = [[] if root[t] >= 0 else
                     [c for c in self.contributors(t) if not inner[c]]
                     for t in range(self.ncblk)]
            self._subtrees = SubtreePlan(root, children, pulls)
        return self._subtrees

    def block_etree(self) -> np.ndarray:
        """Parent of each column block: the facing column block of its first
        off-diagonal block (-1 for roots) — the block elimination tree."""
        parent = np.full(self.ncblk, -1, dtype=np.int64)
        has = np.diff(self._bptr) > 1
        parent[has] = self._facing_of[self._bptr[:-1][has] + 1]
        return parent

    def block_levels(self) -> List[int]:
        """Depth of every column block in :meth:`block_etree` (roots at
        level 0).  The tree is postordered (a parent follows its
        children), so the depths resolve in one reverse sweep."""
        parent = self.block_etree()
        levels = [0] * self.ncblk
        for k in range(self.ncblk - 1, -1, -1):
            p = int(parent[k])
            levels[k] = 0 if p < 0 else levels[p] + 1
        return levels

    # -- statistics (Figure 1 / DESIGN experiment fig1) -----------------
    def nnz(self) -> int:
        """Dense nnz of the L structure (diagonal blocks counted in full)."""
        return sum(c.nnz() for c in self.cblks)

    def total_off_blocks(self) -> int:
        return sum(c.noff for c in self.cblks)

    def n_lr_candidates(self) -> int:
        return int(self._lr.sum())

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

"""Symbolic factorization pipeline (the paper's steps 1 and 2).

Chains ordering → quotient symbolic → amalgamation → intra-supernode
reordering → splitting → block-structure construction, and returns both the
final permutation and the :class:`~repro.symbolic.structure.SymbolicFactor`
the numerical phase consumes.  Everything here is numerical-value-free: the
paper notes these steps "can be computed once to solve multiple problems
similar in structure but with different numerical values", and the
:class:`~repro.core.solver.Solver` facade indeed caches this result across
factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.runtime.spans import SpanProfiler, span
from repro.sparse.csc import CSCMatrix, ranges
from repro.sparse.permute import permute_symmetric
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.amd import minimum_degree
from repro.ordering.geometric import geometric_nested_dissection
from repro.ordering.reordering import reorder_supernodes, apply_reordering
from repro.symbolic.structure import (
    SymbolicBlock,
    SymbolicColumnBlock,
    SymbolicFactor,
)
from repro.symbolic.supernodes import (
    Supernode,
    amalgamate,
    detect_fundamental_supernodes,
    split_supernodes,
    supernode_row_sets,
)


@dataclass(frozen=True)
class SymbolicOptions:
    """The subset of :class:`~repro.config.SolverConfig` the analysis uses."""

    ordering: str = "nested-dissection"
    cmin: int = 15
    frat: float = 0.08
    split_size: int = 256
    split_min: int = 128
    compress_min_width: int = 128
    compress_min_height: int = 20
    reorder_supernodes: bool = True

    @classmethod
    def from_config(cls, cfg: SolverConfig) -> "SymbolicOptions":
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def symbolic_factorization(a: CSCMatrix,
                           options: Optional[SymbolicOptions] = None,
                           coords: Optional[np.ndarray] = None,
                           profiler: Optional[SpanProfiler] = None,
                           symmetric: bool = False,
                           ) -> Tuple[SymbolicFactor, np.ndarray]:
    """Run the full analysis pipeline on (the pattern of) ``a``.

    Returns ``(symbolic, perm)`` where ``perm`` is new-to-old and
    ``symbolic`` describes the block structure of the factor of
    ``P A Pᵗ``.  ``coords`` (one row per unknown) is required by the
    ``geometric`` ordering and ignored otherwise.  ``profiler``
    (optional) records "ordering" and "symbolic" spans covering the
    paper's step 1 and step 2 respectively.  ``symmetric=True`` promises
    the pattern of ``a`` is symmetric already (the solver symmetrises it on
    construction); it is otherwise checked, and symmetrised, here — once,
    for every step below.
    """
    options = options or SymbolicOptions()
    pattern = (a if symmetric or a.is_pattern_symmetric()
               else a.symmetrize_pattern())

    with span(profiler, "ordering", method=options.ordering):
        perm, intervals = _run_ordering(a, pattern, options, coords)
    with span(profiler, "symbolic") as late:
        symb, perm = _run_symbolic(a, pattern, perm, intervals, options)
        late["ncblk"] = len(symb.cblks)
    return symb, perm


def _run_ordering(a: CSCMatrix, pattern: CSCMatrix,
                  options: SymbolicOptions,
                  coords: Optional[np.ndarray],
                  ) -> Tuple[np.ndarray,
                             Optional[List[Tuple[int, int]]]]:
    """Step 1: global ordering + supernodal partition."""
    if options.ordering == "natural":
        return np.arange(a.n, dtype=np.int64), None
    g = Graph.from_matrix(pattern, symmetric=True)
    if options.ordering == "amd":
        return minimum_degree(g), None
    if options.ordering == "geometric":
        if coords is None:
            raise ValueError(
                "ordering='geometric' requires node coordinates "
                "(pass coords= to the Solver or this function)")
        nd = geometric_nested_dissection(g, coords, cmin=options.cmin)
    elif options.ordering == "nested-dissection":
        nd = nested_dissection(g, cmin=options.cmin)
    else:  # pragma: no cover - guarded by SolverConfig validation
        raise ValueError(f"unknown ordering {options.ordering!r}")
    return nd.perm, [(p.start, p.size) for p in nd.partitions]


def _run_symbolic(a: CSCMatrix, pattern: CSCMatrix, perm: np.ndarray,
                  intervals: Optional[List[Tuple[int, int]]],
                  options: SymbolicOptions,
                  ) -> Tuple[SymbolicFactor, np.ndarray]:
    """Step 2: quotient symbolic, amalgamation, reordering, splitting."""
    a_perm = permute_symmetric(pattern, perm)
    if intervals is None:
        intervals = detect_fundamental_supernodes(a_perm)

    snodes = supernode_row_sets(a_perm, intervals)
    snodes = amalgamate(snodes, frat=options.frat)

    # --- intra-supernode reordering (TSP of [21]) ------------------------
    if options.reorder_supernodes:
        newpos = reorder_supernodes(snodes)
        if not np.array_equal(newpos, np.arange(a.n)):
            apply_reordering(snodes, newpos)
            # compose: vertex now at position newpos[g] was original perm[g]
            perm = perm[np.argsort(newpos)]

    # --- splitting into column blocks ------------------------------------
    tiles = split_supernodes(snodes, options.split_size, options.split_min)
    symb = build_block_structure(a.n, snodes, tiles, options)
    return symb, perm


def build_block_structure(n: int, snodes: List[Supernode],
                          tiles: List[Tuple[int, int, int]],
                          options: SymbolicOptions) -> SymbolicFactor:
    """Materialize the per-column-block block lists.

    ``tiles`` are ``(first_col, ncols, snode_index)`` triples from
    :func:`~repro.symbolic.supernodes.split_supernodes`.  Every column block
    receives: its dense diagonal block; one block per *later* tile of the
    same supernode (the intra-supernode sub-diagonal, dense within the
    supernodal model); and the supernode's below-diagonal rows chopped into
    maximal contiguous runs, each split at facing column-block boundaries.
    """
    tile_first, tile_cols, tile_snode = np.array(
        tiles, dtype=np.int64).reshape(-1, 3).T
    ntiles = tile_first.size

    # off-diagonal rows of every supernode at once: a block starts where a
    # supernode's rows start, where they skip an index, and where the
    # facing tile changes
    sizes = np.array([s.rows.size for s in snodes], dtype=np.int64)
    rows = (np.concatenate([s.rows for s in snodes]) if snodes
            else np.empty(0, dtype=np.int64))
    facing = np.searchsorted(tile_first, rows, side="right") - 1
    rows_start = np.cumsum(sizes) - sizes
    new_block = np.zeros(rows.size, dtype=bool)
    new_block[1:] = (np.diff(rows) != 1) | (np.diff(facing) != 0)
    new_block[rows_start[sizes > 0]] = True
    first = np.flatnonzero(new_block)
    height = np.diff(np.append(first, rows.size))
    # blocks of supernode si: off_start[si]:off_start[si] + noff[si]
    off_start = np.searchsorted(first, rows_start)
    noff = np.diff(np.append(off_start, first.size))[tile_snode]

    # per tile: the diagonal block and one per later tile of its supernode
    # (tiles of one supernode are consecutive), then the supernode's blocks
    tile = np.arange(ntiles)
    own = np.searchsorted(tile_snode, tile_snode, side="right") - tile
    bptr = np.append(0, np.cumsum(own + noff))
    first_row, nrows, face = np.empty((3, bptr[-1]), dtype=np.int64)
    at = ranges(bptr[:-1], own)
    face[at] = ranges(tile, own)
    first_row[at], nrows[at] = tile_first[face[at]], tile_cols[face[at]]
    at = ranges(bptr[:-1] + own, noff)
    blk = ranges(off_start[tile_snode], noff)
    first_row[at] = rows[first[blk]]
    nrows[at] = height[blk]
    face[at] = facing[first[blk]]
    lr = ((tile_cols >= options.compress_min_width).repeat(np.diff(bptr))
          & (nrows >= options.compress_min_height))
    lr[bptr[:-1]] = False

    blocks = list(map(SymbolicBlock, first_row.tolist(), nrows.tolist(),
                      face.tolist(), lr.tolist()))
    bounds = bptr.tolist()
    return SymbolicFactor(n, [
        SymbolicColumnBlock(ti, fc, nc, si, blocks[bounds[ti]:bounds[ti + 1]])
        for ti, (fc, nc, si) in enumerate(tiles)])

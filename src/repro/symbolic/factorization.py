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

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.runtime.spans import SpanProfiler, span
from repro.sparse.csc import CSCMatrix
from repro.sparse.permute import permute_symmetric
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.amd import minimum_degree
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
        return cls(
            ordering=cfg.ordering,
            cmin=cfg.cmin,
            frat=cfg.frat,
            split_size=cfg.split_size,
            split_min=cfg.split_min,
            compress_min_width=cfg.compress_min_width,
            compress_min_height=cfg.compress_min_height,
            reorder_supernodes=cfg.reorder_supernodes,
        )


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
    if options.ordering == "nested-dissection":
        g = Graph.from_matrix(pattern, symmetric=True)
        nd = nested_dissection(g, cmin=options.cmin)
        perm = nd.perm
        intervals = [(p.start, p.size) for p in nd.partitions]
    elif options.ordering == "geometric":
        if coords is None:
            raise ValueError(
                "ordering='geometric' requires node coordinates "
                "(pass coords= to the Solver or this function)")
        from repro.ordering.geometric import geometric_nested_dissection

        g = Graph.from_matrix(pattern, symmetric=True)
        nd = geometric_nested_dissection(g, coords, cmin=options.cmin)
        perm = nd.perm
        intervals = [(p.start, p.size) for p in nd.partitions]
    elif options.ordering == "amd":
        g = Graph.from_matrix(pattern, symmetric=True)
        perm = minimum_degree(g)
        intervals = None
    elif options.ordering == "natural":
        perm = np.arange(a.n, dtype=np.int64)
        intervals = None
    else:  # pragma: no cover - guarded by SolverConfig validation
        raise ValueError(f"unknown ordering {options.ordering!r}")
    return perm, intervals


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
            new_perm = np.empty_like(perm)
            new_perm[newpos] = perm
            perm = new_perm

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
    tile_starts = np.array([t[0] for t in tiles], dtype=np.int64)
    min_height = options.compress_min_height

    # off-diagonal rows of every supernode at once: a block starts where a
    # supernode's rows start, where they skip an index, and where the
    # facing tile changes
    sizes = np.array([s.rows.size for s in snodes], dtype=np.int64)
    rows = (np.concatenate([s.rows for s in snodes]) if snodes
            else np.empty(0, dtype=np.int64))
    facing = np.searchsorted(tile_starts, rows, side="right") - 1
    rows_start = np.cumsum(sizes) - sizes
    new_block = np.zeros(rows.size, dtype=bool)
    new_block[1:] = (np.diff(rows) != 1) | (np.diff(facing) != 0)
    new_block[rows_start[sizes > 0]] = True
    first = np.flatnonzero(new_block)
    nrows = np.diff(np.append(first, rows.size))
    # blocks of supernode si: block_bounds[si]:block_bounds[si + 1]
    block_bounds = np.searchsorted(first, rows_start).tolist()
    block_bounds.append(first.size)
    off_blocks = list(zip(rows[first].tolist(), nrows.tolist(),
                          facing[first].tolist()))

    # group tiles by supernode for intra-supernode blocks
    tiles_of_snode: List[List[int]] = [[] for _ in snodes]
    for ti, (_, _, si) in enumerate(tiles):
        tiles_of_snode[si].append(ti)

    cblks: List[SymbolicColumnBlock] = []
    for ti, (fc, nc, si) in enumerate(tiles):
        cb = SymbolicColumnBlock(id=ti, first_col=fc, ncols=nc, snode=si)
        width_ok = nc >= options.compress_min_width
        # diagonal block
        cb.blocks.append(SymbolicBlock(fc, nc, facing=ti, lr_candidate=False))
        # intra-supernode sub-diagonal blocks (dense diagonal treatment of
        # the supernode => full blocks toward every later tile)
        for tj in tiles_of_snode[si]:
            if tj > ti:
                fc2, nc2, _ = tiles[tj]
                cb.blocks.append(SymbolicBlock(
                    fc2, nc2, facing=tj,
                    lr_candidate=width_ok and nc2 >= min_height))
        cb.blocks.extend(
            SymbolicBlock(row, height, facing=f,
                          lr_candidate=width_ok and height >= min_height)
            for row, height, f in
            off_blocks[block_bounds[si]:block_bounds[si + 1]])
        cblks.append(cb)
    return SymbolicFactor(n, cblks)

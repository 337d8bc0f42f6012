"""Golden analysis structure: the value-free front end (ordering, supernode
partition, block-symbolic factorization) must reproduce, bit for bit, the
permutation, partition list and block structure recorded in
``tests/golden/structure_digests.json``.

The digests were generated on the commit *before* the analysis was moved
onto arrays (``python -m tests.test_structure_golden`` rewrites the file);
a change that alters any of them changes the factorization downstream and
must say so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.ordering.geometric import geometric_nested_dissection, grid_coords
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import elasticity_3d, laplacian_2d, laplacian_3d, zoo
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization

GOLDEN = Path(__file__).parent / "golden" / "structure_digests.json"

ORDERINGS = ("nested-dissection", "geometric", "amd", "natural")

#: (cmin, frat, split_size, reorder_supernodes) and the tile thresholds
SETTINGS: Dict[str, SymbolicOptions] = {
    "paper": SymbolicOptions(),
    "tiny-noreorder": SymbolicOptions(
        cmin=6, frat=0.3, split_size=12, split_min=6, compress_min_width=6,
        compress_min_height=3, reorder_supernodes=False),
    "tiny-reorder": SymbolicOptions(
        cmin=8, frat=0.08, split_size=16, split_min=8, compress_min_width=8,
        compress_min_height=3, reorder_supernodes=True),
}

Case = Tuple[CSCMatrix, Optional[np.ndarray]]


def _block_diag(blocks, extra: int) -> CSCMatrix:
    rows, cols, vals, off = [], [], [], 0
    for b in blocks:
        c = np.repeat(np.arange(b.n), np.diff(b.colptr))
        rows.append(b.rowind + off)
        cols.append(c + off)
        vals.append(b.values)
        off += b.n
    iso = np.arange(off, off + extra)
    rows.append(iso)
    cols.append(iso)
    vals.append(np.ones(extra))
    return CSCMatrix.from_coo(off + extra, np.concatenate(rows),
                              np.concatenate(cols), np.concatenate(vals))


def _disconnected() -> Case:
    """Two grids and three isolated unknowns."""
    a = _block_diag([laplacian_2d(7), laplacian_2d(5)], extra=3)
    c1, c2 = grid_coords(7, 7), grid_coords(5, 5)
    c2[:, 0] += 100.0
    iso = np.array([[300.0, 0, 0], [301.0, 5, 0], [302.0, 9, 0]])
    return a, np.vstack([c1, c2, iso])


def _clique() -> Case:
    """Dense 40x40: every dissection attempt fails and leaves one leaf."""
    rng = np.random.default_rng(7)
    d = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    return CSCMatrix.from_dense(d), rng.standard_normal((40, 3))


def _unsymmetric() -> Case:
    """Unsymmetric pattern: the analysis sees the pattern of A + At."""
    rng = np.random.default_rng(11)
    n, m = 60, 150
    rows = np.concatenate([rng.integers(0, n, m), np.arange(n)])
    cols = np.concatenate([rng.integers(0, n, m), np.arange(n)])
    return CSCMatrix.from_coo(n, rows, cols, np.ones(rows.size)), None


def _zoo_case(name: str) -> Callable[[], Case]:
    def build() -> Case:
        case = {c.name: c for c in zoo()}[name]
        a = case.build()
        edge = round(a.n ** (1 / 3))
        return a, (grid_coords(edge, edge, edge) if edge ** 3 == a.n else None)
    return build


MATRICES: Dict[str, Callable[[], Case]] = {
    **{f"zoo-{c.name}": _zoo_case(c.name) for c in zoo()},
    "lap3d-12": lambda: (laplacian_3d(12), grid_coords(12, 12, 12)),
    "elas-3": lambda: (elasticity_3d(3), grid_coords(3, 3, 3, dofs_per_node=3)),
    "disconnected": _disconnected,
    "clique": _clique,
    "unsymmetric": _unsymmetric,
}


def structure_digest(a: CSCMatrix, coords: Optional[np.ndarray],
                     ordering: str, opts: SymbolicOptions) -> str:
    """sha256 of (perm, ND partition list, column blocks, blocks)."""
    partitions = []
    if ordering in ("nested-dissection", "geometric"):
        g = Graph.from_matrix(a)
        nd = (nested_dissection(g, cmin=opts.cmin)
              if ordering == "nested-dissection"
              else geometric_nested_dissection(g, coords, cmin=opts.cmin))
        partitions = [[p.start, p.size, bool(p.is_separator), p.level,
                       p.parent] for p in nd.partitions]
    opts = SymbolicOptions(**{**opts.__dict__, "ordering": ordering})
    symb, perm = symbolic_factorization(a, opts, coords=coords)
    doc = {
        "perm": np.asarray(perm).tolist(),
        "partitions": partitions,
        "cblks": [[c.first_col, c.ncols, c.snode] for c in symb.cblks],
        "blocks": [[[b.first_row, b.nrows, b.facing, bool(b.lr_candidate)]
                    for b in c.blocks] for c in symb.cblks],
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _case_ids():
    for name in MATRICES:
        for ordering in ORDERINGS:
            for setting in SETTINGS:
                yield f"{name}/{ordering}/{setting}"


def _digest_of(case_id: str) -> Optional[str]:
    name, ordering, setting = case_id.split("/")
    a, coords = MATRICES[name]()
    if ordering == "geometric" and coords is None:
        return None
    return structure_digest(a, coords, ordering, SETTINGS[setting])


@pytest.mark.parametrize("case_id", list(_case_ids()))
def test_structure_matches_golden(case_id):
    golden = json.loads(GOLDEN.read_text())
    digest = _digest_of(case_id)
    if digest is None:
        assert case_id not in golden
        pytest.skip("no node coordinates for this matrix")
    assert digest == golden[case_id], (
        f"{case_id}: the analysis produced a different permutation, "
        "partition or block structure than the recorded one")


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) <= set(_case_ids())
    assert len(golden) >= 100


#: sha256 of ``nested_dissection(laplacian_3d(24))``'s perm and partition
#: list (the benchmark's structure), recorded before nested dissection ran
#: one dissection depth at a time
LAP24_ND_DIGEST = (
    "d896e604725688582799e89f6564d021854f72c5f85cf86a7530b48346209cae")


def nd_digest(nd) -> str:
    """sha256 of an ``NDResult``'s permutation and partition list."""
    doc = {"perm": np.asarray(nd.perm).tolist(),
           "partitions": [[p.start, p.size, bool(p.is_separator), p.level,
                           p.parent] for p in nd.partitions]}
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_lap24_nested_dissection_digest():
    nd = nested_dissection(Graph.from_matrix(laplacian_3d(24)))
    assert len(nd.partitions) == 2743
    assert nd_digest(nd) == LAP24_ND_DIGEST


if __name__ == "__main__":  # regenerate the golden file
    out = {}
    for cid in _case_ids():
        d = _digest_of(cid)
        if d is not None:
            out[cid] = d
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {GOLDEN}")

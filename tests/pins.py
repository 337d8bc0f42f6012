"""Every exact output of the program the repository pins, and how each is
computed.

``tests/golden/pins.json`` maps ``<kind>/<case>`` to ``{"value", "pr",
"why"}``: the pinned value, the number of the change that last moved it and
why.  A factor pin also keeps the ``facts`` of :func:`factor_facts` (η∞,
flops, bytes), so a re-pin can print them before and after.  The tests
parametrize over the file (:func:`cases`) and hold each entry against
:func:`compute` (:func:`check`); CI's layerbench job reads the ``trace/…``
and ``run/…`` entries.  A change meant to move pins re-pins them with
``PYTHONPATH=src python -m tools.repin --pr N --reason "…"``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.ordering.geometric import geometric_nested_dissection, grid_coords
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    elasticity_3d,
    helmholtz_3d,
    laplacian_2d,
    laplacian_3d,
    zoo,
)
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from tests.conftest import hermitian_congruence, tiny_blr_config

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "golden" / "pins.json"

# -- the file -----------------------------------------------------------

def load() -> Dict[str, Dict[str, Any]]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def dump(pins: Dict[str, Dict[str, Any]]) -> str:
    """One entry per line: a re-pin's diff is one line per moved pin."""
    lines = [f" {json.dumps(key)}: "
             f"{json.dumps(pins[key], sort_keys=True, ensure_ascii=False)}"
             for key in sorted(pins)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cases(kind: str, sep: str = "-") -> List[Any]:
    """The keys of one kind as ``pytest.param``s, each id the key's case
    with ``/`` shown as ``sep``."""
    prefix = kind + "/"
    return [pytest.param(key, id=key[len(prefix):].replace("/", sep))
            for key in sorted(load()) if key.startswith(prefix)]


def check(key: str) -> None:
    """Compute one pin and compare it with its entry."""
    got, entry = compute(key), load()[key]
    want = {field: entry.get(field) for field in got}
    assert got == want, (
        f"pin {key} moved: pinned {want}, computed {got}.  A change meant "
        "to move it re-pins with `python -m tools.repin --pr N --reason ...`")


@functools.lru_cache(maxsize=None)
def _compute(key: str) -> str:
    kind, _, case = key.partition("/")
    return json.dumps(COMPUTE[kind](case))  # tuples as lists, keys as str


def compute(key: str) -> Dict[str, Any]:
    """``{"value": …}`` (plus ``"facts"`` for a factor pin) as the program
    computes it now; computed once per process."""
    return json.loads(_compute(key))


# -- digests: the test suite's one set of hashing helpers ---------------

def array_digest(*arrays: Any) -> str:
    """sha256 over the bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def factor_digest(fac: Any) -> str:
    """sha256 over every numerical array of the factors (order-stable).

    Archive bytes are not comparable (zip timestamps), so bit-identity
    assertions hash the factor *contents*.
    """
    arrays = []
    for nc in fac.cblks:
        arrays += [nc.diag, nc.lpanel, nc.upanel]
        for b in (nc.lblocks or []) + (nc.ublocks or []):
            arrays += [b.u, b.v] if isinstance(b, LowRankBlock) else [b]
    return array_digest(*(a for a in arrays if a is not None))


def _json_digest(**doc: Any) -> str:
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _partitions(nd: Any) -> List[List[Any]]:
    return [[p.start, p.size, bool(p.is_separator), p.level, p.parent]
            for p in nd.partitions]


def nd_digest(nd: Any) -> str:
    """sha256 of an ``NDResult``'s permutation and partition list."""
    return _json_digest(perm=np.asarray(nd.perm).tolist(),
                        partitions=_partitions(nd))


def structure_digest(a: CSCMatrix, coords: Optional[np.ndarray],
                     ordering: str, opts: SymbolicOptions) -> str:
    """sha256 of (perm, ND partition list, column blocks, blocks)."""
    partitions: List[List[Any]] = []
    if ordering in ("nested-dissection", "geometric"):
        g = Graph.from_matrix(a)
        nd = (nested_dissection(g, cmin=opts.cmin)
              if ordering == "nested-dissection"
              else geometric_nested_dissection(g, coords, cmin=opts.cmin))
        partitions = _partitions(nd)
    opts = SymbolicOptions(**{**opts.__dict__, "ordering": ordering})
    symb, perm = symbolic_factorization(a, opts, coords=coords)
    return _json_digest(
        perm=np.asarray(perm).tolist(), partitions=partitions,
        cblks=[[c.first_col, c.ncols, c.snode] for c in symb.cblks],
        blocks=[[[b.first_row, b.nrows, b.facing, bool(b.lr_candidate)]
                 for b in c.blocks] for c in symb.cblks])


# -- η∞ and the facts of a factor ----------------------------------------

def _scipy(a: CSCMatrix) -> Any:
    return sp.csc_matrix((a.values, a.rowind, a.colptr), shape=(a.n, a.n))


def eta_inf(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ``‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`` from a
    scipy CSR matvec of the unpermuted input: no number the solver reports
    is read."""
    csr = _scipy(a).tocsr()
    norm_a = float(np.max(abs(csr) @ np.ones(a.n)))
    r = b - csr @ x
    return float(np.max(np.abs(r)) / (norm_a * np.max(np.abs(x))
                                      + np.max(np.abs(b))))


def _gaussian(seed: int, n: int, complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if complex_ else x


def factor_facts(s: Solver) -> Dict[str, Any]:
    """What a re-pin prints for a factor: η∞ for b = ones and for b = A·x₀
    (x₀ Gaussian, seed 0; complex for a complex matrix), the factorization's
    flops and its factor and peak bytes."""
    a, st, ones = s.a, s.stats, np.ones(s.a.n)
    ax0 = _scipy(a) @ _gaussian(0, a.n, np.iscomplexobj(a.values))
    return {"eta_inf_ones": eta_inf(a, s.solve(ones), ones),
            "eta_inf_ax0": eta_inf(a, s.solve(ax0), ax0),
            "total_flops": st.kernels.total_flops(),
            "factor_bytes": int(st.factor_nbytes),
            "peak_bytes": int(st.peak_nbytes)}


# -- one compute function per kind of pin -------------------------------

def _seed(case: str) -> Dict[str, Any]:
    """Factors of ``laplacian_3d(6)`` (tiny_blr_config, τ = 1e-8)."""
    strategy, factotype = case.split("/")
    s = Solver(laplacian_3d(6), tiny_blr_config(
        strategy=strategy, factotype=factotype, tolerance=1e-8))
    s.factorize()
    return {"value": factor_digest(s.factor), "facts": factor_facts(s)}


def _factotype(case: str) -> Dict[str, Any]:
    """Factors and ``solve(b)`` per factotype × strategy × dtype on
    ``laplacian_3d(8)`` (``helmholtz_3d(8, 2.2)`` for threshold pivoting, its
    ``hermitian_congruence`` for complex128), tiny_blr_config at τ = 1e-4.
    Every case holds low-rank blocks of rank > 0 at solve time."""
    name, strategy, dtype = case.split("/")
    factotype, _, pivoting = name.partition("-")
    base = (helmholtz_3d(8, wavenumber=2.2) if pivoting == "threshold"
            else laplacian_3d(8))
    a = hermitian_congruence(base) if dtype == "complex128" else base
    s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                  tolerance=1e-4, dtype=dtype,
                                  pivoting=pivoting or "static"))
    s.factorize()
    if not any(int(r) for r in s.factor.census()["rank_histogram"]):
        raise AssertionError(f"{case}: no low-rank block left to pin")
    b = _gaussian(7, a.n, dtype == "complex128")
    return {"value": {"factor": factor_digest(s.factor),
                      "solve": array_digest(s.solve(b))},
            "facts": factor_facts(s)}


def _d_operator(dtype: str) -> Dict[str, Any]:
    """What the LDLᵗ D operator returns at each of its call sites (panel
    solve of a dense block and of a ``v`` factor, trisolve's D⁻¹, the
    ``L D`` update operand of a dense and of a low-rank block) for the D of
    a threshold-pivoted block with 2×2 pivots."""
    from repro.core.backend import _ldlt_pivot
    from repro.core.factorization import apply_d

    rng = np.random.default_rng(11)
    hermitian = dtype == "complex128"

    def draw(*shape: int) -> np.ndarray:
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if hermitian else x
    m = draw(10, 10)
    m = m + (m.conj().T if hermitian else m.T)
    m[np.diag_indices(10)] = 0.0  # forces 2×2 pivots
    packed, _, d21, stats = _ldlt_pivot(m)
    if not stats["n2x2"]:
        raise AssertionError(f"{dtype}: no 2×2 pivot to pin")
    d = np.diag(packed)  # complex in the updates, read .real in solves
    dr = d.real if hermitian else d
    x, _, v = draw(7, 10), draw(6, 3), draw(10, 3)
    outs = (apply_d(x, dr, d21, hermitian, inverse=True, cols=True),
            apply_d(v, dr, d21, hermitian, inverse=True),
            apply_d(x.T.copy(), dr, d21, hermitian, inverse=True),
            apply_d(x, d, d21, hermitian, cols=True),
            apply_d(v, d, d21.conj(), hermitian))
    return {"value": array_digest(*outs)}


def _charges(strategy: str) -> Dict[str, Any]:
    """Per-category calls and flops (the paper's Table 2 rows) and the
    backend's op counts of one factorization of ``laplacian_3d(8)``
    (tiny_blr_config, τ = 1e-4)."""
    stats = Solver(laplacian_3d(8), tiny_blr_config(
        strategy=strategy, tolerance=1e-4)).factorize()
    k = stats.kernels
    return {"value": {
        "kernels": {c: [k.call_count(c), k.flop(c)] for c in k.calls},
        "backend": dict(stats.backend_kernel_calls)}}


def _nd(case: str) -> Dict[str, Any]:
    """``nested_dissection`` of ``laplacian_3d(n)`` for case ``lapN``."""
    nd = nested_dissection(Graph.from_matrix(laplacian_3d(int(case[3:]))))
    return {"value": {"sha256": nd_digest(nd),
                      "partitions": len(nd.partitions)}}


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


def _disconnected() -> Case:
    """Two grids and three isolated unknowns."""
    m = sp.block_diag([_scipy(laplacian_2d(7)), _scipy(laplacian_2d(5)),
                       sp.eye(3)]).tocoo()
    c1, c2 = grid_coords(7, 7), grid_coords(5, 5)
    c2[:, 0] += 100.0
    iso = np.array([[300.0, 0, 0], [301.0, 5, 0], [302.0, 9, 0]])
    return (CSCMatrix.from_coo(m.shape[0], m.row, m.col, m.data),
            np.vstack([c1, c2, iso]))


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


#: the matrices whose analysis structure is pinned
MATRICES: Dict[str, Callable[[], Case]] = {
    **{f"zoo-{c.name}": _zoo_case(c.name) for c in zoo()},
    "lap3d-12": lambda: (laplacian_3d(12), grid_coords(12, 12, 12)),
    "elas-3": lambda: (elasticity_3d(3), grid_coords(3, 3, 3, dofs_per_node=3)),
    "disconnected": _disconnected,
    "clique": _clique,
    "unsymmetric": _unsymmetric,
}


def structure_cases() -> List[str]:
    """Every matrix × ordering × setting the analysis can run: a geometric
    ordering needs node coordinates."""
    out = []
    for name, build in MATRICES.items():
        coords = build()[1]
        out += [f"{name}/{ordering}/{setting}" for ordering in ORDERINGS
                if ordering != "geometric" or coords is not None
                for setting in SETTINGS]
    return out


def _structure(case: str) -> Dict[str, Any]:
    """Ordering, supernode partition and block structure of one case."""
    name, ordering, setting = case.split("/")
    a, coords = MATRICES[name]()
    return {"value": structure_digest(a, coords, ordering, SETTINGS[setting])}


def lap24_counts() -> Dict[str, Any]:
    """What CI reads off layerbench's lap24 runs (seed 0), by case
    ``<workload>/<metric>``: the factorization's counts, and the reference
    the float32-storage run's backward error must stay within 1 % of — the
    backward error (median over the 16 columns of b = A·x) of lap24-jit
    with every column block stored in float64."""
    from benchmarks.layerbench.harness import PANEL
    from benchmarks.layerbench.oracle import Oracle
    from benchmarks.layerbench.workloads import WORKLOADS
    from repro.core import factor

    out: Dict[str, Any] = {}
    for name in ("lap24-dense", "lap24-jit"):
        wl = WORKLOADS[name]
        stats = Solver(wl.build_matrix(24), wl.config()).factorize()
        k, ops = stats.kernels, stats.backend_kernel_calls
        out.update({f"{name}/{metric}": value for metric, value in (
            ("core.dense_update_flops", k.flop("dense_update")),
            ("core.dense_update_calls", k.call_count("dense_update")),
            ("core.backend_calls.gemm", ops["gemm"]),
            ("core.backend_calls.trsm", ops["trsm"]),
            ("core.blocks_compressed", stats.nblocks_compressed),
            ("factor_bytes", stats.factor_nbytes))})
    wl = WORKLOADS["lap24-jit"]
    a = wl.build_matrix(24)
    oracle = Oracle(a)
    rhs = oracle.csr @ np.random.default_rng(0).standard_normal((a.n, PANEL))
    budget, factor.NARROW_BUDGET = factor.NARROW_BUDGET, np.inf
    try:
        s = Solver(a, wl.config())
        s.factorize()
    finally:
        factor.NARROW_BUDGET = budget
    x = s.solve(rhs)
    out["lap24-jit/backward_error_float64_storage"] = statistics.median(
        oracle.backward_error(x[:, j], rhs[:, j]) for j in range(PANEL))
    return out


@functools.lru_cache(maxsize=None)
def _lap24_in_subprocess() -> str:
    """:func:`lap24_counts` in a fresh interpreter on one BLAS thread, as
    layerbench runs: a norm's bits must not depend on how many threads
    split its dot product."""
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = ("import json; from tests.pins import lap24_counts; "
            "print(json.dumps(lap24_counts()))")
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=600).stdout


def _lap24(case: str) -> Dict[str, Any]:
    return {"value": json.loads(_lap24_in_subprocess())[case]}


#: kind → compute function of one case
COMPUTE: Dict[str, Callable[[str], Dict[str, Any]]] = {
    "seed": _seed, "factotype": _factotype, "d-operator": _d_operator,
    "charges": _charges, "structure": _structure, "nd": _nd,
    "trace": _lap24, "run": _lap24,
}

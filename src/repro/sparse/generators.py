"""Problem generators for the evaluation suite.

The paper evaluates on five SuiteSparse matrices plus generated 3D Laplacians
(7-point stencils).  SuiteSparse downloads are not available offline, so each
matrix is replaced by a synthetic generator that reproduces the structural and
numerical character the evaluation depends on (see DESIGN.md §3):

================  =============================================  ==========
paper matrix      proxy generator                                 symmetry
================  =============================================  ==========
lap120            :func:`laplacian_3d`                            SPD
Atmosmodj         :func:`convection_diffusion_3d`                 general
Audi              :func:`elasticity_3d` (stiff, fine mesh)        SPD
Hook              :func:`elasticity_3d` (elongated bar)           SPD
Serena            :func:`heterogeneous_poisson_3d`                SPD
Geo1438           :func:`anisotropic_laplacian_3d`                SPD
================  =============================================  ==========

All generators assemble finite-difference / finite-element-like operators on
regular grids with Dirichlet boundary conditions, vectorized over numpy index
arrays; nnz assembly of a 48³ grid takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


def _grid_index_3d(nx: int, ny: int, nz: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the (i, j, k) coordinates of every grid point, in
    lexicographic (x fastest) node order."""
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                          indexing="ij")
    return i.ravel(), j.ravel(), k.ravel()


def _stencil_links_3d(nx: int, ny: int, nz: int
                      ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Yield (node, neighbour) index arrays for the +x, +y, +z links of a
    7-point stencil (each undirected link once)."""
    idx = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    links = []
    links.append((idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()))   # +x
    links.append((idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()))   # +y
    links.append((idx[:-1, :, :].ravel(), idx[1:, :, :].ravel()))   # +z
    return links


def laplacian_1d(n: int) -> CSCMatrix:
    """Tridiagonal ``[-1, 2, -1]`` operator (Dirichlet)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0),
                           np.full(n - 1, -1.0)])
    return CSCMatrix.from_coo(n, rows, cols, vals)


def laplacian_2d(nx: int, ny: Optional[int] = None) -> CSCMatrix:
    """5-point Laplacian on an ``nx × ny`` grid (Dirichlet)."""
    ny = nx if ny is None else ny
    n = nx * ny
    idx = np.arange(n).reshape(ny, nx)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0)]
    for a, b in [(idx[:, :-1].ravel(), idx[:, 1:].ravel()),
                 (idx[:-1, :].ravel(), idx[1:, :].ravel())]:
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(a.size, -1.0), np.full(a.size, -1.0)]
    return CSCMatrix.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def laplacian_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None) -> CSCMatrix:
    """7-point Laplacian on an ``nx × ny × nz`` grid (Dirichlet).

    This is the paper's ``lapN`` generator: ``laplacian_3d(120)`` would be
    lap120 (1.7M dofs); laptop-scale benches use 16-32 per side.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    n = nx * ny * nz
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 6.0)]
    for a, b in _stencil_links_3d(nx, ny, nz):
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(a.size, -1.0), np.full(a.size, -1.0)]
    return CSCMatrix.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def convection_diffusion_3d(nx: int, ny: Optional[int] = None,
                            nz: Optional[int] = None,
                            peclet: float = 0.5,
                            seed: int = 0) -> CSCMatrix:
    """Nonsymmetric convection–diffusion operator (Atmosmodj proxy).

    Atmosmodj is an atmospheric-model matrix: structurally symmetric,
    numerically nonsymmetric, diagonally dominant.  We discretize
    ``-Δu + β·∇u`` with central differences; the convection field β is a
    smooth spatially varying "wind" with magnitude ``peclet`` relative to
    diffusion, keeping the matrix mildly nonsymmetric and well conditioned —
    the same regime that makes atmosmodj the most compressible matrix of the
    paper's suite.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    n = nx * ny * nz
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    i, j, k = _grid_index_3d(nx, ny, nz)
    # smooth periodic wind components at every node
    bx = peclet * np.sin(2 * np.pi * i / max(nx, 2) + phase[0])
    by = peclet * np.sin(2 * np.pi * j / max(ny, 2) + phase[1])
    bz = peclet * np.sin(2 * np.pi * k / max(nz, 2) + phase[2])

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 6.0)]
    winds = [bx, by, bz]
    for axis, (a, b) in enumerate(_stencil_links_3d(nx, ny, nz)):
        w = winds[axis]
        # central-difference convection: -1 - w/2 toward +axis, -1 + w/2 back
        rows += [a, b]
        cols += [b, a]
        vals += [-1.0 - 0.5 * w[a], -1.0 + 0.5 * w[a]]
    return CSCMatrix.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def elasticity_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None,
                  lam: float = 1.0, mu: float = 1.0) -> CSCMatrix:
    """Linear-elasticity-like operator, 3 dofs per grid node (Audi / Hook
    proxy).

    Audi and Hook are structural-mechanics matrices: 3 unknowns per mesh
    node, SPD, and notably *harder to compress* than scalar Laplacians.  We
    build a vector operator where each displacement component carries a
    7-point Laplacian scaled by ``mu``, plus a grad-div coupling between
    components along the stencil links scaled by ``lam`` — the same coupling
    pattern a Q1 finite-element elasticity assembly produces, and enough to
    raise the off-diagonal block ranks the way the paper's hard matrices do.

    ``elasticity_3d(nx, ny=nx//4, nz=nx//4)`` gives the elongated "hook/bar"
    geometry.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    nn = nx * ny * nz
    n = 3 * nn

    rows_l, cols_l, vals_l = [], [], []

    def add(r: np.ndarray, c: np.ndarray, v: np.ndarray) -> None:
        rows_l.append(r)
        cols_l.append(c)
        vals_l.append(v)

    # diagonal: (2*mu + lam) on each component, x6 neighbours folded below
    node = np.arange(nn)
    for c in range(3):
        add(3 * node + c, 3 * node + c, np.full(nn, 6.0 * (2.0 * mu + lam) / 3.0))

    links = _stencil_links_3d(nx, ny, nz)
    for axis, (a, b) in enumerate(links):
        m = a.size
        for c in range(3):
            # component Laplacian along every axis
            w = -(mu + (lam if c == axis else 0.0))
            add(3 * a + c, 3 * b + c, np.full(m, w))
            add(3 * b + c, 3 * a + c, np.full(m, w))
        # grad-div cross-component coupling between the axis component and
        # the two others (symmetric, weak)
        for c in range(3):
            if c == axis:
                continue
            w = -0.25 * lam
            add(3 * a + axis, 3 * b + c, np.full(m, w))
            add(3 * b + c, 3 * a + axis, np.full(m, w))
            add(3 * b + axis, 3 * a + c, np.full(m, -w))
            add(3 * a + c, 3 * b + axis, np.full(m, -w))

    a = CSCMatrix.from_coo(n, np.concatenate(rows_l), np.concatenate(cols_l),
                           np.concatenate(vals_l))
    # guarantee SPD by diagonal shift to strict dominance
    return _make_diagonally_dominant(a, margin=0.05)


def heterogeneous_poisson_3d(nx: int, ny: Optional[int] = None,
                             nz: Optional[int] = None,
                             contrast: float = 1e3, nlayers: int = 4,
                             seed: int = 0) -> CSCMatrix:
    """Layered-coefficient diffusion (Serena proxy: gas-reservoir simulation).

    Reservoir models stack geological layers with permeability jumping by
    orders of magnitude.  Coefficients are constant within horizontal layers
    and jump by up to ``contrast`` across them, with harmonic averaging on
    the faces — SPD, ill conditioned, moderately compressible.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    n = nx * ny * nz
    rng = np.random.default_rng(seed)
    layer_of = (np.arange(nz) * nlayers // max(nz, 1)).clip(0, nlayers - 1)
    kappa_layer = contrast ** rng.uniform(-0.5, 0.5, size=nlayers)
    _, _, kcoord = _grid_index_3d(nx, ny, nz)
    kappa = kappa_layer[layer_of[kcoord]]

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    diag = np.zeros(n, dtype=np.float64)  # generators build float64 matrices
    off_rows, off_cols, off_vals = [], [], []
    for a, b in _stencil_links_3d(nx, ny, nz):
        w = 2.0 * kappa[a] * kappa[b] / (kappa[a] + kappa[b])  # harmonic mean
        off_rows += [a, b]
        off_cols += [b, a]
        off_vals += [-w, -w]
        np.add.at(diag, a, w)
        np.add.at(diag, b, w)
    # Dirichlet-like shift so the operator is nonsingular
    diag += diag.mean() * 1e-3 + 1e-8
    vals = [diag]
    return CSCMatrix.from_coo(
        n,
        np.concatenate(rows + off_rows),
        np.concatenate(cols + off_cols),
        np.concatenate(vals + off_vals),
    )


def anisotropic_laplacian_3d(nx: int, ny: Optional[int] = None,
                             nz: Optional[int] = None,
                             epsx: float = 1.0, epsy: float = 25.0,
                             epsz: float = 625.0) -> CSCMatrix:
    """Strongly anisotropic diffusion (Geo1438 proxy: geomechanics).

    Geomechanical models couple very different stiffnesses along different
    axes; strong anisotropy raises the numerical ranks of separator blocks,
    which is why Geo1438 is among the paper's least compressible matrices.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    n = nx * ny * nz
    eps = [epsx, epsy, epsz]
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 2.0 * (epsx + epsy + epsz))]
    for axis, (a, b) in enumerate(_stencil_links_3d(nx, ny, nz)):
        w = -eps[axis]
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(a.size, w), np.full(a.size, w)]
    return CSCMatrix.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))


def random_spd(n: int, density: float = 0.05, seed: int = 0) -> CSCMatrix:
    """Random sparse SPD matrix (for tests): symmetric pattern, strictly
    diagonally dominant."""
    rng = np.random.default_rng(seed)
    nnz_target = max(n, int(density * n * n / 2))
    rows = rng.integers(0, n, size=nnz_target)
    cols = rng.integers(0, n, size=nnz_target)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    vals = rng.standard_normal(rows.size)
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    all_vals = np.concatenate([vals, vals])
    a = CSCMatrix.from_coo(n, all_rows, all_cols, all_vals)
    return _make_diagonally_dominant(a, margin=1.0)


def _make_diagonally_dominant(a: CSCMatrix, margin: float = 0.0) -> CSCMatrix:
    """Add to each diagonal entry enough to dominate its column strictly."""
    colsum = np.zeros(a.n, dtype=np.float64)
    for j in range(a.n):
        rows, vals = a.column(j)
        mask = rows != j
        colsum[j] = np.abs(vals[mask]).sum()
    d = a.diagonal()
    need = colsum * (1.0 + margin) - d
    need = np.maximum(need, margin)
    rows = np.concatenate([a.rowind, np.arange(a.n)])
    cols = np.concatenate([a.col_indices(), np.arange(a.n)])
    vals = np.concatenate([a.values, need])
    return CSCMatrix.from_coo(a.n, rows, cols, vals)


def laplacian_3d_27pt(nx: int, ny: Optional[int] = None,
                      nz: Optional[int] = None) -> CSCMatrix:
    """27-point 3D Laplacian (trilinear finite elements on a box grid).

    Denser stencil than the 7-point operator: every grid node couples to
    its full 3x3x3 neighbourhood with the classical FE weights.  Produces
    fuller (hence more BLAS-efficient and slightly more compressible)
    blocks — the stencil used by several of the paper's related works.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    n = nx * ny * nz
    idx = np.arange(n).reshape(nz, ny, nx)
    rows_l, cols_l, vals_l = [], [], []
    # weights by Chebyshev distance: center 8/3, face -0, edge -1/... use
    # the standard trilinear FE stencil: face 0, edge -1/6? The classical
    # 27-point FE Laplacian weights: center 8/3, face 0, edge -1/3,
    # corner -1/12 (normalized).  Any diagonally dominant variant works for
    # the solver; we use distance-based weights that keep the matrix SPD.
    weights = {1: -2.0 / 9.0, 2: -1.0 / 18.0, 3: -1.0 / 72.0}
    diag = np.zeros(n, dtype=np.float64)
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                dist = abs(dx) + abs(dy) + abs(dz)
                if dist == 0:
                    continue
                w = weights[dist]
                src = idx[max(0, -dz):nz - max(0, dz),
                          max(0, -dy):ny - max(0, dy),
                          max(0, -dx):nx - max(0, dx)].ravel()
                dst = idx[max(0, dz):nz + min(0, dz) or nz,
                          max(0, dy):ny + min(0, dy) or ny,
                          max(0, dx):nx + min(0, dx) or nx].ravel()
                rows_l.append(src)
                cols_l.append(dst)
                vals_l.append(np.full(src.size, w))
                np.add.at(diag, src, -w)
    rows_l.append(np.arange(n))
    cols_l.append(np.arange(n))
    vals_l.append(diag + 1e-6)  # Dirichlet-like shift: strictly SPD
    return CSCMatrix.from_coo(n, np.concatenate(rows_l),
                              np.concatenate(cols_l),
                              np.concatenate(vals_l))


def helmholtz_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None,
                 wavenumber: float = 1.0,
                 damping: float = 0.0) -> CSCMatrix:
    """Shifted (indefinite) Helmholtz operator ``-Δ - (1 - iα) k² I``.

    The textbook hard case for compression-based solvers: block ranks grow
    with the wavenumber ``k`` because the Green's function oscillates.
    With ``damping == 0`` the operator is real symmetric indefinite —
    factorize with ``factotype='ldlt'`` (static pivoting).  A nonzero
    ``damping`` α adds the absorbing ``+iαk²`` shift used by shifted-Laplacian
    preconditioners, yielding a *complex symmetric* (not Hermitian) matrix —
    factorize with ``factotype='lu'`` and ``dtype='complex128'``.
    ``wavenumber`` is expressed in grid units (``k·h``).
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    base = laplacian_3d(nx, ny, nz)
    shift = float(wavenumber) ** 2
    if damping:
        shift = shift * complex(1.0, -float(damping))
    rows = np.concatenate([base.rowind, np.arange(base.n)])
    cols = np.concatenate([base.col_indices(), np.arange(base.n)])
    diag = np.full(base.n, -shift)
    vals = np.concatenate([base.values.astype(diag.dtype), diag])
    return CSCMatrix.from_coo(base.n, rows, cols, vals)


# ---------------------------------------------------------------------------
# Matrix zoo: committed hard cases for the scenario harness
# ---------------------------------------------------------------------------


def saddle_point_kkt(nx: int, m: Optional[int] = None, penalty: float = 0.0,
                     seed: int = 0) -> CSCMatrix:
    """Symmetric indefinite KKT / saddle-point system.

    Builds the classic optimality system

    .. code-block:: text

        [ A   Bᵀ ]     A = 2D Laplacian (nx × nx grid, SPD, n = nx²)
        [ B  -γI ]     B = m × n full-row-rank constraint block

    with ``γ = penalty``.  Each constraint row couples one adjacent pair of
    unknowns with random weights (disjoint pairs, so B has full row rank m).
    With ``penalty == 0`` the (2,2) block is *exactly zero* — every
    constraint row has a structurally zero diagonal entry, the canonical
    case where static (perturbation-only) pivoting fails and threshold
    pivoting must build 2×2 pivots.  A small positive ``penalty`` gives the
    regularized variant with tiny negative diagonal entries instead.

    By Sylvester's law of inertia the system has exactly ``m`` negative and
    ``n`` positive eigenvalues (for any ``penalty >= 0`` and full-rank B),
    which the zoo tests check via :func:`repro.analysis.diagnostics.factor_inertia`.
    """
    a = laplacian_2d(nx)
    n = a.n
    if m is None:
        m = n // 4
    if m < 1 or 2 * m > n:
        raise ValueError("constraint count m must satisfy 1 <= m <= n/2")
    rng = np.random.default_rng(seed)
    ntot = n + m

    # A block (top-left, unchanged indices)
    rows_l = [a.rowind]
    cols_l = [a.col_indices()]
    vals_l = [np.asarray(a.values, dtype=np.float64)]

    # B block: constraint j couples unknowns (2j, 2j+1)
    j = np.arange(m, dtype=np.int64)
    crow = n + j
    w1 = rng.uniform(0.5, 1.5, size=m)
    w2 = -rng.uniform(0.5, 1.5, size=m)
    for col, w in ((2 * j, w1), (2 * j + 1, w2)):
        rows_l += [crow, col]
        cols_l += [col, crow]
        vals_l += [w, w]

    # (2,2) block: -penalty I, with *explicit* zeros when penalty == 0 so
    # the constraint diagonal entries exist structurally (and assemble to 0)
    rows_l.append(crow)
    cols_l.append(crow)
    vals_l.append(np.full(m, -float(penalty)))

    return CSCMatrix.from_coo(ntot, np.concatenate(rows_l),
                              np.concatenate(cols_l), np.concatenate(vals_l))


def stretched_mesh_3d(nx: int, ny: Optional[int] = None,
                      nz: Optional[int] = None,
                      stretch: float = 10.0) -> CSCMatrix:
    """Laplacian on a geometrically stretched grid (boundary-layer mesh).

    The grid spacing along z grows geometrically from ``1`` at the bottom
    layer to ``stretch`` at the top (the classic boundary-layer grading),
    so the +z link weights ``1/h²`` span a ``stretch²`` dynamic range while
    x/y links keep unit weight.  Unlike :func:`anisotropic_laplacian_3d`
    (constant coefficients), the anisotropy here varies *through* the
    domain, which stresses both the scaling robustness of the numerical
    factorization and the rank structure of separators.  SPD.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if nz < 2:
        raise ValueError("stretched mesh needs nz >= 2")
    if stretch <= 0:
        raise ValueError("stretch must be positive")
    n = nx * ny * nz
    # spacing between layer k and k+1: geometric from 1 to `stretch`
    hmid = np.asarray(stretch, dtype=np.float64) ** (
        (np.arange(nz - 1) + 0.5) / (nz - 1))
    wz_layer = 1.0 / (hmid * hmid)

    diag = np.zeros(n, dtype=np.float64)
    rows_l, cols_l, vals_l = [], [], []
    _, _, kcoord = _grid_index_3d(nx, ny, nz)
    for axis, (a, b) in enumerate(_stencil_links_3d(nx, ny, nz)):
        w = wz_layer[kcoord[a]] if axis == 2 else np.full(a.size, 1.0)
        rows_l += [a, b]
        cols_l += [b, a]
        vals_l += [-w, -w]
        np.add.at(diag, a, w)
        np.add.at(diag, b, w)
    # Dirichlet-like shift keeps the operator strictly SPD
    rows_l.append(np.arange(n))
    cols_l.append(np.arange(n))
    vals_l.append(diag * (1.0 + 1e-6) + 1e-8)
    return CSCMatrix.from_coo(n, np.concatenate(rows_l),
                              np.concatenate(cols_l), np.concatenate(vals_l))


def perturb(base: CSCMatrix, seed: int, magnitude: float = 1e-6) -> CSCMatrix:
    """Reproducible symmetry-preserving perturbation of ``base``.

    Multiplies every stored entry by ``1 + magnitude · ε(i, j)`` where the
    noise field ``ε(i, j) = g[i]·h[j] + g[j]·h[i]`` is built from two seeded
    node vectors — symmetric in (i, j) by construction, so a (skew-)symmetric
    input stays exactly symmetric, and the sparsity pattern is unchanged
    (zero entries stay zero).  ``|ε| <= 1/2``, so ``magnitude`` bounds the
    relative entrywise perturbation.  Same ``(base, seed, magnitude)``
    always yields the same matrix — the contract the scenario replay
    harness depends on.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    rng = np.random.default_rng(seed)
    g = rng.uniform(-0.5, 0.5, size=base.n)
    h = rng.uniform(-0.5, 0.5, size=base.n)
    rows = base.rowind
    cols = base.col_indices()
    eps = g[rows] * h[cols] + g[cols] * h[rows]
    vals = base.values * (1.0 + float(magnitude) * eps)
    return CSCMatrix.from_coo(base.n, rows.copy(), cols, vals)


def helmholtz_shift_sweep(nx: int, wavenumbers: Tuple[float, ...] = (1.0, 2.2, 3.0),
                          damping: float = 0.0
                          ) -> List[Tuple[str, CSCMatrix]]:
    """Shifted-Helmholtz sweep: one matrix per wavenumber.

    Returns ``[(label, matrix), ...]`` with labels like ``"helmholtz-k2.2"``.
    Increasing ``k`` drives the operator from SPD (small shift) through
    increasingly indefinite regimes — the sweep the scenario harness runs
    to chart where static pivoting stops being enough.
    """
    out: List[Tuple[str, CSCMatrix]] = []
    for k in wavenumbers:
        out.append((f"helmholtz-k{k:g}",
                    helmholtz_3d(nx, wavenumber=float(k), damping=damping)))
    return out


@dataclass(frozen=True)
class ZooCase:
    """One committed zoo matrix: a named builder plus declared spectrum.

    ``definiteness`` is the *declared* class ("positive" or "indefinite"),
    verified by the zoo tests via the factorization's inertia; the scenario
    harness uses it to pick admissible factotypes.
    """

    name: str
    build: Callable[[], CSCMatrix]
    definiteness: str
    description: str = ""


def zoo() -> List[ZooCase]:
    """The committed matrix zoo for scenario replay and CI.

    Small, fast instances (hundreds of unknowns) spanning the regimes the
    robustness machinery must survive: SPD baselines, graded/anisotropic
    meshes, indefinite Helmholtz shifts, and saddle-point systems whose
    zero diagonal block defeats static pivoting outright.
    """
    return [
        ZooCase("lap3d", lambda: laplacian_3d(8), "positive",
                "7-point 3D Laplacian, the SPD baseline"),
        ZooCase("stretched", lambda: stretched_mesh_3d(8, stretch=50.0),
                "positive",
                "boundary-layer graded mesh, 2500x weight contrast"),
        ZooCase("aniso", lambda: anisotropic_laplacian_3d(8), "positive",
                "constant-coefficient strong anisotropy (Geo1438 proxy)"),
        ZooCase("helmholtz-k2.2", lambda: helmholtz_3d(9, wavenumber=2.2),
                "indefinite",
                "shifted Helmholtz past the first eigenvalue cluster"),
        ZooCase("helmholtz-k3", lambda: helmholtz_3d(9, wavenumber=3.0),
                "indefinite",
                "deep Helmholtz shift with a near-singular active diagonal: "
                "static pivoting must perturb, threshold pivoting swaps"),
        ZooCase("kkt", lambda: saddle_point_kkt(12), "indefinite",
                "saddle point with an exactly zero (2,2) block; needs 2x2 "
                "pivots"),
        ZooCase("kkt-regularized", lambda: saddle_point_kkt(12, penalty=1e-2),
                "indefinite",
                "regularized KKT: tiny negative constraint diagonal"),
    ]

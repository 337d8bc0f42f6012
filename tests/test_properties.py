"""Property-based tests (hypothesis) on core invariants.

These cover the paper's key algebraic guarantees on randomized inputs:
compression error bounds, extend-add exactness, permutation round-trips,
and the structural invariants of the analysis pipeline.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lowrank.kernels import lr2lr_update, lr_product
from repro.lowrank.recompress import recompress_rrqr, recompress_svd
from repro.lowrank.rrqr import rrqr, rrqr_compress, rrqr_lapack
from repro.lowrank.svd import svd_compress
from repro.sparse.csc import CSCMatrix
from repro.sparse.permute import (
    invert_permutation,
    permute_symmetric,
    is_permutation,
)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def lowrank_matrices(draw, max_dim=40):
    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    r = draw(st.integers(1, min(m, n)))
    seed = draw(st.integers(0, 2**31 - 1))
    decay = draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    s = decay ** np.arange(r)
    return (u * s) @ v.T


@st.composite
def tolerances(draw):
    return 10.0 ** draw(st.integers(-12, -2))


class TestCompressionProperties:
    @given(a=lowrank_matrices(), tol=tolerances())
    @settings(max_examples=40, **COMMON)
    def test_svd_error_bound(self, a, tol):
        lr = svd_compress(a, tol)
        norm = np.linalg.norm(a)
        if norm > 0:
            assert np.linalg.norm(a - lr.to_dense()) <= tol * norm * 1.01

    @given(a=lowrank_matrices(), tol=tolerances())
    @settings(max_examples=40, **COMMON)
    def test_rrqr_error_bound(self, a, tol):
        lr = rrqr_compress(a, tol)
        norm = np.linalg.norm(a)
        if norm > 0:
            assert np.linalg.norm(a - lr.to_dense()) <= tol * norm * 1.01

    @given(a=lowrank_matrices(max_dim=25), tol=tolerances())
    @settings(max_examples=25, **COMMON)
    def test_householder_matches_lapack_bound(self, a, tol):
        for impl in (rrqr, rrqr_lapack):
            res = impl(a, tol)
            if res.converged and res.q.shape[1]:
                approx = res.q @ res.r
                err = np.linalg.norm(a[:, res.jpvt] - approx)
                assert err <= tol * np.linalg.norm(a) * 1.01

    @given(a=lowrank_matrices(), tol=tolerances())
    @settings(max_examples=40, **COMMON)
    def test_u_orthonormal_both_kernels(self, a, tol):
        for compress in (svd_compress, rrqr_compress):
            lr = compress(a, tol)
            if lr.rank:
                gram = lr.u.T @ lr.u
                assert np.allclose(gram, np.eye(lr.rank), atol=1e-10)


class TestUpdateProperties:
    @given(seed=st.integers(0, 2**31 - 1), tol=tolerances())
    @settings(max_examples=30, **COMMON)
    def test_lr_product_exact_at_tolerance(self, seed, tol):
        rng = np.random.default_rng(seed)
        ra, rb = rng.integers(1, 6), rng.integers(1, 6)
        a = rrqr_compress(rng.standard_normal((20, ra)) @
                          rng.standard_normal((15, ra)).T, 1e-14)
        b = rrqr_compress(rng.standard_normal((18, rb)) @
                          rng.standard_normal((15, rb)).T, 1e-14)
        out = lr_product(a, b, tol, "rrqr")
        ref = a.to_dense() @ b.to_dense().T
        got = np.zeros_like(ref) if out is None else out.to_dense()
        assert np.linalg.norm(got - ref) <= \
            3 * tol * max(np.linalg.norm(ref), 1e-30) + 1e-12

    @given(seed=st.integers(0, 2**31 - 1), tol=tolerances(),
           kernel=st.sampled_from(["svd", "rrqr"]))
    @settings(max_examples=30, **COMMON)
    def test_extend_add_error_bound(self, seed, tol, kernel):
        rng = np.random.default_rng(seed)
        m, n = 24, 20
        mi, ni = rng.integers(2, m + 1), rng.integers(2, n + 1)
        ro = rng.integers(0, m - mi + 1)
        co = rng.integers(0, n - ni + 1)
        target = rrqr_compress(
            rng.standard_normal((m, 4)) @ rng.standard_normal((n, 4)).T,
            1e-14)
        contrib = rrqr_compress(
            rng.standard_normal((mi, 3)) @ rng.standard_normal((ni, 3)).T,
            1e-14)
        ref = target.to_dense()
        ref[ro:ro + mi, co:co + ni] -= contrib.to_dense()
        out = lr2lr_update(target, contrib, int(ro), int(co), tol, kernel)
        assert out is not None
        scale = max(np.linalg.norm(ref), 1.0)
        assert np.linalg.norm(out.to_dense() - ref) <= 5 * tol * scale

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, **COMMON)
    def test_recompress_self_cancellation(self, seed):
        rng = np.random.default_rng(seed)
        c = rrqr_compress(rng.standard_normal((15, 3)) @
                          rng.standard_normal((12, 3)).T, 1e-14)
        for recompress in (recompress_svd, recompress_rrqr):
            out = recompress(c.u, c.v, c.u, c.v, 1e-8)
            assert np.linalg.norm(out.to_dense()) <= \
                1e-7 * np.linalg.norm(c.to_dense())


class TestSparseProperties:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 30))
    @settings(max_examples=30, **COMMON)
    def test_csc_dense_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((n, n))
        d[rng.random((n, n)) < 0.6] = 0.0
        a = CSCMatrix.from_dense(d)
        np.testing.assert_array_equal(a.to_dense(), d)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 25))
    @settings(max_examples=30, **COMMON)
    def test_permutation_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((n, n))
        d[rng.random((n, n)) < 0.5] = 0.0
        d = d + d.T  # symmetric pattern
        a = CSCMatrix.from_dense(d)
        p = rng.permutation(n)
        ap = permute_symmetric(a, p)
        back = permute_symmetric(ap, invert_permutation(p))
        np.testing.assert_allclose(back.to_dense(), a.to_dense())

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 40))
    @settings(max_examples=20, **COMMON)
    def test_nested_dissection_always_valid(self, seed, n):
        from repro.ordering.graph import Graph
        from repro.ordering.nested_dissection import nested_dissection
        rng = np.random.default_rng(seed)
        nedges = int(rng.integers(0, 3 * n))
        edges = rng.integers(0, n, size=(nedges, 2))
        g = Graph.from_edges(n, [tuple(e) for e in edges])
        nd = nested_dissection(g, cmin=int(rng.integers(1, 8)))
        assert is_permutation(nd.perm, n)
        pos = 0
        for p in nd.partitions:
            assert p.start == pos
            pos = p.end
        assert pos == n


class TestEndToEndProperty:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, **COMMON)
    def test_random_spd_always_solvable(self, seed):
        from repro.core.solver import Solver
        from repro.sparse.generators import random_spd
        from tests.conftest import tiny_blr_config
        a = random_spd(35, density=0.1, seed=seed)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-8))
        s.factorize()
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(a.n)
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-4


class TestGeometricProperties:
    @given(seed=st.integers(0, 2**31 - 1),
           nx=st.integers(3, 8), ny=st.integers(3, 8), nz=st.integers(1, 5))
    @settings(max_examples=20, **COMMON)
    def test_plane_splitter_always_separates(self, seed, nx, ny, nz):
        from repro.ordering.geometric import grid_coords, make_plane_splitter
        from repro.ordering.graph import Graph
        from repro.ordering.separator import check_separator
        from repro.sparse.generators import laplacian_3d

        g = Graph.from_matrix(laplacian_3d(nx, ny, nz))
        splitter = make_plane_splitter(grid_coords(nx, ny, nz))
        rng = np.random.default_rng(seed)
        # also exercise proper sub-regions, not just the full grid
        verts = np.sort(rng.choice(g.n, size=max(4, g.n * 3 // 4),
                                   replace=False))
        pa, pb, sep = splitter(g, [verts])[0]
        combined = np.sort(np.concatenate([pa, pb, sep]))
        np.testing.assert_array_equal(combined, verts)
        assert check_separator(g, pa, pb, sep)

    @given(nx=st.integers(3, 7))
    @settings(max_examples=10, **COMMON)
    def test_geometric_solver_correct(self, nx):
        from repro.core.solver import Solver
        from repro.ordering.geometric import grid_coords
        from repro.sparse.generators import laplacian_3d
        from tests.conftest import tiny_blr_config

        a = laplacian_3d(nx)
        cfg = tiny_blr_config(strategy="dense", ordering="geometric")
        s = Solver(a, cfg, coords=grid_coords(nx, nx, nx))
        s.factorize()
        b = np.ones(a.n)
        assert np.linalg.norm(a.matvec(s.solve(b)) - b) <= 1e-9 * a.n


class TestKernelFamilyProperties:
    @given(a=lowrank_matrices(max_dim=30), tol=tolerances(),
           kernel=st.sampled_from(["svd", "rrqr"]))
    @settings(max_examples=40, **COMMON)
    def test_all_kernels_honour_tolerance(self, a, tol, kernel):
        from repro.lowrank.kernels import compress_block
        lr = compress_block(a, tol, kernel)
        norm = np.linalg.norm(a)
        if lr is not None and norm > 0:
            assert np.linalg.norm(a - lr.to_dense()) <= tol * norm * 1.1

    @given(a=lowrank_matrices(max_dim=25),
           kernel=st.sampled_from(["svd", "rrqr"]))
    @settings(max_examples=25, **COMMON)
    def test_all_kernels_keep_u_orthonormal(self, a, kernel):
        from repro.lowrank.kernels import compress_block
        lr = compress_block(a, 1e-8, kernel)
        if lr is not None and lr.rank:
            gram = lr.u.T @ lr.u
            assert np.allclose(gram, np.eye(lr.rank), atol=1e-9)

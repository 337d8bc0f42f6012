"""Tests for the CSC container."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d


def small():
    # [[4, 0, 1],
    #  [0, 3, 0],
    #  [2, 0, 5]]
    return CSCMatrix.from_coo(3, [0, 2, 1, 0, 2], [0, 0, 1, 2, 2],
                              [4.0, 2.0, 3.0, 1.0, 5.0])


class TestConstruction:
    def test_from_coo_basic(self):
        a = small()
        assert a.n == 3
        assert a.nnz == 5
        np.testing.assert_allclose(
            a.to_dense(), [[4, 0, 1], [0, 3, 0], [2, 0, 5]])

    def test_from_coo_sums_duplicates(self):
        a = CSCMatrix.from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        assert a.nnz == 2
        np.testing.assert_allclose(a.to_dense(), [[3, 0], [0, 5]])

    def test_from_coo_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shapes"):
            CSCMatrix.from_coo(2, [0, 1], [0], [1.0])

    def test_from_dense_roundtrip(self, rng):
        d = rng.standard_normal((7, 7))
        d[np.abs(d) < 0.8] = 0.0
        a = CSCMatrix.from_dense(d)
        np.testing.assert_allclose(a.to_dense(), d)

    def test_from_dense_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            CSCMatrix.from_dense(np.ones((2, 3)))

    def test_scipy_roundtrip(self):
        sp = pytest.importorskip("scipy.sparse")
        a = small()
        s = a.to_scipy()
        back = CSCMatrix.from_scipy(s)
        np.testing.assert_allclose(back.to_dense(), a.to_dense())
        assert isinstance(s, sp.csc_matrix)

    def test_validation_rejects_bad_colptr(self):
        with pytest.raises(ValueError):
            CSCMatrix(2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_validation_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="unsorted"):
            CSCMatrix(2, np.array([0, 2, 2]), np.array([1, 0]),
                      np.array([1.0, 2.0]))

    def test_validation_rejects_out_of_range_row(self):
        with pytest.raises(ValueError, match="out of range"):
            CSCMatrix(2, np.array([0, 1, 1]), np.array([5]),
                      np.array([1.0]))


class TestQueries:
    def test_column_view(self):
        a = small()
        rows, vals = a.column(0)
        np.testing.assert_array_equal(rows, [0, 2])
        np.testing.assert_allclose(vals, [4.0, 2.0])

    def test_diagonal(self):
        a = small()
        np.testing.assert_allclose(a.diagonal(), [4, 3, 5])

    def test_shape(self):
        assert small().shape == (3, 3)

    def test_norm1(self):
        a = small()
        assert a.norm1() == pytest.approx(6.0)  # max col sum |.|


class TestOperations:
    def test_transpose(self):
        a = small()
        np.testing.assert_allclose(a.transpose().to_dense(), a.to_dense().T)

    def test_matvec_matches_dense(self, rng):
        a = laplacian_2d(5)
        x = rng.standard_normal(a.n)
        np.testing.assert_allclose(a.matvec(x), a.to_dense() @ x)

    def test_matvec_block(self, rng):
        a = laplacian_2d(4)
        x = rng.standard_normal((a.n, 3))
        np.testing.assert_allclose(a.matvec(x), a.to_dense() @ x)

    def test_rmatvec_matches_dense(self, rng):
        a = small()
        x = rng.standard_normal(3)
        np.testing.assert_allclose(a.rmatvec(x), a.to_dense().T @ x)

    def test_symmetrize_pattern_keeps_values(self):
        a = small()
        s = a.symmetrize_pattern()
        assert s.is_pattern_symmetric()
        np.testing.assert_allclose(s.to_dense(), a.to_dense())
        # (0,1)/(1,0) absent in both; (0,2)/(2,0) both present already
        assert s.nnz >= a.nnz

    def test_symmetrize_pattern_adds_entries(self):
        a = CSCMatrix.from_coo(2, [1], [0], [7.0])
        s = a.symmetrize_pattern()
        assert s.is_pattern_symmetric()
        assert s.nnz == 2
        np.testing.assert_allclose(s.to_dense(), [[0, 0], [7, 0]])

    def test_is_pattern_symmetric(self):
        assert laplacian_2d(3).is_pattern_symmetric()
        assert not CSCMatrix.from_coo(2, [1], [0], [1.0]).is_pattern_symmetric()

    def test_is_symmetric(self):
        assert laplacian_2d(3).is_symmetric()
        a = CSCMatrix.from_coo(2, [0, 1, 0, 1], [0, 0, 1, 1],
                               [1.0, 2.0, 3.0, 1.0])
        assert not a.is_symmetric()

    def test_lower_pattern(self):
        a = laplacian_2d(3)
        low = a.lower_pattern()
        d = low.to_dense()
        assert np.all(np.triu(d, 1) == 0)
        np.testing.assert_allclose(np.tril(a.to_dense()), d)


# -- the array forms against their per-column reference loops ---------------

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def loop_validate(n, colptr, rowind):
    """The per-column sortedness check ``_validate`` used to run; returns
    the first offending column or None."""
    for j in range(n):
        col = rowind[colptr[j]:colptr[j + 1]]
        if col.size > 1 and np.any(np.diff(col) <= 0):
            return j
    return None


def loop_matvec(a, x, transpose=False):
    x = np.asarray(x, dtype=np.result_type(a.values, np.asarray(x)))
    xb = x[:, None] if x.ndim == 1 else x
    y = np.zeros_like(xb)
    for j in range(a.n):
        rows, vals = a.column(j)
        if rows.size and transpose:
            y[j] = vals @ xb[rows]
        elif rows.size:
            y[rows] += vals[:, None] * xb[j]
    return y[:, 0] if x.ndim == 1 else y


@st.composite
def csc_arrays(draw, max_n=12):
    """Raw (n, colptr, rowind) with in-range indices and a consistent
    colptr, but rows in arbitrary order: empty leading/trailing columns,
    duplicates and descending pairs inside columns and across column
    boundaries all occur."""
    n = draw(st.integers(0, max_n))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    colptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    rowind = np.array(
        draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=int(colptr[-1]),
                      max_size=int(colptr[-1]))), dtype=np.int64)
    if draw(st.booleans()):  # often make it valid, or nearly so
        for j in range(n):
            rowind[colptr[j]:colptr[j + 1]].sort()
    return n, colptr, rowind


class TestValidateMatchesColumnLoop:
    @given(arrays=csc_arrays())
    @settings(max_examples=400, **COMMON)
    def test_same_verdict_same_column(self, arrays):
        n, colptr, rowind = arrays
        bad = loop_validate(n, colptr, rowind)
        if bad is None:
            CSCMatrix(n, colptr, rowind, np.ones(rowind.size))
        else:
            with pytest.raises(ValueError, match=f"column {bad} has"):
                CSCMatrix(n, colptr, rowind, np.ones(rowind.size))

    def test_pair_inside_a_column_rejected(self):
        for rows in ([1, 1], [2, 1]):  # duplicate, descending
            with pytest.raises(ValueError, match="column 1 has"):
                CSCMatrix(3, [0, 1, 3, 3], [0] + rows, np.ones(3))

    def test_same_pair_across_a_boundary_accepted(self):
        for rows in ([1, 1], [2, 1]):
            CSCMatrix(3, [0, 1, 2, 2], rows, np.ones(2))
            # ... also across a run of empty columns
            CSCMatrix(4, [0, 0, 1, 1, 2], rows, np.ones(2))

    def test_empty_matrix_and_empty_columns(self):
        CSCMatrix(0, [0], [], [])
        CSCMatrix(3, [0, 0, 0, 0], [], [])
        CSCMatrix(3, [0, 0, 2, 2], [0, 2], np.ones(2))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            CSCMatrix(2, [0, 1, 2], [0, 2], np.ones(2))
        with pytest.raises(ValueError, match="out of range"):
            CSCMatrix(2, [0, 1, 2], [-1, 1], np.ones(2))


@st.composite
def random_csc(draw, dtypes=(np.float64, np.float32)):
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dt = np.dtype(draw(st.sampled_from(dtypes)))
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    if dt.kind == "c":
        dense = dense + 1j * rng.standard_normal((n, n)) * (dense != 0)
    return CSCMatrix.from_dense(dense.astype(dt)), rng


class TestArrayFormsMatchColumnLoops:
    @given(case=random_csc(), k=st.sampled_from([None, 1, 3]),
           complex_x=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_real_matvec_bit_identical(self, case, k, complex_x):
        a, rng = case
        x = rng.standard_normal(a.n if k is None else (a.n, k))
        if complex_x:
            x = x + 1j * rng.standard_normal(x.shape)
        got, want = a.matvec(x), loop_matvec(a, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        # same products added in the same order: no tolerance
        np.testing.assert_array_equal(got, want)
        rgot, rwant = a.rmatvec(x), loop_matvec(a, x, transpose=True)
        assert rgot.dtype == rwant.dtype and rgot.shape == rwant.shape
        # the column loop summed each dot product inside BLAS
        np.testing.assert_allclose(rgot, rwant, rtol=1e-5, atol=1e-5)

    @given(case=random_csc(dtypes=(np.complex128, np.complex64)),
           k=st.sampled_from([None, 2]))
    @settings(max_examples=100, **COMMON)
    def test_complex_matvec_same_sums(self, case, k):
        # the sums run in the same order, but a complex product is several
        # roundings and numpy's vector and scalar multiply loops place them
        # differently (a one-entry column went through the scalar one), so
        # complex results agree to a rounding of the products, no more
        a, rng = case
        shape = a.n if k is None else (a.n, k)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        eps = np.finfo(a.dtype).eps
        np.testing.assert_allclose(a.matvec(x), loop_matvec(a, x),
                                   rtol=0, atol=8 * eps * a.n)

    @given(case=random_csc(dtypes=(np.float64, np.complex128)))
    @settings(max_examples=100, **COMMON)
    def test_diagonal_norm1_lower(self, case):
        a, _ = case
        dense = a.to_dense()
        np.testing.assert_array_equal(a.diagonal(), np.diag(dense))
        assert a.norm1() == pytest.approx(np.abs(dense).sum(axis=0).max(),
                                          rel=1e-12)
        low = a.lower_pattern()
        np.testing.assert_array_equal(low.to_dense(), np.tril(dense))
        stored = np.zeros(dense.shape, dtype=bool)
        stored[a.rowind, a.col_indices()] = True
        kept = np.zeros(dense.shape, dtype=bool)
        kept[low.rowind, low.col_indices()] = True
        np.testing.assert_array_equal(kept, np.tril(stored))

    def test_norm1_of_empty(self):
        assert CSCMatrix(3, [0, 0, 0, 0], [], []).norm1() == 0.0
        assert CSCMatrix(0, [0], [], []).norm1() == 0.0

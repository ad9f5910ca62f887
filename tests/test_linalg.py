import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from greedylsq.linalg import (
    NORM_BLOCK_BYTES,
    axpy_column,
    column_dot,
    column_norms_sq,
    energy_error_sq,
    matvec,
    transpose_matvec,
)
from greedylsq.solvers import step
from greedylsq.validation import as_csc_matrix


def random_pair(m, n, seed, density=0.6):
    """The same matrix in dense and CSC storage."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A[rng.random((m, n)) > density] = 0.0
    return np.asfortranarray(A), as_csc_matrix(sparse.csc_array(A))


def test_column_norms_sq_worked(worked_dense, worked_csc):
    for A in (worked_dense, worked_csc):
        assert np.array_equal(column_norms_sq(A), [1.0, 4.0])


def test_column_norms_sq_identity():
    assert np.array_equal(column_norms_sq(np.eye(2)), [1.0, 1.0])


def test_column_norms_sq_cross_representation():
    dense, csc = random_pair(5, 3, seed=11)
    np.testing.assert_allclose(column_norms_sq(dense), column_norms_sq(csc), rtol=1e-14)


@pytest.mark.parametrize("shape", [
    (NORM_BLOCK_BYTES // 8 + 232, 3),    # a column over the block: one per block
    (5000, 77),     # 6 columns per block, 77 not a multiple of 6
    (300, 1),
    (1, 9),
    (1000, 50),
])
@pytest.mark.parametrize("order", ["F", "C"])
def test_column_norms_sq_dense_is_bit_identical_to_the_full_product(shape, order):
    A = np.random.default_rng(sum(shape)).standard_normal(shape)
    A = np.asfortranarray(A) if order == "F" else np.ascontiguousarray(A)
    assert column_norms_sq(A).tobytes() == (A * A).sum(axis=0).tobytes()


@pytest.mark.parametrize("m, n, density", [
    (1, 1, 1.0),
    (30, 7, 0.0),       # every column empty
    (40, 12, 0.1),      # some columns empty, lengths 0-10
    (300, 50, 0.5),     # columns of over 128 entries: pairwise sums
    (2000, 40, 0.9),
])
def test_column_norms_sq_csc_is_bit_identical_to_per_column_sums(m, n, density):
    rng = np.random.default_rng(m + n)
    D = rng.standard_normal((m, n)) * rng.lognormal(0.0, 3.0, size=n)
    D[rng.random((m, n)) >= density] = 0.0
    D[:, rng.random(n) < 0.2] = 0.0
    A = as_csc_matrix(sparse.csc_array(D))
    sq = A.data * A.data
    per_column = [sq[A.indptr[j]:A.indptr[j + 1]].sum() for j in range(n)]
    assert column_norms_sq(A).tobytes() == np.array(per_column).tobytes()


def test_column_norms_sq_dense_makes_no_full_size_temporary():
    A = np.asfortranarray(np.random.default_rng(2).standard_normal((20_000, 250)))
    tracemalloc.start()
    try:
        column_norms_sq(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The lower bound shows tracemalloc sees numpy's buffers at all: one
    # column of squares is the least the blocked sum can hold.
    assert 8 * A.shape[0] <= peak < 2**20


def test_frobenius_equals_column_sum_exactly():
    dense, csc = random_pair(9, 6, seed=3)
    ref = float((dense * dense).sum())
    for A in (dense, csc):
        assert abs(float(column_norms_sq(A).sum()) - ref) <= 1e-13 * ref


def test_matvec_worked(worked_dense, worked_csc):
    x = np.array([1.0, 1.0])
    for A in (worked_dense, worked_csc):
        assert np.array_equal(matvec(A, x), [1.0, 2.0, 0.0])


def test_matvec_identity():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(matvec(np.eye(3), x), x)


def test_matvec_cross_representation():
    dense, csc = random_pair(6, 4, seed=21)
    x = np.random.default_rng(1).standard_normal(4)
    np.testing.assert_allclose(matvec(dense, x), matvec(csc, x), rtol=1e-14, atol=1e-14)


def test_matvec_dimension_mismatch(worked_dense):
    with pytest.raises(ValueError):
        matvec(worked_dense, np.ones(3))


def test_transpose_matvec_worked(worked_dense, worked_csc):
    r = np.array([1.0, 2.0, 3.0])
    for A in (worked_dense, worked_csc):
        assert np.array_equal(transpose_matvec(A, r), [1.0, 4.0])
        assert np.array_equal(transpose_matvec(A, np.zeros(3)), [0.0, 0.0])


def test_transpose_matvec_matches_columnwise_dots():
    dense, csc = random_pair(6, 4, seed=5)
    r = np.random.default_rng(2).standard_normal(6)
    for A in (dense, csc):
        got = transpose_matvec(A, r)
        ref = np.array([column_dot(A, j, r) for j in range(4)])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)


def test_column_dot_worked(worked_dense, worked_csc):
    r = np.array([1.0, 2.0, 3.0])
    for A in (worked_dense, worked_csc):
        assert column_dot(A, 1, r) == 4.0
        # r orthogonal to column 0
        assert column_dot(A, 0, np.array([0.0, 5.0, -2.0])) == 0.0


def test_column_dot_matches_transpose_matvec():
    dense, csc = random_pair(8, 5, seed=8)
    r = np.random.default_rng(3).standard_normal(8)
    for A in (dense, csc):
        s = transpose_matvec(A, r)
        for j in range(5):
            assert abs(column_dot(A, j, r) - s[j]) <= 1e-14 * max(abs(s[j]), 1.0)


def test_column_dot_index_out_of_range(worked_dense):
    with pytest.raises(IndexError):
        column_dot(worked_dense, 2, np.zeros(3))


def test_axpy_column_refuses_a_vector_of_another_length(worked_dense, worked_csc):
    for A in (worked_dense, worked_csc):
        with pytest.raises(ValueError, match="^r has length 2, expected 3$"):
            axpy_column(np.zeros(2), A, 0, 1.0)


def test_axpy_column_zero_alpha(worked_dense, worked_csc):
    for A in (worked_dense, worked_csc):
        r = np.array([1.0, 2.0, 3.0])
        axpy_column(r, A, 0, 0.0)
        assert np.array_equal(r, [1.0, 2.0, 3.0])


def test_axpy_column_subtracts_column(worked_dense, worked_csc):
    for A in (worked_dense, worked_csc):
        r = np.array([1.0, 2.0, 3.0])
        axpy_column(r, A, 1, -1.0)
        assert np.array_equal(r, [1.0, 0.0, 3.0])


def test_axpy_column_roundtrip():
    dense, csc = random_pair(7, 4, seed=13)
    for A in (dense, csc):
        r0 = np.random.default_rng(4).standard_normal(7)
        r = r0.copy()
        axpy_column(r, A, 2, 0.37)
        axpy_column(r, A, 2, -0.37)
        np.testing.assert_allclose(r, r0, rtol=1e-13)


def test_step_zeroes_chosen_column_gradient(worked_dense, worked_csc):
    # After a coordinate step the residual is orthogonal to that column.
    for A in (worked_dense, worked_csc):
        x = np.zeros(2)
        r = np.array([1.0, 2.0, 3.0])
        step(x, r, A, 1, 4.0)
        lhs = abs(column_dot(A, 1, r))
        assert lhs <= 1e-10 * 2.0 * np.linalg.norm(r)


def test_energy_error_sq(worked_dense, worked_csc):
    for A in (worked_dense, worked_csc):
        x = np.array([0.5, -1.0])
        assert energy_error_sq(A, x, x) == 0.0
        assert energy_error_sq(A, np.zeros(2), np.array([1.0, 1.0])) == 5.0
    B = np.eye(3)
    assert energy_error_sq(B, np.zeros(3), np.array([1.0, 2.0, 2.0])) == 9.0


def test_all_kernels_agree_across_representations():
    rng = np.random.default_rng(42)
    for m, n in [(5, 3), (12, 7), (30, 4)]:
        dense, csc = random_pair(m, n, seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(n)
        r = rng.standard_normal(m)
        np.testing.assert_allclose(column_norms_sq(dense), column_norms_sq(csc), rtol=1e-13)
        frob_dense, frob_csc = column_norms_sq(dense).sum(), column_norms_sq(csc).sum()
        assert abs(frob_dense - frob_csc) <= 1e-13 * frob_dense
        np.testing.assert_allclose(matvec(dense, x), matvec(csc, x), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(transpose_matvec(dense, r), transpose_matvec(csc, r),
                                   rtol=1e-13, atol=1e-13)
        for j in range(n):
            d1, d2 = column_dot(dense, j, r), column_dot(csc, j, r)
            assert abs(d1 - d2) <= 1e-13 * max(abs(d1), 1.0)
        r1, r2 = r.copy(), r.copy()
        axpy_column(r1, dense, 1, 0.7)
        axpy_column(r2, csc, 1, 0.7)
        np.testing.assert_allclose(r1, r2, rtol=1e-13, atol=1e-14)
        x_ref = rng.standard_normal(n)
        e1, e2 = energy_error_sq(dense, x, x_ref), energy_error_sq(csc, x, x_ref)
        assert abs(e1 - e2) <= 1e-13 * max(e1, 1e-300)


def test_csc_construction_sums_duplicates_and_drops_zeros():
    rows = np.array([0, 0, 1, 1])
    cols = np.array([0, 0, 1, 1])
    vals = np.array([1.0, 2.0, 3.0, -3.0])
    M = as_csc_matrix(sparse.coo_array((vals, (rows, cols)), shape=(2, 2)))
    assert M.nnz == 1
    assert M[0, 0] == 3.0

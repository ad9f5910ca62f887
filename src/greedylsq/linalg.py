"""Column-oriented matrix kernels.

Every kernel accepts both dense (column-major ndarray) and CSC storage
and walks one column at a time; for CSC only the stored entries of the
touched column are read or written.
"""
import numpy as np

from .validation import as_vector, check_column_index, is_sparse


def column_norms_sq(A):
    """Squared Euclidean norm of every column, as a length-n vector."""
    if is_sparse(A):
        sq = A.data * A.data
        out = np.empty(A.shape[1])
        for j in range(A.shape[1]):
            out[j] = sq[A.indptr[j]:A.indptr[j + 1]].sum()
        return out
    return (A * A).sum(axis=0)


def matvec(A, x):
    """A @ x."""
    x = as_vector(x, size=A.shape[1], name="x")
    return A @ x


def transpose_matvec(A, r):
    """A.T @ r, i.e. the dot of every column with r."""
    r = as_vector(r, size=A.shape[0], name="r")
    return A.T @ r


def column_dot(A, j, r):
    """Dot product of column j with r."""
    j = check_column_index(A, j)
    r = as_vector(r, size=A.shape[0], name="r")
    if is_sparse(A):
        lo, hi = A.indptr[j], A.indptr[j + 1]
        return float(np.dot(A.data[lo:hi], r[A.indices[lo:hi]]))
    return float(np.dot(A[:, j], r))


def axpy_column(r, A, j, alpha):
    """In place r += alpha * A[:, j]; returns r."""
    j = check_column_index(A, j)
    if r.shape[0] != A.shape[0]:
        raise ValueError(f"r has length {r.shape[0]}, expected {A.shape[0]}")
    if is_sparse(A):
        lo, hi = A.indptr[j], A.indptr[j + 1]
        r[A.indices[lo:hi]] += alpha * A.data[lo:hi]
    else:
        r += alpha * A[:, j]
    return r


def energy_error_sq(A, x, x_ref):
    """Squared energy-norm distance ||A (x - x_ref)||_2^2."""
    x = as_vector(x, size=A.shape[1], name="x")
    x_ref = as_vector(x_ref, size=A.shape[1], name="x_ref")
    v = A @ (x - x_ref)
    return float(np.dot(v, v))

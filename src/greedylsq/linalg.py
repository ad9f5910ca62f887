"""Column-oriented matrix kernels.

Every kernel accepts both dense (column-major ndarray) and CSC storage
and walks one column at a time; for CSC only the stored entries of the
touched column are read or written.
"""
import numpy as np

from .validation import as_vector, check_column_index, is_sparse


# Dense column norms of a column-major matrix are squared and summed in
# blocks of whole columns taking at most this many bytes (one column when
# a column is larger), so no m x n temporary is made.
NORM_BLOCK_BYTES = 256 * 2**10


def column_norms_sq(A):
    """Squared Euclidean norm of every column, as a length-n vector.

    Bit for bit (A * A).sum(axis=0) for dense input, and for CSC input the
    sum of each column's squared stored values taken as one slice.  The
    columns with c stored entries are summed as one gathered block.
    """
    if is_sparse(A):
        sq = A.data * A.data
        counts = np.diff(A.indptr)
        order = np.argsort(counts)
        out = np.empty(A.shape[1])
        for cols in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
            block = A.indptr[cols][:, None] + np.arange(counts[cols[0]])
            out[cols] = sq[block].sum(axis=1)
        return out
    if A.dtype != np.float64 or not A.flags.f_contiguous:
        return (A * A).sum(axis=0)
    m, n = A.shape
    width = max(1, NORM_BLOCK_BYTES // (8 * max(m, 1)))
    buf = np.empty((m, min(width, n)), order="F")
    out = np.empty(n)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        block = buf[:, :hi - lo]
        np.multiply(A[:, lo:hi], A[:, lo:hi], out=block)
        block.sum(axis=0, out=out[lo:hi])
    return out


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

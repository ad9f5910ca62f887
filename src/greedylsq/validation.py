"""Input validation helpers.

Matrices are accepted either as dense 2-D arrays (stored column-major,
because every hot kernel walks one column at a time) or as compressed
sparse column arrays.  Vectors are 1-D float64 arrays.
"""
import numpy as np
from scipy import sparse


def is_sparse(A):
    return sparse.issparse(A)


def as_dense_matrix(A):
    """Coerce to a 2-D float64 array in column-major order."""
    M = np.asfortranarray(np.asarray(A, dtype=np.float64))
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {M.shape}")
    return M


def as_csc_matrix(A):
    """Coerce to canonical CSC: float64, sorted indices, duplicates summed, no stored zeros.

    Never writes to ``A``: a CSC input may share its arrays with the result,
    so a non-canonical one is copied before it is canonicalised in place.
    """
    M = sparse.csc_array(A, dtype=np.float64)
    if not (M.has_canonical_format and M.data.all()):
        M = M.copy()
        M.sum_duplicates()  # sorts the indices first
        M.eliminate_zeros()
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {M.shape}")
    return M


def as_matrix(A):
    """Coerce to one of the two supported storage forms."""
    if is_sparse(A):
        return as_csc_matrix(A)
    return as_dense_matrix(A)


def as_vector(v, size=None, name="vector"):
    """Coerce to a 1-D float64 array, optionally checking its length."""
    w = np.asarray(v, dtype=np.float64)
    if w.ndim == 2 and 1 in w.shape:
        w = w.ravel()
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {w.shape}")
    if size is not None and w.shape[0] != size:
        raise ValueError(f"{name} has length {w.shape[0]}, expected {size}")
    return w


def check_column_index(A, j):
    n = A.shape[1]
    if not 0 <= j < n:
        raise IndexError(f"column index {j} out of range for {n} columns")
    return int(j)

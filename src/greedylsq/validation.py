"""Input validation helpers.

Matrices are accepted either as dense 2-D arrays (stored column-major,
because every hot kernel walks one column at a time) or as compressed
sparse column arrays.  Vectors are 1-D float64 arrays.  Complex input
is refused: a float64 coercion would keep only its real part.
"""
import numpy as np
from scipy import sparse

from .exceptions import UnsupportedField


def is_sparse(A):
    return sparse.issparse(A)


# Column-major storage is filled this many entries (512 KB) at a time.
ROW_BLOCK_ENTRIES = 2**16


def fill_column_major(m, n, row_block):
    """A column-major float64 m x n array whose rows start:stop hold
    ``row_block(start, stop)``, taken in order over blocks of about
    ROW_BLOCK_ENTRIES entries (at least one row each).

    A block is small enough to stay in cache while it is spread over the
    n columns, where a copy of the whole matrix at once strides through
    memory once per column.
    """
    M = np.empty((m, n), order="F")
    rows = max(1, ROW_BLOCK_ENTRIES // n)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        M[start:stop] = row_block(start, stop)
    return M


def as_dense_matrix(A):
    """Coerce to a 2-D float64 array in column-major order, the bytes of
    ``np.asfortranarray(np.asarray(A, dtype=np.float64))``.

    An F-contiguous float64 array is returned as it is.  Any other array
    of bools, integers or reals is cast and transposed in one blocked
    copy (fill_column_major), so it is copied once; other input (a nested
    list, an object or string array) is first converted as a whole.
    """
    numeric = isinstance(A, np.ndarray) and A.dtype.kind in "biuf"
    M = np.asarray(A) if numeric else np.asarray(A, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {M.shape}")
    if M.dtype == np.float64 and M.flags.f_contiguous:
        return M
    return fill_column_major(*M.shape, lambda start, stop: M[start:stop])


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
    """Coerce to one of the two supported storage forms; complex input raises UnsupportedField."""
    refuse_complex(A, "matrix")
    if is_sparse(A):
        return as_csc_matrix(A)
    return as_dense_matrix(A)


def refuse_complex(x, name):
    """Raise UnsupportedField if ``x`` (an array, a sparse matrix or a list) is complex."""
    if np.iscomplexobj(x):
        raise UnsupportedField(f"{name} is complex; only real input is supported")


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

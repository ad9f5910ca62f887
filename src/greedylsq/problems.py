"""Test-problem construction and file I/O.

Random problems use numpy's PCG64 generator seeded explicitly, so every
matrix, right-hand side and solver run regenerates bit-identically from
its seed on any platform.  Sparse matrices come in through MatrixMarket
files; benchmark inputs are described by a small plain-text manifest.
"""
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .analysis import gram_extreme_eigenvalues, gram_matrix
from .exceptions import NonFiniteValue, NullSpaceEmpty, ParseError, RankDeficient, UnsupportedField
from .linalg import matvec, transpose_matvec
from .validation import as_csc_matrix, as_matrix, as_vector, is_sparse

# Added to a base seed to draw right-hand sides from a stream independent
# of the matrix stream (seed sequences hash, so any fixed offset works).
RHS_SEED_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class LsqProblem:
    """A least-squares instance: matrix, rhs, and optional known solution.

    The one owner of the instance's contract: any 2-D array-like or scipy
    sparse matrix is stored as column-major float64 or canonical CSC, rhs
    and the known solution as float64 vectors of matching length.  Frozen;
    ``dataclasses.replace`` builds a changed problem and coerces again.
    ``density`` is derived from the stored matrix, never passed in.
    """

    matrix: object
    rhs: np.ndarray
    known_solution: np.ndarray | None = None
    density: float = field(init=False)

    def __post_init__(self):
        A = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "density", matrix_density(A))
        object.__setattr__(self, "rhs", as_vector(self.rhs, size=A.shape[0], name="rhs"))
        if self.known_solution is not None:
            object.__setattr__(self, "known_solution", as_vector(
                self.known_solution, size=A.shape[1], name="known_solution"))


def matrix_density(A):
    if is_sparse(A):
        return A.nnz / (A.shape[0] * A.shape[1])
    return 1.0


def gen_gaussian(m, n, seed):
    """Dense m x n matrix of i.i.d. standard normal entries.

    Deterministic per seed: entries come from numpy's PCG64 stream via
    its documented normal transform.
    """
    if m < 1 or n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got {m} x {n}")
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.standard_normal((m, n)))


def make_consistent(A, seed):
    """Problem with rhs = A @ x_true for a random normal x_true."""
    A = as_matrix(A)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(A.shape[1])
    return LsqProblem(matrix=A, rhs=matvec(A, x_true), known_solution=x_true)


def make_inconsistent(A, seed):
    """Problem with rhs = A @ x_true + r0, r0 a nonzero vector with A^T r0 = 0.

    r0 is the component of a random vector orthogonal to the column
    space, obtained by one Gram-matrix projection; x_true stays the unique
    least-squares solution.

    Raises:
        RankDeficient: if the Gram matrix has no Cholesky factor.
        NullSpaceEmpty: if m <= n: a matrix of full column rank then spans
            all of R^m, so no nonzero r0 exists.
    """
    A = as_matrix(A)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n)

    gram, lower = _gram_factor(A)
    if m <= n:
        raise NullSpaceEmpty(f"A^T has no null space for a {m} x {n} matrix")
    z = rng.standard_normal(m)
    r0 = z - matvec(A, cho_solve((gram, lower), transpose_matvec(A, z)))

    return LsqProblem(matrix=A, rhs=matvec(A, x_true) + r0, known_solution=x_true)


def _gram_factor(A):
    try:
        return cho_factor(gram_matrix(A), lower=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"Gram factorization failed: {exc}") from exc
    except ValueError as exc:  # cho_factor's finiteness check
        raise NonFiniteValue("the Gram matrix has a NaN or infinite entry") from exc


def reference_solution(problem):
    """Solve the normal equations A^T A x = A^T b by Cholesky.

    One refinement step is applied if the normal-equation residual
    exceeds 1e-10 relative to ||A^T b||.
    """
    A = problem.matrix
    rhs_n = transpose_matvec(A, problem.rhs)
    gram, lower = _gram_factor(A)
    x = cho_solve((gram, lower), rhs_n)
    resid = rhs_n - transpose_matvec(A, matvec(A, x))
    scale = np.linalg.norm(rhs_n)
    if scale > 0.0 and np.linalg.norm(resid) > 1e-10 * scale:
        x = x + cho_solve((gram, lower), resid)
    return x


def assert_full_column_rank(A):
    """Return the Euclidean condition number sqrt(lambda_max / lambda_min),
    raising RankDeficient or NonFiniteValue as gram_extreme_eigenvalues does."""
    lam_min, lam_max = gram_extreme_eigenvalues(A)
    return float(np.sqrt(lam_max / lam_min))


# ---------------------------------------------------------------------------
# MatrixMarket I/O
# ---------------------------------------------------------------------------

_MM_FORMATS = ("coordinate", "array")
_MM_FIELDS = ("real", "integer", "pattern", "complex")
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def load_matrix_market(path):
    """Read a MatrixMarket file into canonical CSC storage.

    Coordinate and array formats with real, integer or pattern fields are
    accepted; symmetric and skew-symmetric storage is expanded to full,
    pattern entries get unit values, and duplicate coordinates are summed.

    Raises:
        ParseError: malformed content, with the offending line number.
        UnsupportedField: complex or hermitian files.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", 1)

    header = lines[0].split()
    if len(header) != 5 or not header[0].lower().startswith("%%matrixmarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    _, obj, mm_format, mm_field, mm_symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", 1)
    if mm_format not in _MM_FORMATS:
        raise ParseError(f"unknown format {mm_format!r}", 1)
    if mm_field not in _MM_FIELDS:
        raise ParseError(f"unknown field {mm_field!r}", 1)
    if mm_symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unknown symmetry {mm_symmetry!r}", 1)
    if mm_field == "complex" or mm_symmetry == "hermitian":
        raise UnsupportedField("complex-valued matrices are not supported")
    if mm_format == "array" and mm_field == "pattern":
        raise ParseError("array format cannot use the pattern field", 1)

    # Line numbers of everything past comments and blanks.
    body = [no for no, ln in enumerate(lines[1:], start=2) if (s := ln.lstrip()) and s[0] != "%"]
    if not body:
        raise ParseError("missing size line", len(lines))

    size_no, entry_nos = body[0], body[1:]
    size_line = lines[size_no - 1]
    entries = [lines[no - 1] for no in entry_nos]
    if mm_format == "coordinate":
        rows, cols, vals, shape = _parse_coordinate(size_no, size_line, entry_nos, entries, mm_field)
    else:
        rows, cols, vals, shape = _parse_array(size_no, size_line, entry_nos, entries, mm_symmetry)

    rows, cols, vals = _expand_symmetry(rows, cols, vals, mm_symmetry, size_no)
    M = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsc()
    return as_csc_matrix(M)


# Columns of a coordinate entry line; an array line holds the value alone.
_ENTRY_FIELDS = [("i", np.int64), ("j", np.int64), ("v", np.float64)]


def _read_columns(entries, fields):
    """Parse every entry line in one call, one array per field.

    Returns None when a line has the wrong number of fields or a token
    does not parse; the caller then rescans line by line to name it.
    numpy's parsers accept no token that ``int`` and ``float`` reject,
    and round every value as ``float`` does.
    """
    if not entries:
        return None
    try:
        return np.loadtxt(entries, dtype=fields, comments=None, ndmin=1, unpack=True)
    except ValueError:
        return None


def _parse_coordinate(size_no, size_line, entry_nos, entries, mm_field):
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError("coordinate size line needs 'rows cols nnz'", size_no)
    try:
        m, n, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", size_no) from None
    if m < 1 or n < 1 or nnz < 0:
        raise ParseError(f"bad dimensions {m} x {n} with {nnz} entries", size_no)
    if len(entries) != nnz:
        where = entry_nos[-1] if entry_nos else size_no
        raise ParseError(f"expected {nnz} entries, found {len(entries)}", where)

    pattern = mm_field == "pattern"
    columns = _read_columns(entries, _ENTRY_FIELDS[:2] if pattern else _ENTRY_FIELDS)
    if columns is not None:
        i, j = columns[0], columns[1]
        if np.all((1 <= i) & (i <= m) & (1 <= j) & (j <= n)):
            return i - 1, j - 1, np.ones(nnz) if pattern else columns[2], (m, n)

    want = 2 if pattern else 3
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    for k, (no, ln) in enumerate(zip(entry_nos, entries)):
        parts = ln.split()
        if len(parts) != want:
            raise ParseError(f"expected {want} fields, got {len(parts)}", no)
        try:
            i, j = int(parts[0]), int(parts[1])
            v = 1.0 if pattern else float(parts[2])
        except ValueError:
            raise ParseError(f"bad entry {ln!r}", no) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) outside {m} x {n}", no)
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
    return rows, cols, vals, (m, n)


def _parse_array(size_no, size_line, entry_nos, entries, mm_symmetry):
    parts = size_line.split()
    if len(parts) != 2:
        raise ParseError("array size line needs 'rows cols'", size_no)
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", size_no) from None
    if m < 1 or n < 1:
        raise ParseError(f"bad dimensions {m} x {n}", size_no)
    if mm_symmetry != "general" and m != n:
        raise ParseError(f"{mm_symmetry} storage needs a square matrix", size_no)

    # Values are stored column by column: all of them, the lower triangle
    # (symmetric) or the strict lower triangle (skew-symmetric).
    count = {"general": m * n, "symmetric": n * (n + 1) // 2, "skew-symmetric": n * (n - 1) // 2}
    if len(entries) != count[mm_symmetry]:
        where = entry_nos[-1] if entry_nos else size_no
        raise ParseError(f"expected {count[mm_symmetry]} values, found {len(entries)}", where)
    cols, rows = np.indices((n, m)).reshape(2, -1)
    if mm_symmetry != "general":
        keep = rows >= cols + (mm_symmetry == "skew-symmetric")
        rows, cols = rows[keep], cols[keep]

    columns = _read_columns(entries, _ENTRY_FIELDS[2:])
    if columns is not None:
        return rows, cols, columns[0], (m, n)

    vals = np.empty(len(entries))
    for k, (no, ln) in enumerate(zip(entry_nos, entries)):
        parts = ln.split()
        if len(parts) != 1:
            raise ParseError(f"expected one value per line, got {ln!r}", no)
        try:
            vals[k] = float(parts[0])
        except ValueError:
            raise ParseError(f"bad value {ln!r}", no) from None
    return rows, cols, vals, (m, n)


def _expand_symmetry(rows, cols, vals, mm_symmetry, size_no):
    if mm_symmetry == "general":
        return rows, cols, vals
    off = rows != cols
    if mm_symmetry == "skew-symmetric" and np.any(vals[~off] != 0.0):
        raise ParseError("skew-symmetric matrix has a nonzero diagonal entry", size_no)
    sign = -1.0 if mm_symmetry == "skew-symmetric" else 1.0
    return (
        np.concatenate([rows, cols[off]]),
        np.concatenate([cols, rows[off]]),
        np.concatenate([vals, sign * vals[off]]),
    )


def save_matrix_market(A, path):
    """Write a matrix back out: coordinate format for sparse storage,
    array format for dense.  Full float precision, so a load round-trips
    exactly."""
    if is_sparse(A):
        # Canonical CSC holds its entries column by column with rows
        # ascending, the order the file lists them in.
        A = as_csc_matrix(A)
        coo = A.tocoo()
        kind, size = "coordinate", f"{A.shape[0]} {A.shape[1]} {A.nnz}"
        body = "".join("%d %d %.17g\n" % entry for entry in zip(
            (coo.row + 1).tolist(), (coo.col + 1).tolist(), coo.data.tolist()))
    else:
        kind, size = "array", f"{A.shape[0]} {A.shape[1]}"
        body = "".join("%.17g\n" % v for v in np.asarray(A).ravel(order="F").tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {kind} real general\n{size}\n{body}")


def load_vector(path):
    """Read a one-value-per-line vector file ('#' and '%' start comments)."""
    values = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for no, ln in enumerate(fh, start=1):
            text = ln.strip()
            if not text or text.startswith(("#", "%")):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(f"bad vector entry {text!r}", no) from None
    if not values:
        raise ParseError("vector file has no values", 1)
    return np.asarray(values)


def save_vector(v, path):
    with open(path, "w", encoding="ascii") as fh:
        for value in np.asarray(v, dtype=np.float64):
            fh.write(f"{value:.17g}\n")


# ---------------------------------------------------------------------------
# Experiment manifests
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    """One benchmark row: where the matrix comes from and how rhs is built."""

    label: str
    kind: str  # "random" or "file"
    rows: int = 0
    cols: int = 0
    path: str = ""
    consistent: bool = True
    seed: int | None = None


def load_manifest(path):
    """Parse a manifest: one experiment per line.

    Line format (whitespace separated, '#' starts a comment)::

        label  random:MxN | file:PATH  consistent|inconsistent  [seed]

    File paths are resolved relative to the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for no, ln in enumerate(fh, start=1):
            text = ln.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) not in (3, 4):
                raise ParseError("expected 'label matrix consistency [seed]'", no)
            label, matrix_spec, consistency = parts[0], parts[1], parts[2]
            if consistency not in ("consistent", "inconsistent"):
                raise ParseError(f"consistency must be consistent|inconsistent, got {consistency!r}", no)
            seed = None
            if len(parts) == 4:
                try:
                    seed = int(parts[3])
                except ValueError:
                    raise ParseError(f"bad seed {parts[3]!r}", no) from None
                if seed < 0:
                    raise ParseError(f"seed {seed} must be >= 0", no)
            entry = ManifestEntry(label=label, kind="", consistent=consistency == "consistent", seed=seed)
            if matrix_spec.startswith("random:"):
                dims = matrix_spec[len("random:"):].lower().split("x")
                if len(dims) != 2:
                    raise ParseError(f"bad random spec {matrix_spec!r}; want random:MxN", no)
                try:
                    entry.rows, entry.cols = int(dims[0]), int(dims[1])
                except ValueError:
                    raise ParseError(f"bad random spec {matrix_spec!r}", no) from None
                if not entry.rows >= entry.cols >= 1:
                    raise ParseError(f"random spec {matrix_spec!r} needs M >= N >= 1", no)
                entry.kind = "random"
            elif matrix_spec.startswith("file:"):
                entry.kind = "file"
                raw = matrix_spec[len("file:"):]
                entry.path = raw if os.path.isabs(raw) else os.path.join(base, raw)
            else:
                raise ParseError(f"matrix spec {matrix_spec!r} must start with random: or file:", no)
            entries.append(entry)
    if not entries:
        raise ParseError("manifest lists no experiments", 1)
    return entries

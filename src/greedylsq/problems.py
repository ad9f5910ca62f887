"""Test-problem construction and file I/O: MatrixMarket matrices, vector
files and benchmark manifests.

Random draws use numpy's PCG64 generator seeded explicitly, so they
repeat bit for bit on any platform.  A right-hand side A x_true goes
through BLAS, so it repeats bit for bit only on one numpy/BLAS build and
CPU.
"""
import os
import re
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .analysis import gram_extreme_eigenvalues, gram_matrix
from .exceptions import NullSpaceEmpty, ParseError, RankDeficient, UnsupportedField
from .linalg import column_norms_sq, matvec, transpose_matvec
from .validation import as_csc_matrix, as_matrix, as_vector, is_sparse

# Added to a base seed to draw right-hand sides from a stream independent
# of the matrix stream (seed sequences hash, so any fixed offset works).
RHS_SEED_OFFSET = 0x9E3779B9

# gen_gaussian draws its rows in blocks of about this many entries (512 KB).
GAUSSIAN_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class LsqProblem:
    """A least-squares instance: matrix, rhs, and optional known solution.

    Any 2-D array-like or scipy sparse matrix is stored as column-major
    float64 or canonical CSC, rhs and the known solution as float64
    vectors of matching length.  Frozen, and its arrays must not be
    written to after construction: the views below are computed from
    them on first use and kept.  ``dataclasses.replace`` coerces again
    and starts with no cached views, as does a pickled or copied problem.
    ``density`` is derived from the stored matrix.
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

    def __getstate__(self):
        # A pickled or copied problem starts with no cached views, as
        # dataclasses.replace does, so the views it builds are read-only.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # Read-only views, each computed on first use and kept with the problem.
    @cached_property
    def column_norms_sq(self):
        return _read_only(column_norms_sq(self.matrix))

    @cached_property
    def atb(self):
        return _read_only(transpose_matvec(self.matrix, self.rhs))

    @cached_property
    def gram(self):
        return _read_only(gram_matrix(self.matrix))


def _read_only(a):
    a.flags.writeable = False
    return a


def matrix_density(A):
    if is_sparse(A):
        return A.nnz / (A.shape[0] * A.shape[1])
    return 1.0


def gen_gaussian(m, n, seed):
    """Dense column-major m x n matrix of i.i.d. standard normal entries,
    bit for bit np.random.default_rng(seed).standard_normal((m, n)), drawn
    in row blocks so that no row-major copy of the whole matrix is made."""
    if m < 1 or n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got {m} x {n}")
    rng = np.random.default_rng(seed)
    A = np.empty((m, n), order="F")
    rows = max(1, GAUSSIAN_BLOCK_ENTRIES // n)
    for i in range(0, m, rows):
        A[i:i + rows] = rng.standard_normal((min(rows, m - i), n))
    return A


def make_consistent(A, seed):
    """Problem with rhs = A @ x_true for a random normal x_true."""
    A = as_matrix(A)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(A.shape[1])
    return LsqProblem(matrix=A, rhs=matvec(A, x_true), known_solution=x_true)


def make_inconsistent(A, seed):
    """Problem with rhs = A @ x_true + r0, r0 a nonzero vector with A^T r0 = 0,
    so x_true stays the unique least-squares solution.

    Raises:
        NullSpaceEmpty: if m <= n, checked first: a full-rank A then spans R^m.
        RankDeficient: if A fails the one rank test (gram_extreme_eigenvalues).
    """
    A = as_matrix(A)
    m, n = A.shape
    if m <= n:
        raise NullSpaceEmpty(f"an inconsistent problem needs m > n, got a {m} x {n} matrix")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n)
    G = _read_only(gram_matrix(A))
    factor = _gram_factor(G)
    z = rng.standard_normal(m)
    r0 = z - matvec(A, cho_solve(factor, transpose_matvec(A, z)))
    problem = LsqProblem(matrix=A, rhs=matvec(A, x_true) + r0, known_solution=x_true)
    vars(problem)["gram"] = G  # the slot of the cached view
    return problem


def synthesize_problem(A, seed, consistent):
    """The problem on A with a synthesized rhs, as bench and the CLI build
    it: make_consistent, or make_inconsistent, on the rhs stream
    seed + RHS_SEED_OFFSET, independent of a matrix drawn from ``seed``."""
    make = make_consistent if consistent else make_inconsistent
    return make(A, seed + RHS_SEED_OFFSET)


def _gram_factor(G):
    gram_extreme_eigenvalues(G)  # the one rank test decides; cho_factor's own failure stays handled
    try:
        return cho_factor(G, lower=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"Gram factorization failed: {exc}") from exc


def reference_solution(problem):
    """Solve the normal equations A^T A x = A^T b by Cholesky, with one
    refinement step if the normal-equation residual exceeds 1e-10 relative
    to ||A^T b||.  Raises RankDeficient if A fails the rank test of
    gram_extreme_eigenvalues."""
    A = problem.matrix
    rhs_n = problem.atb
    factor = _gram_factor(problem.gram)
    x = cho_solve(factor, rhs_n)
    resid = rhs_n - transpose_matvec(A, matvec(A, x))
    scale = np.linalg.norm(rhs_n)
    if scale > 0.0 and np.linalg.norm(resid) > 1e-10 * scale:
        x = x + cho_solve(factor, resid)
    return x


def assert_full_column_rank(A):
    """Return the Euclidean condition number sqrt(lambda_max / lambda_min),
    raising RankDeficient or NonFiniteValue as gram_extreme_eigenvalues does."""
    lam_min, lam_max = gram_extreme_eigenvalues(gram_matrix(A))
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
    lines, nos = _numbered_lines(path, "%")
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

    # The header is a comment line, so the size line is the first of nos.
    if not nos:
        raise ParseError("missing size line", len(lines))
    size_no, entry_nos = nos[0], nos[1:]
    m, n, *nnz = _read_size(lines[size_no - 1], size_no, mm_format)
    if mm_symmetry != "general" and m != n:
        raise ParseError(f"{mm_symmetry} storage needs a square matrix", size_no)

    if mm_format == "coordinate":
        _check_count(entry_nos, nnz[0], "entries", size_no)
        pattern = mm_field == "pattern"
        i, j, *v = _read_columns(entry_nos, lines, _ENTRY_FIELDS[:2] if pattern else _ENTRY_FIELDS, "entry")
        outside = (i < 1) | (i > m) | (j < 1) | (j > n)
        if outside.any():
            k = outside.argmax()
            raise ParseError(f"index ({i[k]}, {j[k]}) outside {m} x {n}", entry_nos[k])
        rows, cols, vals = i - 1, j - 1, v[0] if v else np.ones(len(i))
    else:
        # Values are stored column by column: all of them, the lower triangle
        # (symmetric) or the strict lower triangle (skew-symmetric).
        count = {"general": m * n, "symmetric": n * (n + 1) // 2, "skew-symmetric": n * (n - 1) // 2}
        _check_count(entry_nos, count[mm_symmetry], "values", size_no)
        cols, rows = np.indices((n, m)).reshape(2, -1)
        if mm_symmetry != "general":
            keep = rows >= cols + (mm_symmetry == "skew-symmetric")
            rows, cols = rows[keep], cols[keep]
        (vals,) = _read_columns(entry_nos, lines, _ENTRY_FIELDS[2:], "value")

    rows, cols, vals = _expand_symmetry(rows, cols, vals, mm_symmetry, entry_nos)
    try:
        return as_csc_matrix(sparse.coo_array((vals, (rows, cols)), shape=(m, n)).tocsc())
    except MemoryError:  # CSC storage holds n + 1 column pointers, whatever the entries
        raise ParseError(f"a {m} x {n} matrix does not fit in memory", size_no) from None


def _numbered_lines(path, comments):
    """The file's lines, and the 1-based numbers of those that hold data:
    neither blank nor starting (past blanks) with a character of ``comments``."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    return lines, [no for no, ln in enumerate(lines, start=1) if (s := ln.lstrip()) and s[0] not in comments]


# The largest size a file may declare: scipy indexes with int64.
_SIZE_MAX = np.iinfo(np.int64).max


def _read_size(line, no, mm_format):
    """The size line's integers: 'rows cols nnz' (coordinate) or 'rows cols' (array)."""
    names = "rows cols nnz" if mm_format == "coordinate" else "rows cols"
    parts = line.split()
    if len(parts) != len(names.split()):
        raise ParseError(f"{mm_format} size line needs {names!r}", no)
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"bad size line {line.strip()!r}", no) from None
    m, n, *nnz = sizes
    if min(m, n) < 1 or min(sizes) < 0 or max(sizes) > _SIZE_MAX:
        entries = f" with {nnz[0]} entries" if nnz else ""
        raise ParseError(f"bad dimensions {m} x {n}{entries}", no)
    return sizes


def _check_count(nos, want, noun, size_no):
    """Raise at the last data line (the size line if none) unless there are ``want``."""
    if len(nos) != want:
        raise ParseError(f"expected {want} {noun}, found {len(nos)}", nos[-1] if nos else size_no)


# Columns of a coordinate entry line; an array or vector line holds the value alone.
_ENTRY_FIELDS = [("i", np.int64), ("j", np.int64), ("v", np.float64)]


def _read_columns(nos, lines, fields, noun):
    """Parse the numbered lines into one array per field.

    Accepts what ``int`` and ``float`` accept, and names the first line
    they cannot read.  numpy parses the whole body in one call; only if it
    refuses (underscores between digits, say) is it rescanned line by line.
    """
    if nos:  # np.loadtxt warns on an empty body
        try:
            return np.loadtxt([lines[no - 1] for no in nos], dtype=fields, comments=None, ndmin=1, unpack=True)
        except ValueError:
            pass
    columns = [np.empty(len(nos), dtype=dtype) for _, dtype in fields]
    parsers = [int if dtype is np.int64 else float for _, dtype in fields]
    for k, no in enumerate(nos):
        text = lines[no - 1].strip()
        parts = text.split()
        if len(parts) != len(fields):
            raise ParseError(f"expected {len(fields)} fields, got {len(parts)}" if len(fields) > 1
                             else f"expected one value per line, got {text!r}", no)
        try:
            for column, parse, part in zip(columns, parsers, parts):
                column[k] = parse(part)
        except (ValueError, OverflowError):  # an int beyond int64 does not store
            raise ParseError(f"bad {noun} {text!r}", no) from None
    return columns


def _expand_symmetry(rows, cols, vals, mm_symmetry, nos):
    """The full matrix's entries; nos numbers the lines of the stored ones."""
    if mm_symmetry == "general":
        return rows, cols, vals
    off = rows != cols
    if mm_symmetry == "skew-symmetric" and (diagonal := ~off & (vals != 0.0)).any():
        raise ParseError("skew-symmetric matrix has a nonzero diagonal entry", nos[diagonal.argmax()])
    sign = -1.0 if mm_symmetry == "skew-symmetric" else 1.0
    return (
        np.concatenate([rows, cols[off]]),
        np.concatenate([cols, rows[off]]),
        np.concatenate([vals, sign * vals[off]]),
    )


def _value_lines(values):
    """One line per value with all 17 significant digits, so a load round-trips exactly."""
    return "".join("%.17g\n" % v for v in values.tolist())


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
        body = _value_lines(np.asarray(A).ravel(order="F"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {kind} real general\n{size}\n{body}")


def load_vector(path):
    """Read a one-value-per-line vector file ('#' and '%' start comments)."""
    lines, nos = _numbered_lines(path, "#%")
    if not nos:
        raise ParseError("vector file has no values", 1)
    return _read_columns(nos, lines, _ENTRY_FIELDS[2:], "vector entry")[0]


def save_vector(v, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_value_lines(np.asarray(v, dtype=np.float64)))


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

    Labels are unique and hold only ASCII letters, digits, '.', '_' and
    '-', so each names its own ``curve_<label>.csv`` and table cell.
    File paths are resolved relative to the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    label_nos = {}
    lines, nos = _numbered_lines(path, "#")
    for no in nos:
        parts = lines[no - 1].split("#", 1)[0].split()
        if len(parts) not in (3, 4):
            raise ParseError("expected 'label matrix consistency [seed]'", no)
        label, matrix_spec, consistency = parts[0], parts[1], parts[2]
        if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
            raise ParseError(f"label {label!r} may hold only ASCII letters, digits, '.', '_' and '-'", no)
        if label in label_nos:
            raise ParseError(f"label {label!r} repeats the label of line {label_nos[label]}", no)
        label_nos[label] = no
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

"""Test-problem construction and file I/O: MatrixMarket matrices, vector
files and benchmark manifests.

Random draws use numpy's PCG64 generator seeded explicitly, so they
repeat bit for bit on any platform.  A right-hand side A x_true goes
through BLAS, so it repeats bit for bit only on one numpy/BLAS build and
CPU.
"""
import io
import os
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, islice

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .analysis import gram_extreme_eigenvalues, gram_matrix
from .exceptions import NullSpaceEmpty, ParseError, RankDeficient, UnsupportedField
from .linalg import column_norms_sq, matvec, transpose_matvec
from .validation import as_csc_matrix, as_matrix, as_vector, fill_column_major, is_sparse, refuse_complex

# Added to a base seed to draw right-hand sides from a stream independent
# of the matrix stream (seed sequences hash, so any fixed offset works).
RHS_SEED_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class LsqProblem:
    """A least-squares instance: matrix, rhs, and optional known solution.

    Any real 2-D array-like or scipy sparse matrix is stored as
    column-major float64 or canonical CSC, rhs and the known solution as
    float64 vectors of matching length; complex input raises
    UnsupportedField.  Frozen, and its arrays must not be
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
        refuse_complex(self.rhs, "rhs")
        object.__setattr__(self, "rhs", as_vector(self.rhs, size=A.shape[0], name="rhs"))
        if self.known_solution is not None:
            refuse_complex(self.known_solution, "known_solution")
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
    one row block of fill_column_major at a time, so that no row-major
    copy of the whole matrix is made."""
    if m < 1 or n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got {m} x {n}")
    rng = np.random.default_rng(seed)
    return fill_column_major(m, n, lambda start, stop: rng.standard_normal((stop - start, n)))


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

    The file is read once, as bytes, and never decompressed: a ``.gz``
    file is read as it stands.  The package's own reader parses the
    header and the size line.  scipy's C++ reader (``scipy.io.mmread``)
    then parses any body whose bytes pass the shape check of
    ``_scipy_columns``, whatever the field and symmetry; every other body,
    and every body scipy refuses, is read line by line, naming the line at
    fault.  Both give the same CSC arrays bit for bit.

    Raises:
        ParseError: malformed content, with the offending line number.
        UnsupportedField: complex or hermitian files.
    """
    data = _read_bytes(path)
    m, n, size_no, rows, cols, vals = _read_entries(data)
    try:
        return as_csc_matrix(sparse.coo_array((vals, (rows, cols)), shape=(m, n)).tocsc())
    except MemoryError:  # CSC storage holds n + 1 column pointers, whatever the entries
        raise ParseError(f"a {m} x {n} matrix does not fit in memory", size_no) from None


def _read_entries(data):
    """(m, n, size_no, rows, cols, vals) of the full matrix a file's bytes
    hold, with 0-based int64 indices, as both body parsers give them;
    raises on any fault, naming its line."""
    lines, body_start = _head_lines(data)
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

    # The header is a comment line, so the size line is the first data line.
    size_no = next(_data_line_numbers(lines, "%"), None)
    if size_no is None:
        raise ParseError("missing size line", len(lines))
    m, n, *nnz = sizes = _read_size(lines[size_no - 1], size_no, mm_format)
    if mm_symmetry != "general" and m != n:
        raise ParseError(f"{mm_symmetry} storage needs a square matrix", size_no)

    def read_body(fields, noun, count, plural):
        # A stored triangle of an array is read as a 'count 1' column.
        size = " ".join(map(str, sizes)) if mm_format == "coordinate" or mm_symmetry == "general" else None
        columns = None if body_start is None else _scipy_columns(data, body_start, fields, count, size)
        return columns or _read_columns(_text_lines(data), size_no, "%", fields, noun, (count, plural))

    def entry_line(k):
        """The number of the k-th line past the size line that holds data."""
        return next(islice(_data_line_numbers(_text_lines(data), "%", size_no), k, None))

    if mm_format == "coordinate":
        fields = _ENTRY_FIELDS[:2] if mm_field == "pattern" else _ENTRY_FIELDS
        i, j, *v = read_body(fields, "entry", nnz[0], "entries")
        outside = (i < 0) | (i >= m) | (j < 0) | (j >= n)
        if outside.any():
            k = outside.argmax()
            # The file's 1-based pair; an array sum wraps back as the shift to 0-based wrapped.
            file_i, file_j = np.array([i[k], j[k]]) + 1
            raise ParseError(f"index ({file_i}, {file_j}) outside {m} x {n}", entry_line(k))
        rows, cols, vals = i, j, v[0] if v else np.ones(len(i))
    else:
        # Values are stored column by column: all of them, the lower triangle
        # (symmetric) or the strict lower triangle (skew-symmetric).
        count = {"general": m * n, "symmetric": n * (n + 1) // 2, "skew-symmetric": n * (n - 1) // 2}
        (vals,) = read_body(_ENTRY_FIELDS[2:], "value", count[mm_symmetry], "values")
        cols, rows = np.indices((n, m)).reshape(2, -1)
        if mm_symmetry != "general":
            keep = rows >= cols + (mm_symmetry == "skew-symmetric")
            rows, cols = rows[keep], cols[keep]

    return m, n, size_no, *_expand_symmetry(rows, cols, vals, mm_symmetry, entry_line)


# Bytes that end a line for str.splitlines (a CR only when no LF follows
# it) or that str.strip reads as blank, where a split at LF and
# bytes.strip do not.
_ODD_HEAD_BYTE = re.compile(rb"[\x0b\x0c\x1c-\x1f]|\r(?!\n)")


def _head_lines(data):
    """The lines of a file's bytes up to its size line (its first data
    line past the header), as _text_lines splits them, and the offset of
    the body past them.  If the head holds a byte that str.splitlines or
    str.strip reads otherwise than a split at LF and bytes.strip do, all
    the file's lines and None."""
    start = data.find(b"\n") + 1 or len(data)  # past the header
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        text, start = data[start:end].lstrip(), end
        if text and not text.startswith(b"%"):
            break
    if _ODD_HEAD_BYTE.search(data, 0, start):
        return _text_lines(data), None
    return _text_lines(data[:start]), start


# The shape of a body byte: '0' for a digit, itself for another byte of a
# number or a line, 'x' for any other, so that float() refuses it.
_SHAPE_OF_BYTE = bytes(ord("0") if 0x30 <= b <= 0x39 else b if b in b"+-.eE \t\r\n" else ord("x")
                       for b in range(256))
# The body's shapes are taken this many bytes at a time, so that no list
# of all its lines is held.
_SHAPE_CHUNK_BYTES = 2**18


def _scipy_columns(data, start, fields, count=None, size=None):
    """What _read_columns parses from the body data[start:], ``count``
    lines of ``fields`` (0-based indices), read by scipy's parser; or None
    to leave the body to _read_columns.  A ``count`` of None, for a vector
    file, is the body's words, counted only once the body passes the check.

    scipy reads '1.2.3' as 1.2 and '1e' as 1, '1_0' as 1 and '0x10' as 0,
    skips a fourth number on an entry line, accepts values in a pattern
    file and reads a lone CR as a space.  So it is given only a body
    whose lines are blank or hold one word per field, digit-only for an
    index and read by ``float`` for a value not led by '+' (which scipy
    refuses), with a CR only right before an LF.  It reads the body under
    a canonical head: 'coordinate real|pattern general' with ``size``, or
    'array real general' with ``size`` or else 'count 1'.  A file whose
    head is that one already is handed over as it stands, with no copy.
    No body of fewer bytes than values reaches scipy, which allocates the
    values before it reads them (and kills the process on an array of
    none).  Any exception it raises leaves the body to _read_columns,
    which names the fault and its line.
    """
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n") or not _body_has_shape(data, start, fields):
        return None
    if count is None:
        count = len(data.split())  # past the check, each line that holds data holds one word
    if not 0 < count <= len(data) - start:
        return None
    kind = {3: "coordinate real", 2: "coordinate pattern", 1: "array real"}[len(fields)]
    head = f"%%MatrixMarket matrix {kind} general\n{size or f'{count} 1'}\n".encode()
    from scipy.io import mmread  # imported here: 20 ms and 1 MB that only this needs
    try:
        M = mmread(io.BytesIO(data if data[:start] == head else head + data[start:]))
    except Exception:  # noqa: BLE001 - _read_columns names the fault
        return None
    if len(fields) == 1:
        return [M.ravel(order="F")]  # stored column by column
    return [M.row.astype(np.int64), M.col.astype(np.int64), M.data][:len(fields)]


def _body_has_shape(data, start, fields):
    """Whether each line of data[start:] is blank or holds one word per
    field: digits for an index, a number ``float`` reads for a value, not
    led by '+'."""
    shapes = set()
    while start < len(data):
        end = data.find(b"\n", start + _SHAPE_CHUNK_BYTES) + 1 or len(data)
        shapes.update(data[start:end].translate(_SHAPE_OF_BYTE).split(b"\n"))
        start = end
    for words in map(bytes.split, shapes):
        if not words:
            continue
        if len(words) != len(fields):
            return False
        for word, (_, dtype) in zip(words, fields):
            if dtype is np.int64:
                if not word.isdigit():
                    return False
                continue
            if word.startswith(b"+"):
                return False
            try:
                float(word)
            except ValueError:
                return False
    return True


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _text_lines(data):
    """The lines of a file's bytes; a byte outside ASCII reads as U+FFFD."""
    return data.decode("ascii", errors="replace").splitlines()


def _data_line_numbers(lines, comments, start=0):
    """The 1-based numbers of the lines past the first ``start`` that hold
    data: neither blank nor starting (past blanks) with a character of
    ``comments``.  A generator, so the size line is found without
    numbering the body."""
    return (no for no, ln in enumerate(islice(lines, start, None), start + 1)
            if (s := ln.lstrip()) and s[0] not in comments)


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


# Columns of a coordinate entry line; an array or vector line holds the value alone.
_ENTRY_FIELDS = [("i", np.int64), ("j", np.int64), ("v", np.float64)]


def _read_columns(lines, start, comments, fields, noun, count=None):
    """Parse the data lines past the first ``start`` into one array per
    field, line by line, an index field's 1-based values stored 0-based.
    Accepts what ``int`` and ``float`` accept, and names the first line
    they cannot read, or for ``count = (want, plural)`` the last data line
    unless there are ``want``."""
    nos = list(_data_line_numbers(lines, comments, start))
    if count is not None and len(nos) != count[0]:
        raise ParseError(f"expected {count[0]} {count[1]}, found {len(nos)}", nos[-1] if nos else start)
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
    for column, (_, dtype) in zip(columns, fields):
        if dtype is np.int64:
            column -= 1  # int64's least value wraps to its greatest: still outside
    return columns


def _expand_symmetry(rows, cols, vals, mm_symmetry, entry_line):
    """The full matrix's entries; entry_line(k) numbers the line of the k-th stored one."""
    if mm_symmetry == "general":
        return rows, cols, vals
    off = rows != cols
    if mm_symmetry == "skew-symmetric" and (diagonal := ~off & (vals != 0.0)).any():
        raise ParseError("skew-symmetric matrix has a nonzero diagonal entry", entry_line(diagonal.argmax()))
    sign = -1.0 if mm_symmetry == "skew-symmetric" else 1.0
    return (
        np.concatenate([rows, cols[off]]),
        np.concatenate([cols, rows[off]]),
        np.concatenate([vals, sign * vals[off]]),
    )


# The writers format this many entries in one % call.
_WRITE_BLOCK_ENTRIES = 2**14


def _write_lines(fh, line_format, columns):
    """One line_format line per entry of the columns, all 17 significant
    digits of a value, so a load round-trips exactly."""
    for start in range(0, len(columns[0]), _WRITE_BLOCK_ENTRIES):
        block = [column[start:start + _WRITE_BLOCK_ENTRIES].tolist() for column in columns]
        fh.write(line_format * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def save_matrix_market(A, path):
    """Write a matrix back out: coordinate format for sparse storage,
    array format for dense.  Full float precision, so a load round-trips
    exactly.  ``A`` is coerced as ``as_matrix`` does before the file is
    opened, so a refused matrix leaves the file as it was."""
    A = as_matrix(A)
    if is_sparse(A):
        # Canonical CSC holds its entries column by column with rows
        # ascending, the order the file lists them in.
        coo = A.tocoo()
        kind, size = "coordinate", f"{A.shape[0]} {A.shape[1]} {A.nnz}"
        line_format, columns = "%d %d %.17g\n", (coo.row + 1, coo.col + 1, coo.data)
    else:
        kind, size = "array", f"{A.shape[0]} {A.shape[1]}"
        line_format, columns = "%.17g\n", (A.ravel(order="F"),)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {kind} real general\n{size}\n")
        _write_lines(fh, line_format, columns)


def load_vector(path):
    """Read a one-value-per-line vector file ('#' and '%' start comments).
    scipy's parser reads a body that passes the check of _scipy_columns."""
    data = _read_bytes(path)
    columns = _scipy_columns(data, 0, _ENTRY_FIELDS[2:])
    # scipy reads '-0' in an array body as 0.0, and a vector keeps its zeros.
    if columns is None or not columns[0].all() and b"-" in data:
        columns = _read_columns(_text_lines(data), 0, "#%", _ENTRY_FIELDS[2:], "vector entry")
    (values,) = columns
    if not len(values):
        raise ParseError("vector file has no values", 1)
    return values


def save_vector(v, path):
    """Write one value per line; ``v`` is coerced as ``as_vector`` does
    before the file is opened, and complex input raises UnsupportedField."""
    refuse_complex(v, "vector")
    v = as_vector(v)
    with open(path, "w", encoding="ascii") as fh:
        _write_lines(fh, "%.17g\n", (v,))


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
    lines = _text_lines(_read_bytes(path))
    for no in _data_line_numbers(lines, "#"):
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

"""Independent brute-force oracles used only by the tests.

Everything here is written with plain Python loops and elementary
formulas so it shares no code path with the package implementation,
except the ``ref_*`` functions at the end: those are the package's
earlier selection code and MatrixMarket and vector file I/O, kept
verbatim so a faster selection can be checked bit for bit, rng state
included, and a faster reader or writer byte for byte, refusals
included, against what it replaces.
"""
import math

import numpy as np
from scipy import sparse

from greedylsq.exceptions import AllZeroGradient, ParseError, UnsupportedField, ZeroColumn
from greedylsq.validation import as_csc_matrix, is_sparse


def brute_ggs_select(s, norms, tie_tol):
    """Reference two-stage greedy selection by explicit scan."""
    n = len(s)
    s_max = max(abs(float(v)) for v in s)
    candidates = [j for j in range(n) if abs(float(s[j])) >= (1.0 - tie_tol) * s_max]
    best_j = candidates[0]
    best_ratio = float(s[best_j]) ** 2 / float(norms[best_j])
    for j in candidates[1:]:
        ratio = float(s[j]) ** 2 / float(norms[j])
        if ratio > best_ratio:
            best_j, best_ratio = j, ratio
    return best_j, candidates


def brute_grcd_set(s, norms, frob_sq):
    """Reference threshold set as an explicit scan; returns (members, threshold)."""
    n = len(s)
    s_norm_sq = sum(float(v) ** 2 for v in s)
    ratios = [float(s[j]) ** 2 / float(norms[j]) for j in range(n)]
    threshold = 0.5 * (max(ratios) / s_norm_sq + 1.0 / frob_sq)
    members = [j for j in range(n)
               if float(s[j]) ** 2 >= threshold * s_norm_sq * float(norms[j])]
    best = max(range(n), key=lambda j: ratios[j])
    if best not in members:
        members = sorted(members + [best])
    return members, threshold


def charpoly_smallest_eigenvalue(G, grid_points=200_000, bisect_iters=200):
    """Smallest eigenvalue of a small symmetric matrix via its
    characteristic polynomial (trace power sums + Newton identities),
    located by a sign scan and bisection.  Only sensible for n <= 4."""
    G = np.asarray(G, dtype=np.float64)
    n = G.shape[0]
    power = np.eye(n)
    p = []
    for _ in range(n):
        power = power @ G
        p.append(float(np.trace(power)))
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)

    # S(lam) = prod_i (lambda_i - lam) = sum_k e_k * (-lam)^(n-k); positive
    # below the smallest eigenvalue of a positive-definite matrix.
    # Coefficient of lam^(n-k) is e_k * (-1)^(n-k), highest degree first.
    coeffs = [e[k] * (-1.0) ** (n - k) for k in range(n + 1)]

    def S(lam):
        return np.polyval(coeffs, lam)

    upper = max(float(G[i, i]) + sum(abs(float(G[i, j])) for j in range(n) if j != i)
                for i in range(n))
    grid = np.linspace(0.0, upper * (1 + 1e-12), grid_points)
    values = S(grid)
    crossings = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if len(crossings) == 0:
        raise ValueError("no sign change found; matrix may be singular")
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if np.sign(S(mid)) == np.sign(S(lo)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Earlier package selections (before the one-candidate fast path, the
# per-solve cumulative rgs table and the trimmed grcd selection), verbatim
# apart from their names.
# ---------------------------------------------------------------------------

def _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel):
    abs_s = np.abs(s)
    s_max = abs_s.max()
    if s_max == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    candidates = np.flatnonzero(abs_s >= (1.0 - tie_tolerance_rel) * s_max)
    norms = col_norms_sq[candidates]
    if np.any(norms <= 0.0):
        raise ZeroColumn("candidate column has zero norm")
    t = _ref_unit_scaled(s[candidates], s_max)
    return candidates, t * t / norms


def _ref_unit_scaled(s, s_max):
    return np.ldexp(s, -math.frexp(s_max)[1])


def ref_ggs_select(s, col_norms_sq, tie_tolerance_rel):
    candidates, ratios = _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel)
    return int(candidates[int(np.argmax(ratios))]), candidates


def ref_ggs_randomized_select(s, col_norms_sq, tie_tolerance_rel, rng):
    candidates, weights = _ref_greedy_candidates(s, col_norms_sq, tie_tolerance_rel)
    return int(candidates[_ref_sample_inverse_cdf(weights, rng)]), candidates


def ref_rgs_select(col_norms_sq, frob_sq, rng):
    if frob_sq <= 0.0:
        raise ValueError("frob_sq must be positive")
    return int(_ref_sample_inverse_cdf(col_norms_sq, rng))


def _ref_sample_inverse_cdf(weights, rng):
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def ref_grcd_select(s, col_norms_sq, frob_sq, rng):
    t = _ref_unit_scaled(s, np.abs(s).max())
    sq = t * t
    s_norm_sq = float(sq.sum())
    if s_norm_sq == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    live = col_norms_sq > 0.0
    ratios = np.divide(sq, col_norms_sq, out=np.zeros_like(sq), where=live)
    best = int(np.argmax(ratios))
    threshold = 0.5 * (ratios[best] / s_norm_sq + 1.0 / frob_sq)
    mask = sq >= threshold * s_norm_sq * col_norms_sq
    mask &= live
    # The maximizing column always qualifies mathematically; force it in
    # so borderline rounding cannot leave the set empty.
    mask[best] = True
    members = np.flatnonzero(mask)
    chosen = int(members[_ref_sample_inverse_cdf(sq[members], rng)])
    return chosen, members, float(threshold)


# ---------------------------------------------------------------------------
# Earlier package MatrixMarket and vector file I/O (before the body was read
# in one slice and written in blocks), verbatim apart from their names.
# ---------------------------------------------------------------------------

_REF_MM_FORMATS = ("coordinate", "array")
_REF_MM_FIELDS = ("real", "integer", "pattern", "complex")
_REF_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


def ref_load_matrix_market(path):
    """Read a MatrixMarket file into canonical CSC storage.

    Coordinate and array formats with real, integer or pattern fields are
    accepted; symmetric and skew-symmetric storage is expanded to full,
    pattern entries get unit values, and duplicate coordinates are summed.

    Raises:
        ParseError: malformed content, with the offending line number.
        UnsupportedField: complex or hermitian files.
    """
    lines, nos = _ref_numbered_lines(path, "%")
    if not lines:
        raise ParseError("empty file", 1)

    header = lines[0].split()
    if len(header) != 5 or not header[0].lower().startswith("%%matrixmarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    _, obj, mm_format, mm_field, mm_symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", 1)
    if mm_format not in _REF_MM_FORMATS:
        raise ParseError(f"unknown format {mm_format!r}", 1)
    if mm_field not in _REF_MM_FIELDS:
        raise ParseError(f"unknown field {mm_field!r}", 1)
    if mm_symmetry not in _REF_MM_SYMMETRIES:
        raise ParseError(f"unknown symmetry {mm_symmetry!r}", 1)
    if mm_field == "complex" or mm_symmetry == "hermitian":
        raise UnsupportedField("complex-valued matrices are not supported")
    if mm_format == "array" and mm_field == "pattern":
        raise ParseError("array format cannot use the pattern field", 1)

    # The header is a comment line, so the size line is the first of nos.
    if not nos:
        raise ParseError("missing size line", len(lines))
    size_no, entry_nos = nos[0], nos[1:]
    m, n, *nnz = _ref_read_size(lines[size_no - 1], size_no, mm_format)
    if mm_symmetry != "general" and m != n:
        raise ParseError(f"{mm_symmetry} storage needs a square matrix", size_no)

    if mm_format == "coordinate":
        _ref_check_count(entry_nos, nnz[0], "entries", size_no)
        pattern = mm_field == "pattern"
        i, j, *v = _ref_read_columns(entry_nos, lines, _REF_ENTRY_FIELDS[:2] if pattern else _REF_ENTRY_FIELDS, "entry")
        outside = (i < 1) | (i > m) | (j < 1) | (j > n)
        if outside.any():
            k = outside.argmax()
            raise ParseError(f"index ({i[k]}, {j[k]}) outside {m} x {n}", entry_nos[k])
        rows, cols, vals = i - 1, j - 1, v[0] if v else np.ones(len(i))
    else:
        # Values are stored column by column: all of them, the lower triangle
        # (symmetric) or the strict lower triangle (skew-symmetric).
        count = {"general": m * n, "symmetric": n * (n + 1) // 2, "skew-symmetric": n * (n - 1) // 2}
        _ref_check_count(entry_nos, count[mm_symmetry], "values", size_no)
        cols, rows = np.indices((n, m)).reshape(2, -1)
        if mm_symmetry != "general":
            keep = rows >= cols + (mm_symmetry == "skew-symmetric")
            rows, cols = rows[keep], cols[keep]
        (vals,) = _ref_read_columns(entry_nos, lines, _REF_ENTRY_FIELDS[2:], "value")

    rows, cols, vals = _ref_expand_symmetry(rows, cols, vals, mm_symmetry, entry_nos)
    try:
        return as_csc_matrix(sparse.coo_array((vals, (rows, cols)), shape=(m, n)).tocsc())
    except MemoryError:  # CSC storage holds n + 1 column pointers, whatever the entries
        raise ParseError(f"a {m} x {n} matrix does not fit in memory", size_no) from None


def _ref_numbered_lines(path, comments):
    """The file's lines, and the 1-based numbers of those that hold data:
    neither blank nor starting (past blanks) with a character of ``comments``."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    return lines, [no for no, ln in enumerate(lines, start=1) if (s := ln.lstrip()) and s[0] not in comments]


# The largest size a file may declare: scipy indexes with int64.
_REF_SIZE_MAX = np.iinfo(np.int64).max


def _ref_read_size(line, no, mm_format):
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
    if min(m, n) < 1 or min(sizes) < 0 or max(sizes) > _REF_SIZE_MAX:
        entries = f" with {nnz[0]} entries" if nnz else ""
        raise ParseError(f"bad dimensions {m} x {n}{entries}", no)
    return sizes


def _ref_check_count(nos, want, noun, size_no):
    """Raise at the last data line (the size line if none) unless there are ``want``."""
    if len(nos) != want:
        raise ParseError(f"expected {want} {noun}, found {len(nos)}", nos[-1] if nos else size_no)


# Columns of a coordinate entry line; an array or vector line holds the value alone.
_REF_ENTRY_FIELDS = [("i", np.int64), ("j", np.int64), ("v", np.float64)]


def _ref_read_columns(nos, lines, fields, noun):
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


def _ref_expand_symmetry(rows, cols, vals, mm_symmetry, nos):
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


def _ref_value_lines(values):
    """One line per value with all 17 significant digits, so a load round-trips exactly."""
    return "".join("%.17g\n" % v for v in values.tolist())


def ref_save_matrix_market(A, path):
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
        body = _ref_value_lines(np.asarray(A).ravel(order="F"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix {kind} real general\n{size}\n{body}")


def ref_load_vector(path):
    """Read a one-value-per-line vector file ('#' and '%' start comments)."""
    lines, nos = _ref_numbered_lines(path, "#%")
    if not nos:
        raise ParseError("vector file has no values", 1)
    return _ref_read_columns(nos, lines, _REF_ENTRY_FIELDS[2:], "vector entry")[0]


def ref_save_vector(v, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_ref_value_lines(np.asarray(v, dtype=np.float64)))

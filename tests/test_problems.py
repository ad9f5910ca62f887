import copy
import dataclasses
import gzip
import os
import pickle
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from conftest import DATA_DIR, data_path, read_outcome
from oracles import ref_load_matrix_market, ref_load_vector, ref_save_matrix_market, ref_save_vector

from greedylsq import problems
from greedylsq.analysis import gram_matrix
from greedylsq.estimators import GreedyGaussSeidel
from greedylsq.exceptions import NullSpaceEmpty, ParseError, RankDeficient, UnsupportedField
from greedylsq.linalg import column_norms_sq, matvec, transpose_matvec
from greedylsq.problems import (
    LsqProblem,
    assert_full_column_rank,
    gen_gaussian,
    load_manifest,
    load_matrix_market,
    load_vector,
    make_consistent,
    make_inconsistent,
    matrix_density,
    reference_solution,
    save_matrix_market,
    save_vector,
)
from greedylsq.solvers import Method, SolverConfig, StopReason, solve
from greedylsq.validation import ROW_BLOCK_ENTRIES, as_dense_matrix, as_matrix


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_gaussian_deterministic():
    A = gen_gaussian(40, 7, seed=123)
    B = gen_gaussian(40, 7, seed=123)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, gen_gaussian(40, 7, seed=124))


# Row blocks of ROW_BLOCK_ENTRIES // n rows: 262 at n = 250, so 1000
# and 300 rows end in a partial block, and one column takes 65,536 rows.
@pytest.mark.parametrize("m, n", [(1000, 250), (70_000, 1), (300, 300), (5, 5), (1, 1)])
def test_gen_gaussian_equals_the_whole_row_major_draw(m, n):
    A = gen_gaussian(m, n, seed=3)
    expected = np.asfortranarray(np.random.default_rng(3).standard_normal((m, n)))
    assert A.flags.f_contiguous and A.dtype == np.float64
    assert A.tobytes(order="F") == expected.tobytes(order="F")


def test_gen_gaussian_moments():
    A = gen_gaussian(10_000, 2, seed=5)
    assert abs(A.mean()) < 0.05
    assert abs(A.var() - 1.0) < 0.05
    corr = np.corrcoef(A[:, 0], A[:, 1])[0, 1]
    assert abs(corr) < 0.05


def test_gen_gaussian_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_gaussian(3, 5, seed=0)
    with pytest.raises(ValueError):
        gen_gaussian(0, 0, seed=0)


def test_make_consistent_exact_rhs():
    A = gen_gaussian(50, 6, seed=11)
    problem = make_consistent(A, seed=12)
    resid = problem.rhs - matvec(A, problem.known_solution)
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(problem.rhs)


def test_make_consistent_identity():
    problem = make_consistent(np.eye(4), seed=3)
    assert np.array_equal(problem.rhs, problem.known_solution)


def test_make_inconsistent_null_space_component():
    A = gen_gaussian(100, 10, seed=21)
    problem = make_inconsistent(A, seed=22)
    r0 = problem.rhs - matvec(A, problem.known_solution)
    assert np.linalg.norm(r0) > 0.0
    bound = 1e-10 * np.sqrt(column_norms_sq(A).sum()) * np.linalg.norm(r0)
    assert np.linalg.norm(transpose_matvec(A, r0)) <= bound


def test_make_inconsistent_solution_is_least_squares():
    A = gen_gaussian(60, 8, seed=31)
    problem = make_inconsistent(A, seed=32)
    x_ref = reference_solution(problem)
    np.testing.assert_allclose(x_ref, problem.known_solution, rtol=1e-8, atol=1e-10)


def test_make_inconsistent_single_column_direction():
    # For a single repeated-row column the orthogonal complement is the
    # line spanned by (1, -1); hand projection of z = (1, 0) gives
    # w = 1/2 and r0 = (1/2, -1/2).
    A = np.array([[1.0], [1.0]])
    gram = A.T @ A
    w = cho_solve(cho_factor(gram), A.T @ np.array([1.0, 0.0]))
    r0 = np.array([1.0, 0.0]) - A @ w
    np.testing.assert_allclose(r0, [0.5, -0.5], rtol=1e-15)

    problem = make_inconsistent(A, seed=4)
    r0 = problem.rhs - matvec(A, problem.known_solution)
    assert abs(r0[0] + r0[1]) <= 1e-12 * np.linalg.norm(r0)


VIEWS = ("column_norms_sq", "atb", "gram")


@pytest.mark.parametrize("storage", [np.asfortranarray, sparse.csc_array])
def test_views_equal_their_functions_and_refuse_writes(storage):
    problem = make_consistent(storage(gen_gaussian(30, 4, seed=5)), seed=6)
    A = problem.matrix
    expected = (column_norms_sq(A), transpose_matvec(A, problem.rhs), gram_matrix(A))
    for name, want in zip(VIEWS, expected):
        view = getattr(problem, name)
        assert getattr(problem, name) is view
        assert view.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            view *= 2.0
        assert view.tobytes() == want.tobytes()


def test_replace_starts_with_no_cached_views():
    problem = make_inconsistent(gen_gaussian(30, 4, seed=5), seed=6)
    for name in VIEWS:
        getattr(problem, name)
    for copy in (dataclasses.replace(problem), dataclasses.replace(problem, known_solution=None)):
        assert not set(VIEWS) & set(vars(copy))
        assert copy.gram is not problem.gram


@pytest.mark.parametrize("duplicate", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_pickled_or_copied_problem_starts_with_no_cached_views(duplicate):
    problem = make_inconsistent(gen_gaussian(30, 4, seed=5), seed=6)
    views = [getattr(problem, name) for name in VIEWS]
    twin = duplicate(problem)
    assert not set(VIEWS) & set(vars(twin))
    assert (twin.rhs.tobytes(), twin.known_solution.tobytes(), twin.density) == \
           (problem.rhs.tobytes(), problem.known_solution.tobytes(), problem.density)
    for name, view in zip(VIEWS, views):
        assert not getattr(twin, name).flags.writeable
        assert getattr(twin, name).tobytes() == view.tobytes()


@pytest.mark.parametrize("storage", [np.asfortranarray, sparse.csc_array])
def test_make_inconsistent_hands_its_gram_matrix_to_the_problem(count_calls, storage):
    A = storage(gen_gaussian(40, 5, seed=7))
    problem = make_inconsistent(A, seed=8)
    assert vars(problem)["gram"].tobytes() == gram_matrix(problem.matrix).tobytes()
    assert not problem.gram.flags.writeable
    builds = count_calls("gram_matrix")
    reference_solution(problem)
    assert not builds


def test_make_inconsistent_square_invertible_raises():
    with pytest.raises(NullSpaceEmpty):
        make_inconsistent(np.eye(3), seed=1)


def _wide_or_square(rng):
    n = int(rng.integers(1, 10))
    return rng.standard_normal((int(rng.integers(1, n + 1)), n))


def _tall_with_a_bad_column(rng, bad):
    """m > n >= 2, with column j zeroed or set equal to column i."""
    n = int(rng.integers(2, 12))
    A = rng.standard_normal((int(rng.integers(n + 1, 80)), n))
    i, j = rng.choice(n, size=2, replace=False)
    A[:, j] = 0.0 if bad == "zero" else A[:, i]
    return A


def test_make_inconsistent_refuses_m_at_most_n_before_any_gram_work(monkeypatch):
    def no_gram(A):
        raise AssertionError("make_inconsistent built a Gram matrix for m <= n")
    monkeypatch.setattr(problems, "gram_matrix", no_gram)
    rng = np.random.default_rng(5)
    for t in range(100):
        A = _wide_or_square(rng)
        with pytest.raises(NullSpaceEmpty, match=rf"got a {A.shape[0]} x {A.shape[1]} matrix"):
            make_inconsistent(A if t % 2 else sparse.csc_array(A), seed=t)


@pytest.mark.parametrize("bad", ["zero", "duplicate"])
def test_make_inconsistent_raises_rank_deficient_for_every_bad_column(bad):
    # The one rank test decides, not whether Cholesky happens to fail.
    rng = np.random.default_rng(6)
    for t in range(60):
        A = _tall_with_a_bad_column(rng, bad)
        with pytest.raises(RankDeficient, match="Gram eigenvalue ratio"):
            make_inconsistent(A if t % 2 else sparse.csc_array(A), seed=t)


def test_reference_solution_raises_rank_deficient_for_every_duplicated_column():
    rng = np.random.default_rng(7)
    for t in range(60):
        A = _tall_with_a_bad_column(rng, "duplicate")
        with pytest.raises(RankDeficient, match="Gram eigenvalue ratio"):
            reference_solution(LsqProblem(matrix=A, rhs=rng.standard_normal(A.shape[0])))


@pytest.mark.parametrize("m, n", [(51, 50), (100, 10), (400, 40)])
@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_make_inconsistent_full_rank_output_is_the_cholesky_projection(m, n, storage):
    # Bit for bit the rhs of one Cholesky projection on the draws x_true, then z.
    for seed in range(3):
        A = gen_gaussian(m, n, seed=60 + seed)
        if storage == "csc":
            A = sparse.csc_array(np.where(np.abs(A) > 0.5, A, 0.0))
        gram = A.T @ A
        gram = gram.toarray() if storage == "csc" else gram
        rng = np.random.default_rng(seed)
        x_true = rng.standard_normal(n)
        z = rng.standard_normal(m)
        r0 = z - A @ cho_solve(cho_factor(gram), A.T @ z)
        problem = make_inconsistent(A, seed=seed)
        np.testing.assert_array_equal(problem.known_solution, x_true)
        np.testing.assert_array_equal(problem.rhs, A @ x_true + r0)


def test_a_failed_gram_factorization_raises_rank_deficient(monkeypatch):
    # The rank test passes this matrix; a Cholesky failure is still named.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("2-th leading minor not positive definite")

    monkeypatch.setattr(problems, "cho_factor", fail)
    A = gen_gaussian(30, 3, seed=2)
    for make in (lambda: make_inconsistent(A, seed=3), lambda: reference_solution(make_consistent(A, 3))):
        with pytest.raises(RankDeficient, match="^Gram factorization failed: 2-th leading minor"):
            make()


def test_reference_solution_refines_on_an_ill_conditioned_matrix(monkeypatch):
    # cond(A) = 1e5 passes the rank test (cond(A^T A) = 1e10 < 1e12), and
    # with x* on the smallest singular direction the first Cholesky solve
    # leaves a normal-equation residual above 1e-10 * ||A^T b||.
    solves = []
    monkeypatch.setattr(problems, "cho_solve", lambda *a: solves.append(1) or cho_solve(*a))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((40, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        A = (U * np.logspace(0, -5, 6)) @ V.T
        solves.clear()
        x = reference_solution(LsqProblem(matrix=A, rhs=A @ V[:, -1]))
        assert len(solves) == 2
        np.testing.assert_allclose(x, V[:, -1], rtol=0, atol=1e-9)


def test_reference_solution_worked(worked_dense, worked_rhs):
    problem = LsqProblem(matrix=worked_dense, rhs=worked_rhs)
    np.testing.assert_allclose(reference_solution(problem), [1.0, 1.0], rtol=1e-14)


def test_reference_solution_matches_stored():
    A = gen_gaussian(80, 12, seed=41)
    problem = make_consistent(A, seed=42)
    np.testing.assert_allclose(reference_solution(problem), problem.known_solution,
                               rtol=1e-8, atol=1e-12)


def test_reference_solution_identity():
    b = np.array([2.0, -1.0, 0.5])
    problem = LsqProblem(matrix=np.eye(3), rhs=b)
    np.testing.assert_allclose(reference_solution(problem), b, rtol=1e-14)


def test_reference_solution_rank_deficient():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficient):
        reference_solution(LsqProblem(matrix=A, rhs=np.ones(3)))


def test_assert_full_column_rank_values(worked_dense):
    assert assert_full_column_rank(np.eye(6)) == pytest.approx(1.0, rel=1e-12)
    assert assert_full_column_rank(worked_dense) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(RankDeficient):
        assert_full_column_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_solver_reaches_res_on_generated_problem(worked_dense):
    problem = make_consistent(worked_dense, seed=77)
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert report.stop_reason is StopReason.RES_REACHED
    assert report.final_res <= 1e-6


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------

def test_load_fixture3x2():
    M = load_matrix_market(data_path("fixture3x2.mtx"))
    assert M.shape == (3, 2)
    assert M.nnz == 2
    assert np.array_equal(M.toarray(), [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


def test_load_sums_duplicates():
    M = load_matrix_market(data_path("duplicates.mtx"))
    assert M.nnz == 2
    assert M[0, 0] == 3.0
    assert M[1, 1] == 5.0


def test_load_pattern_gets_unit_values():
    M = load_matrix_market(data_path("pattern.mtx"))
    assert np.array_equal(M.toarray(), [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def test_load_symmetric_expands():
    M = load_matrix_market(data_path("symmetric.mtx"))
    D = M.toarray()
    assert np.array_equal(D, D.T)
    assert D[0, 1] == 1.0 and D[1, 0] == 1.0
    assert D[1, 2] == -1.0 and D[2, 1] == -1.0


def test_load_skew_symmetric_expands():
    M = load_matrix_market(data_path("skew.mtx")).toarray()
    assert np.array_equal(M, -M.T)
    assert M[1, 0] == 1.5 and M[0, 1] == -1.5


def test_load_array_general():
    M = load_matrix_market(data_path("array2x2.mtx"))
    assert np.array_equal(M.toarray(), [[1.0, 3.5], [0.0, 4.0]])


def test_load_array_symmetric():
    M = load_matrix_market(data_path("array_symmetric.mtx"))
    assert np.array_equal(M.toarray(), [[2.0, 1.0], [1.0, 3.0]])


def test_load_complex_unsupported():
    with pytest.raises(UnsupportedField):
        load_matrix_market(data_path("complexmat.mtx"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_matrix_market(data_path("badheader.mtx"))
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_matrix_market(data_path("badentry.mtx"))
    assert "line 4" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_matrix_market(data_path("badcount.mtx"))
    assert err.value.line_number == 4
    with pytest.raises(ParseError) as err:
        load_matrix_market(data_path("badindex.mtx"))
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("text, line_number, message", [
    # Comment and blank lines between entries count towards the line number.
    ("coordinate real general\n2 2 2\n% c\n1 1 1.0\n\n   % indented\n2 x 5.0\n",
     7, "bad entry '2 x 5.0'"),
    ("coordinate real general\n2 2 2\n1 1 1.0\n\n2 3 5.0\n", 5, "index (2, 3) outside 2 x 2"),
    ("coordinate real general\n2 2 2\n1 1 1.0\n0 1 5.0\n", 4, "index (0, 1) outside 2 x 2"),
    ("coordinate real general\n2 2 1\n1.0 1 5.0\n", 3, "bad entry"),
    ("coordinate real general\n2 2 1\n1e0 1 5.0\n", 3, "bad entry"),
    ("coordinate real general\n2 2 2\n1 1 1.0 % note\n2 2 5.0\n", 3, "expected 3 fields, got 5"),
    ("coordinate real general\n2 2 2\n1 1 1.0\n2 2\n", 4, "expected 3 fields, got 2"),
    ("coordinate pattern general\n2 2 2\n1 1\n2 2 5.0\n", 4, "expected 2 fields, got 3"),
    ("coordinate real general\n2 2 3\n1 1 1.0\n% c\n2 2 5.0\n", 5, "expected 3 entries, found 2"),
    ("array real general\n2 1\n1.0\n\n2.0 3.0\n", 5, "expected one value per line"),
    ("array real general\n2 1\n1.0\n% c\nnope\n", 5, "bad value 'nope'"),
    ("array real symmetric\n2 2\n1.0\n2.0\n", 4, "expected 3 values, found 2"),
    # Symmetric storage needs a square matrix in either format.
    ("coordinate real symmetric\n3 2 1\n3 1 1.0\n", 2, "symmetric storage needs a square matrix"),
    ("coordinate real skew-symmetric\n3 2 1\n2 1 1.0\n", 2,
     "skew-symmetric storage needs a square matrix"),
    # Sizes and indices beyond int64.
    ("coordinate real general\n99999999999999999999 2 1\n1 1 1.0\n", 2,
     "bad dimensions 99999999999999999999 x 2 with 1 entries"),
    ("coordinate real general\n2 2 2\n1 1 1.0\n99999999999999999999 1 5.0\n", 4, "99999999999999999999"),
    # A skew-symmetric diagonal entry is named by its own line.
    ("coordinate real skew-symmetric\n2 2 1\n1 1 3.0\n", 3,
     "skew-symmetric matrix has a nonzero diagonal entry"),
    ("coordinate real skew-symmetric\n3 3 2\n2 1 1.0\n% c\n3 3 -2.0\n", 5, "nonzero diagonal entry"),
    # Header faults, and a file that ends before its size line.
    ("tensor real general\n2 2 1\n1 1 1.0\n", 1, "unknown format 'tensor'"),
    ("coordinate quaternion general\n2 2 1\n1 1 1.0\n", 1, "unknown field 'quaternion'"),
    ("coordinate real upper\n2 2 1\n1 1 1.0\n", 1, "unknown symmetry 'upper'"),
    ("coordinate real general\n% no size line\n\n", 3, "missing size line"),
])
def test_parse_errors_name_the_line_past_comments(tmp_path, text, line_number, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix " + text)
    with pytest.raises(ParseError) as err:
        load_matrix_market(path)
    assert err.value.line_number == line_number
    assert message in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("%%MatrixMarket vector coordinate real general\n2 1\n", "unsupported object 'vector'"),
])
def test_header_faults_name_line_1(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^line 1: {message}$"):
        load_matrix_market(path)


def test_load_skips_comments_and_blanks_between_entries(tmp_path):
    path = tmp_path / "commented.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n% head\n\n3 2 3\n"
                    "1 1 1.5\n% between\n\n  \t\n 3 1 -2.0  \n   % indented\n2 2 4e-320\n")
    M = load_matrix_market(path)
    assert M.indptr.tolist() == [0, 2, 3]
    assert M.indices.tolist() == [0, 2, 1]
    assert M.data.tolist() == [1.5, -2.0, 4e-320]

    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n% c\n\n0.0\n3.5\n\n4.0\n")
    assert np.array_equal(load_matrix_market(path).toarray(), [[1.0, 3.5], [0.0, 4.0]])


def test_load_accepts_what_python_parses(tmp_path):
    # numpy's whole-body parser rejects underscores in numbers; the
    # line-by-line rescan accepts them, as int() and float() do.
    path = tmp_path / "underscores.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n20 2 2\n1_0 1 2_5.0\n2 2 +1\n")
    M = load_matrix_market(path)
    assert M.shape == (20, 2)
    assert M[9, 0] == 25.0 and M[1, 1] == 1.0


@pytest.mark.parametrize("name, shape, indptr, indices, data", [
    ("pattern.mtx", (3, 2), [0, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0]),
    ("symmetric.mtx", (3, 3), [0, 2, 4, 6], [0, 1, 0, 2, 1, 2], [2.0, 1.0, 1.0, -1.0, -1.0, 4.0]),
    ("skew.mtx", (3, 3), [0, 2, 3, 4], [1, 2, 0, 0], [1.5, -2.0, -1.5, 2.0]),
    ("array2x2.mtx", (2, 2), [0, 1, 3], [0, 0, 1], [1.0, 3.5, 4.0]),
    ("array_symmetric.mtx", (2, 2), [0, 2, 4], [0, 1, 0, 1], [2.0, 1.0, 1.0, 3.0]),
    ("empty.mtx", (2, 3), [0, 0, 0, 0], [], []),
])
def test_load_fixtures_to_exact_csc(name, shape, indptr, indices, data):
    M = load_matrix_market(data_path(name))
    assert M.shape == shape
    assert M.indptr.tolist() == indptr
    assert M.indices.tolist() == indices
    assert M.data.tolist() == data


def test_save_matrix_market_takes_no_comment(tmp_path):
    with pytest.raises(TypeError):
        save_matrix_market(np.eye(2), tmp_path / "m.mtx", comment="note")


def test_save_matrix_market_exact_text(tmp_path):
    # Duplicates (1.5 + 2.25 at (1, 1)) are summed; the smallest subnormal
    # and 1e+-300 keep all 17 significant digits.
    C = sparse.coo_array((np.array([1.5, -2.5, 5e-324, 1e300, 2.25, -1e-300]),
                          (np.array([0, 2, 1, 0, 0, 2]), np.array([0, 0, 1, 2, 0, 2]))),
                         shape=(3, 3))
    path = tmp_path / "literal.mtx"
    save_matrix_market(C, path)
    assert path.read_text() == (
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 5\n"
        "1 1 3.75\n"
        "3 1 -2.5\n"
        "2 2 4.9406564584124654e-324\n"
        "1 3 1.0000000000000001e+300\n"
        "3 3 -1e-300\n"
    )
    save_matrix_market(np.array([[0.1, -3.0], [1e-310, 2.0 ** 60]]), path)
    assert path.read_text() == (
        "%%MatrixMarket matrix array real general\n"
        "2 2\n"
        "0.10000000000000001\n"
        "9.9999999999999694e-311\n"
        "-3\n"
        "1.152921504606847e+18\n"
    )


def test_matrix_market_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(55)
    D = rng.standard_normal((9, 5))
    D[rng.random((9, 5)) > 0.4] = 0.0
    M = sparse.csc_array(D)
    path = tmp_path / "round.mtx"
    save_matrix_market(M, path)
    back = load_matrix_market(path)
    assert np.array_equal(back.indptr, sparse.csc_array(D).indptr)
    assert np.array_equal(back.indices, sparse.csc_array(D).indices)
    assert np.array_equal(back.data, sparse.csc_array(D).data)


def test_matrix_market_roundtrip_dense(tmp_path):
    A = gen_gaussian(6, 3, seed=8)
    path = tmp_path / "dense.mtx"
    save_matrix_market(A, path)
    back = load_matrix_market(path)
    assert np.array_equal(back.toarray(), A)


# Values whose 17-digit text is easy to get wrong: subnormals, +-1e300,
# nan, +-inf and -0.0 (which canonical CSC drops as a zero).
_EDGE_VALUES = [5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300, np.nan, np.inf, -np.inf,
                -0.0, 0.1, -1.0 / 3.0, 2.0 ** 53]


@pytest.mark.parametrize("block", [5, problems._WRITE_BLOCK_ENTRIES])
@pytest.mark.parametrize("storage", ["dense", "list", "csc", "csr"])
def test_saved_bytes_equal_the_earlier_writers(tmp_path, monkeypatch, storage, block):
    """Each block of entries is formatted in one call, as the earlier
    writers formatted each entry: the same bytes in one block or several."""
    monkeypatch.setattr(problems, "_WRITE_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(36)
    values[12:][rng.random(24) < 0.3] = 0.0
    values[:12] = _EDGE_VALUES
    A = values.reshape(4, 9).T  # column-major order lists the edge values first
    M = {"dense": A, "list": A.tolist(), "csc": sparse.csc_array(A), "csr": sparse.csr_array(A)}[storage]
    save_matrix_market(M, tmp_path / "new.mtx")
    ref_save_matrix_market(np.asarray(M) if storage == "list" else M, tmp_path / "ref.mtx")
    assert (tmp_path / "new.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()
    save_vector(values, tmp_path / "new.txt")
    ref_save_vector(values, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
    (np.zeros((0, 3)), r"at least one row and column, got \(0, 3\)"),
    (np.ones(3), "expected a 2-D matrix, got ndim=1"),
])
def test_save_matrix_market_refuses_before_it_opens_the_file(tmp_path, matrix, message):
    path = tmp_path / "m.mtx"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=message):
        save_matrix_market(matrix, path)
    assert path.read_text() == "kept\n"


def test_save_vector_refuses_before_it_opens_the_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=r"must be 1-D, got shape \(2, 2\)"):
        save_vector(np.ones((2, 2)), path)
    assert path.read_text() == "kept\n"


def test_save_vector_refuses_complex_input_before_it_opens_the_file(tmp_path):
    """A float64 coercion would write only the real part."""
    path = tmp_path / "v.txt"
    path.write_text("kept\n")
    with pytest.raises(UnsupportedField, match="^vector is complex"):
        save_vector([1.0 + 1.0j, 2.0], path)
    assert path.read_text() == "kept\n"


def test_save_matrix_market_writes_a_nested_list_as_its_array(tmp_path):
    save_matrix_market([[1.0, 2.0], [3.0, 4.5]], tmp_path / "m.mtx")
    assert np.array_equal(load_matrix_market(tmp_path / "m.mtx").toarray(), [[1.0, 2.0], [3.0, 4.5]])


def _scipy_reads(monkeypatch):
    """Wrap problems._scipy_columns; the list returned grows by whether
    each call's body was read by scipy's parser."""
    real, reads = problems._scipy_columns, []

    def scipy_columns(*args):
        columns = real(*args)
        reads.append(columns is not None)
        return columns

    monkeypatch.setattr(problems, "_scipy_columns", scipy_columns)
    return reads


@pytest.mark.parametrize("name", ["fixture3x2.mtx", "duplicates.mtx", "pattern.mtx", "symmetric.mtx",
                                  "skew.mtx", "array2x2.mtx", "array_symmetric.mtx", "rankdef2col.mtx"])
def test_a_well_formed_body_is_read_in_one_slice(monkeypatch, tmp_path, name):
    """scipy's parser reads the body of every well-formed fixture, whatever
    its field and symmetry, and only the size line is looked for by
    number.  A body the shape check refuses (here for a comment line) is
    numbered and read line by line, to the same matrix."""
    want = load_matrix_market(data_path(name))
    reads = _scipy_reads(monkeypatch)
    by_line = mock.Mock(wraps=problems._read_columns)
    number = mock.Mock(wraps=problems._data_line_numbers)
    monkeypatch.setattr(problems, "_read_columns", by_line)
    monkeypatch.setattr(problems, "_data_line_numbers", number)
    got = load_matrix_market(data_path(name))
    assert all(np.array_equal(getattr(got, k), getattr(want, k)) for k in ("indptr", "indices", "data"))
    assert reads == [True] and by_line.call_count == 0 and number.call_count == 1

    with open(data_path(name), "rb") as fh:
        lines = fh.readlines()
    path = tmp_path / name
    path.write_bytes(b"".join(lines[:-1] + [b"% a comment inside the body\n", lines[-1]]))
    got = load_matrix_market(path)
    assert all(np.array_equal(getattr(got, k), getattr(want, k)) for k in ("indptr", "indices", "data"))
    assert reads == [True, False] and by_line.call_count == 1


_REAL = b"%%MatrixMarket matrix coordinate real general\n2 2 1\n"
_REAL_ARRAY = b"%%MatrixMarket matrix array real general\n1 1\n"
# Tokens scipy's parser reads by a prefix, as 1.2, 1 or 0.
_PREFIX_TOKENS = [b"1.2.3", b"1e", b"1-2", b"1..", b"1.5e+", b"1e-", b"1e5e5", b"1.5e3.2", b"1_0", b"0x10"]


@pytest.mark.parametrize("name, content, by_scipy", [
    ("well-formed.mtx", _REAL + b"1 2 1.5\n", True),
    ("well-formed-array.mtx", _REAL_ARRAY + b"-2.5e-3\n", True),
    ("crlf.mtx", (_REAL + b"1 2 1.5\n").replace(b"\n", b"\r\n"), True),
    ("lowercase-header.mtx", _REAL.lower() + b"1 2 1.5\n", True),
    ("integer.mtx", b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n", True),
    ("pattern.mtx", b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n", True),
    ("symmetric.mtx", b"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.5\n2 1 -2\n", True),
    ("skew-symmetric.mtx", b"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.5\n", True),
    ("array-symmetric.mtx", b"%%MatrixMarket matrix array real symmetric\n2 2\n1\n-2\n3.5\n", True),
    ("plus-size.mtx", _REAL.replace(b"2 2 1", b"+2 2 1") + b"1 2 1.5\n", True),
    ("zero-led-size.mtx", _REAL.replace(b"2 2 1", b"2 02 1") + b"1 2 1.5\n", True),
    ("utf8-comment.mtx", _REAL.replace(b"\n", "\n% author: Jos\u00e9\n".encode(), 1) + b"1 2 1.5\n", True),
    ("comment-in-the-body.mtx", _REAL + b"% note\n1 2 1.5\n", False),
    *[(f"coordinate-{tok.decode()}.mtx", _REAL + b"1 2 " + tok + b"\n", False) for tok in _PREFIX_TOKENS],
    *[(f"array-{tok.decode()}.mtx", _REAL_ARRAY + tok + b"\n", False) for tok in _PREFIX_TOKENS],
    ("fourth-number.mtx", _REAL + b"1 2 1.5 7\n", False),
    ("pattern-with-values.mtx", b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 1.5\n", False),
    ("integer-with-a-fraction.mtx", b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 1.5\n", True),
    ("cr-inside-a-line.mtx", _REAL + b"1 2\r1.5\n", False),
    ("cr-line-ends.mtx", (_REAL + b"1 2 1.5\n").replace(b"\n", b"\r"), False),
    ("vertical-tab.mtx", _REAL + b"1 2\x0b1.5\n", False),
    ("vertical-tab-in-a-comment.mtx", _REAL.replace(b"\n", b"\n% note\x0b2 2 1\n", 1) + b"1 2 1.5\n", False),
    ("gzipped.mtx.gz", gzip.compress(_REAL + b"1 2 1.5\n"), False),
], ids=lambda value: value if isinstance(value, str) else None)
def test_a_file_scipy_would_misread_reads_as_the_earlier_reader_read_it(monkeypatch, tmp_path, name, content,
                                                                        by_scipy):
    """Only a body whose bytes pass the check reaches scipy's parser, under
    a canonical head with a 'real' field, whatever the file's header.  It
    would read each of the others otherwise than the earlier reader did,
    or refuse it with its own message: it reads numbers by a prefix,
    skips a fourth number, reads a value in a pattern file, reads a lone
    CR inside a line as a space, refuses CR line ends and vertical tabs,
    and decompresses a .gz file."""
    path = tmp_path / name
    path.write_bytes(content)
    reads = _scipy_reads(monkeypatch)
    outcome = read_outcome(load_matrix_market, path)
    assert any(reads) == by_scipy
    assert outcome == read_outcome(ref_load_matrix_market, path)


# scipy's parser kills the process with SIGFPE on an array body of no values.
_NO_VALUES_CHILD = """
import sys
from greedylsq.exceptions import ParseError
from greedylsq.problems import load_matrix_market, load_vector
M = load_matrix_market(sys.argv[1])
print(M.shape, M.nnz)
try:
    load_vector(sys.argv[2])
except ParseError as exc:
    print(exc)
"""


def test_a_body_of_no_values_is_not_read_by_scipy(tmp_path):
    """A 1x1 skew-symmetric array stores no values, and a vector file of
    blank lines holds none.  Both are read in a child process, so that a
    body handed to scipy's parser fails this test instead of ending the
    test run."""
    matrix, vector = tmp_path / "skew1x1.mtx", tmp_path / "blank.txt"
    matrix.write_bytes(b"%%MatrixMarket matrix array real skew-symmetric\n1 1\n")
    vector.write_bytes(b"\n  \n\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _NO_VALUES_CHILD, str(matrix), str(vector)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "(1, 1) 0\nline 1: vector file has no values\n")


@pytest.mark.parametrize("content", [
    b"%%MatrixMarket matrix coordinate real general\n3 3 1000000000000\n1 1 1.5\n",
    b"%%MatrixMarket matrix array real general\n100000 100000\n1.5\n",
])
def test_a_body_of_fewer_bytes_than_values_is_not_read_by_scipy(monkeypatch, tmp_path, content):
    """scipy's parser allocates the declared values before it reads them,
    here 10^12 entries or 10^10 values, so it is never called."""
    import scipy.io
    calls = []

    def mmread(source):
        calls.append(source)
        raise ValueError("not read here")

    monkeypatch.setattr(scipy.io, "mmread", mmread)
    path = tmp_path / "short.mtx"
    path.write_bytes(content)
    assert read_outcome(load_matrix_market, path) == read_outcome(ref_load_matrix_market, path)
    assert not calls


@pytest.mark.parametrize("name", sorted(name for name in os.listdir(DATA_DIR) if name.endswith(".mtx")))
def test_every_fixture_reads_as_the_earlier_reader_read_it(name):
    path = data_path(name)
    assert read_outcome(load_matrix_market, path) == read_outcome(ref_load_matrix_market, path)


def test_density():
    M = load_matrix_market(data_path("fixture3x2.mtx"))
    assert matrix_density(M) == pytest.approx(2 / 6)
    assert 0.0 < matrix_density(M) <= 1.0
    assert matrix_density(np.eye(3)) == 1.0


def test_density_is_derived_from_the_stored_matrix():
    M = sparse.random_array((20, 5), density=0.3, format="csc", rng=np.random.default_rng(1))
    problem = make_consistent(M, seed=2)
    assert problem.density == pytest.approx(0.3)
    assert dataclasses.replace(problem, matrix=M.toarray()).density == 1.0
    with pytest.raises(ValueError):  # a derived field cannot be replaced
        dataclasses.replace(problem, density=0.5)


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
    (np.zeros((0, 3)), r"at least one row and column, got \(0, 3\)"),
    (np.zeros((3, 0)), r"at least one row and column, got \(3, 0\)"),
    (sparse.csc_array((0, 3)), r"at least one row and column, got \(0, 3\)"),
    (sparse.csc_array((3, 0)), r"at least one row and column, got \(3, 0\)"),
    (np.ones(3, dtype=np.int64), "expected a 2-D matrix, got ndim=1"),
    (np.ones((2, 2, 2), dtype=np.float32), "expected a 2-D matrix, got ndim=3"),
    ([[[1.0]]], "expected a 2-D matrix, got ndim=3"),
    (np.zeros((0, 3), dtype=bool), r"at least one row and column, got \(0, 3\)"),
])
def test_a_matrix_needs_two_dimensions_with_entries(matrix, message):
    with pytest.raises(ValueError, match=message):
        as_matrix(matrix)
    with pytest.raises(ValueError, match=message):
        LsqProblem(matrix=matrix, rhs=np.ones(3))


_COMPLEX = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0], [1.0, 1.0j]])


@pytest.mark.parametrize("build", [
    lambda: as_matrix(_COMPLEX),
    lambda: as_matrix(_COMPLEX.tolist()),
    lambda: LsqProblem(matrix=_COMPLEX, rhs=np.ones(3)),
    lambda: LsqProblem(matrix=sparse.csc_array(_COMPLEX), rhs=np.ones(3)),
    lambda: LsqProblem(matrix=_COMPLEX.real, rhs=np.ones(3) + 1.0j),
    lambda: LsqProblem(matrix=_COMPLEX.real, rhs=np.ones(3), known_solution=[1.0, 1.0j]),
    lambda: GreedyGaussSeidel().fit(_COMPLEX, np.ones(3)),
], ids=["as_matrix", "as_matrix-list", "dense", "csc", "rhs", "known_solution", "fit"])
def test_complex_input_raises_unsupported_field(build):
    """A float64 coercion would keep only the real part."""
    with pytest.raises(UnsupportedField, match="complex"):
        build()


@pytest.mark.parametrize("shape", [(6, 1), (1, 6), (2, 3)])
def test_a_2d_rhs_is_ravelled_only_with_one_row_or_column(shape):
    A = gen_gaussian(6, 2, seed=4)
    b = np.arange(6.0)
    if 1 in shape:
        assert np.array_equal(LsqProblem(matrix=A, rhs=b.reshape(shape)).rhs, b)
    else:
        with pytest.raises(ValueError, match=r"^rhs must be 1-D, got shape \(2, 3\)$"):
            LsqProblem(matrix=A, rhs=b.reshape(shape))


def _coercion_inputs():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0], [0.0, 6.0, 0.0]])

    def csc(data, indices, indptr):
        return sparse.csc_array((np.array(data), np.array(indices), np.array(indptr)), shape=(4, 3))

    # The same 4x3 matrix as non-canonical CSC: an explicit zero at (1, 0);
    # (2, 0) split into the duplicates 1 + 3; column 2's rows unsorted.
    explicit_zero = csc([1.0, 0.0, 4.0, 3.0, 6.0, 2.0, 5.0], [0, 1, 2, 1, 3, 0, 2], [0, 3, 5, 7])
    duplicate = csc([1.0, 1.0, 3.0, 3.0, 6.0, 2.0, 5.0], [0, 2, 2, 1, 3, 0, 2], [0, 3, 5, 7])
    unsorted = csc([1.0, 4.0, 3.0, 6.0, 5.0, 2.0], [0, 2, 1, 3, 2, 0], [0, 2, 4, 6])
    return [np.ascontiguousarray(dense), np.asfortranarray(dense), dense.astype(np.int64),
            dense.tolist(), sparse.csc_array(dense), explicit_zero, duplicate, unsorted,
            sparse.csr_array(dense), sparse.coo_array(dense)]


def _arrays_of(M):
    if isinstance(M, list):
        return [np.array(M).tobytes()]
    if sparse.issparse(M):
        names = ("row", "col", "data") if M.format == "coo" else ("indptr", "indices", "data")
        return [getattr(M, name).tobytes() for name in names] + [M.nnz]
    return [M.tobytes(), M.flags.f_contiguous]


@pytest.mark.parametrize("index", range(10))
def test_coercion_never_writes_to_its_input(index):
    M = _coercion_inputs()[index]
    before = _arrays_of(M)
    A = as_matrix(M)
    if sparse.issparse(A):  # canonical CSC of a matrix is unique
        want = _coercion_inputs()[4]
        assert all(np.array_equal(getattr(A, k), getattr(want, k)) for k in ("indptr", "indices", "data"))
    else:
        assert np.array_equal(A, _coercion_inputs()[0])
    LsqProblem(matrix=M, rhs=np.ones(4))
    make_consistent(M, seed=1)
    GreedyGaussSeidel(max_iter=50).fit(M, np.ones(4))
    assert _arrays_of(M) == before


# Row blocks of ROW_BLOCK_ENTRIES // n rows: at n = 250, 524 rows are two
# whole blocks and 525 one row past them; past 2**16 columns a block is
# one row.
_DENSE_SHAPES = [(1, 1), (2 * (ROW_BLOCK_ENTRIES // 250), 250), (2 * (ROW_BLOCK_ENTRIES // 250) + 1, 250),
                 (3, ROW_BLOCK_ENTRIES + 3)]
# Each takes an m x n view or copy of a 2m x 2n array.
_DENSE_LAYOUTS = {
    "C": lambda base, m, n: np.ascontiguousarray(base[:m, :n]),
    "F": lambda base, m, n: np.asfortranarray(base[:m, :n]),
    "strided": lambda base, m, n: base[::2, ::2],
    "negative-strides": lambda base, m, n: base[:m, :n][::-1, ::-1],
    "F-strided-negative": lambda base, m, n: np.asfortranarray(base)[::-2, 1::2],
}


@pytest.mark.parametrize("shape", _DENSE_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("layout", list(_DENSE_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32, np.bool_, np.float64, ">f8"],
                         ids=lambda dtype: np.dtype(dtype).str)
def test_as_dense_matrix_stores_the_bytes_of_one_fortran_copy(shape, layout, dtype):
    m, n = shape
    values = np.random.default_rng(m + n).integers(-1000, 1000, size=(2 * m, 2 * n))
    A = _DENSE_LAYOUTS[layout](values.astype(dtype) if dtype != np.bool_ else values > 0, m, n)
    assert A.shape == shape
    want = np.asfortranarray(np.asarray(A, dtype=np.float64))
    M = as_dense_matrix(A)
    assert M.flags.f_contiguous and M.dtype == np.float64
    assert M.tobytes(order="F") == want.tobytes(order="F")


def test_as_dense_matrix_returns_fortran_float64_as_it_is():
    A = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    column = np.arange(4.0).reshape(4, 1)  # C- and F-contiguous at once
    assert as_dense_matrix(A) is A and as_dense_matrix(column) is column


def test_as_dense_matrix_copies_an_integer_matrix_once():
    """The cast happens inside the blocked copy: one result-sized
    allocation, where a cast and then a transposing copy make two."""
    A = np.arange(20_000 * 250, dtype=np.int64).reshape(20_000, 250)
    tracemalloc.start()
    try:
        M = as_dense_matrix(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.nbytes <= peak < M.nbytes + 2**20


# ---------------------------------------------------------------------------
# vectors and manifests
# ---------------------------------------------------------------------------

def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.txt"
    save_vector(v, path)
    assert np.array_equal(load_vector(path), v)


def test_load_vector_comments_and_errors(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# header\n1.0\n\n% other comment\n2.0\n")
    assert np.array_equal(load_vector(path), [1.0, 2.0])
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnope\n")
    with pytest.raises(ParseError) as err:
        load_vector(bad)
    assert "line 2" in str(err.value)
    path.write_text("1_0.5\n")  # underscores between digits, as float() reads them
    assert np.array_equal(load_vector(path), [10.5])
    bad.write_text("1.0\n1.0 2.0\n")
    with pytest.raises(ParseError) as err:
        load_vector(bad)
    assert "line 2" in str(err.value)
    bad.write_text("# no values\n\n% at all\n")
    with pytest.raises(ParseError, match="^line 1: vector file has no values$"):
        load_vector(bad)


@pytest.mark.parametrize("text, by_line", [
    ("1\n\n-2.5\r\n  3e-1 \n", False),
    ("0\n2\n", False),
    ("1\n-0\n", True),  # scipy reads '-0' in an array body as 0.0
    ("1\n-1e-400\n", True),
    ("# note\n1\n", True),
    ("\n  \n", True),
])
def test_a_vector_body_reaches_scipy_unless_it_holds_a_comment_or_a_negative_zero(monkeypatch, tmp_path, text,
                                                                                  by_line):
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("ascii"))
    read = mock.Mock(wraps=problems._read_columns)
    monkeypatch.setattr(problems, "_read_columns", read)
    outcome = read_outcome(load_vector, path)
    assert read.called == by_line
    assert outcome == read_outcome(ref_load_vector, path)


@pytest.mark.parametrize("load, ref_load, content, by_scipy", [
    (load_matrix_market, ref_load_matrix_market, _REAL + b"1 2 +1.5\n", False),
    (load_matrix_market, ref_load_matrix_market, _REAL_ARRAY + b"+0\n", False),
    (load_vector, ref_load_vector, b"1\n+1.5\n", False),
    (load_matrix_market, ref_load_matrix_market, _REAL + b"1 2 1e+5\n", True),
    (load_vector, ref_load_vector, b"1\n-.5\n", True),
], ids=["coordinate", "array", "vector", "exponent-sign", "vector-minus"])
def test_a_value_led_by_plus_is_not_handed_to_scipy(monkeypatch, tmp_path, load, ref_load, content, by_scipy):
    """scipy's parser refuses '+1.5' and '+0' ("Invalid floating-point
    value"), so such a body is read line by line alone; a '+' inside a
    value, and a '-' before one, do reach scipy."""
    import scipy.io
    real, calls = scipy.io.mmread, []

    def mmread(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(scipy.io, "mmread", mmread)
    path = tmp_path / "plus.txt"
    path.write_bytes(content)
    assert read_outcome(load, path) == read_outcome(ref_load, path)
    assert bool(calls) == by_scipy


@pytest.mark.parametrize("body, line, pair", [
    (b"3 1 1.5\n", 3, "(3, 1)"),
    (b"1 0 1.5\n", 3, "(1, 0)"),
    (b"% note\n1 1 1.5\n2 3 1.5\n", 5, "(2, 3)"),
    (b"-9223372036854775808 1 1.5\n", 3, "(-9223372036854775808, 1)"),
    (b"9223372036854775807 1 1.5\n", 3, "(9223372036854775807, 1)"),
])
def test_an_index_outside_the_shape_is_named_as_the_file_writes_it(tmp_path, body, line, pair):
    """Both body parsers keep indices 0-based; the message names the
    file's 1-based pair and its line."""
    path = tmp_path / "outside.mtx"
    path.write_bytes(_REAL.replace(b"2 2 1", b"2 2 %d" % body.count(b" 1.5")) + body)
    outcome = read_outcome(load_matrix_market, path)
    assert outcome == (ParseError, line, f"line {line}: index {pair} outside 2 x 2")
    assert outcome == read_outcome(ref_load_matrix_market, path)


class _CountedBytes(bytes):
    """File bytes that record each call of their ``split``."""
    splits = []

    def split(self, *args):
        self.splits.append(args)
        return super().split(*args)


@pytest.mark.parametrize("text, splits", [("1\n-2.5\n", 1), ("# note\n1\n", 0), ("1\nx\n", 0)])
def test_a_vector_body_is_counted_only_once_it_passes_the_shape_check(monkeypatch, tmp_path, text, splits):
    path = tmp_path / "v.txt"
    path.write_text(text)
    monkeypatch.setattr(_CountedBytes, "splits", [])
    read_bytes = problems._read_bytes
    monkeypatch.setattr(problems, "_read_bytes", lambda path: _CountedBytes(read_bytes(path)))
    outcome = read_outcome(load_vector, path)
    assert len(_CountedBytes.splits) == splits
    assert outcome == read_outcome(ref_load_vector, path)


def test_load_manifest(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text(
        "# benchmark rows\n"
        "row1 random:1000x50 consistent\n"
        "row2 random:200x20 inconsistent 9\n"
        "fix file:fixture3x2.mtx consistent\n"
    )
    entries = load_manifest(path)
    assert len(entries) == 3
    assert entries[0].kind == "random" and entries[0].rows == 1000 and entries[0].cols == 50
    assert entries[0].consistent and entries[0].seed is None
    assert entries[1].seed == 9 and not entries[1].consistent
    assert entries[2].kind == "file"
    assert entries[2].path == str(tmp_path / "fixture3x2.mtx")


def test_load_manifest_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("row1 random:1000x50 sometimes\n")
    with pytest.raises(ParseError):
        load_manifest(bad)
    bad.write_text("row1 tape:xyz consistent\n")
    with pytest.raises(ParseError):
        load_manifest(bad)
    bad.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_manifest(bad)
    for text, message in [
        ("row1 random:10x5\n", "^line 1: expected 'label matrix consistency \\[seed\\]'$"),
        ("# c\nrow1 random:10x5 consistent 1 2\n", "^line 2: expected 'label"),
        ("row1 random:10x5 consistent x\n", "^line 1: bad seed 'x'$"),
        ("\nrow1 random:10 consistent\n", "^line 2: bad random spec 'random:10'; want random:MxN$"),
        ("row1 random:10xq consistent  # trailing\n", "^line 1: bad random spec 'random:10xq'$"),
    ]:
        bad.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_manifest(bad)


def test_manifest_refuses_a_repeated_label(tmp_path):
    # Two rows labelled alike would give two table rows that cannot be
    # told apart and one curve file, the second row's.
    bad = tmp_path / "bad.txt"
    bad.write_text("a random:40x4 consistent\nb random:40x4 consistent\n\na random:50x4 inconsistent\n")
    with pytest.raises(ParseError, match="^line 4: label 'a' repeats the label of line 1$"):
        load_manifest(bad)


@pytest.mark.parametrize("label", ["a/b", "x|y"])
def test_manifest_refuses_a_label_outside_the_file_name_characters(tmp_path, label):
    # "a/b" and "a_b" would share one curve file; "x|y" would split its
    # markdown table row.
    bad = tmp_path / "bad.txt"
    bad.write_text(f"ok random:40x4 consistent\n{label} random:40x4 consistent\n")
    with pytest.raises(ParseError, match=rf"^line 2: label {label!r} may hold only ASCII letters"):
        load_manifest(bad)


def test_manifest_accepts_letters_digits_dots_underscores_and_dashes(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("t1_1000x50 random:40x4 consistent\na.b-c random:40x4 inconsistent\n")
    assert [entry.label for entry in load_manifest(good)] == ["t1_1000x50", "a.b-c"]


def test_manifest_negative_seed_names_its_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# seeds\nrow random:40x4 consistent -1\n")
    with pytest.raises(ParseError, match="^line 2: seed -1 must be >= 0$"):
        load_manifest(bad)

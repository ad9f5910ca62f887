import copy
import dataclasses
import os
import pickle

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from conftest import data_path

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
from greedylsq.validation import as_matrix


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_gaussian_deterministic():
    A = gen_gaussian(40, 7, seed=123)
    B = gen_gaussian(40, 7, seed=123)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, gen_gaussian(40, 7, seed=124))


# Row blocks of GAUSSIAN_BLOCK_ENTRIES // n rows: 262 at n = 250, so 1000
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
])
def test_a_matrix_needs_two_dimensions_with_entries(matrix, message):
    with pytest.raises(ValueError, match=message):
        as_matrix(matrix)
    with pytest.raises(ValueError, match=message):
        LsqProblem(matrix=matrix, rhs=np.ones(3))


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

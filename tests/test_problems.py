import os

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from conftest import data_path

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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_gaussian_deterministic():
    A = gen_gaussian(40, 7, seed=123)
    B = gen_gaussian(40, 7, seed=123)
    assert np.array_equal(A, B)
    assert not np.array_equal(A, gen_gaussian(40, 7, seed=124))


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
    assert problem.consistent


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
    assert not problem.consistent


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


def test_make_inconsistent_square_invertible_raises():
    with pytest.raises(NullSpaceEmpty):
        make_inconsistent(np.eye(3), seed=1)


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
])
def test_parse_errors_name_the_line_past_comments(tmp_path, text, line_number, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix " + text)
    with pytest.raises(ParseError) as err:
        load_matrix_market(path)
    assert err.value.line_number == line_number
    assert message in str(err.value)


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


def test_manifest_negative_seed_names_its_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# seeds\nrow random:40x4 consistent -1\n")
    with pytest.raises(ParseError, match="^line 2: seed -1 must be >= 0$"):
        load_manifest(bad)

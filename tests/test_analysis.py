import numpy as np
import pytest
from scipy import sparse

from oracles import charpoly_smallest_eigenvalue

from greedylsq.analysis import (
    BoundReport,
    ggs_cumulative_bound,
    ggs_first_step_factor,
    ggs_per_step_factor,
    grcd_expected_factor,
    jacobi_eigenvalues,
    lambda_min_pos,
    verify_trace,
)
from greedylsq.exceptions import (
    FactorOutOfRange,
    MissingEnergyError,
    NonFiniteValue,
    NotApplicable,
    RankDeficient,
)
from greedylsq.linalg import column_norms_sq
from greedylsq.problems import LsqProblem, assert_full_column_rank, gen_gaussian, make_consistent
from greedylsq.solvers import Method, SolverConfig, solve


def test_eigenvalues_small_cases():
    assert jacobi_eigenvalues([[4.0]]).tolist() == [4.0]
    assert jacobi_eigenvalues(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0], rtol=1e-15)
    assert jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])).tolist() == [-1.0, 2.0, 3.0]
    B = np.random.default_rng(5).standard_normal((9, 6))
    assert np.all(np.diff(jacobi_eigenvalues(B.T @ B - 5.0 * np.eye(6))) >= 0.0)


def test_eigenvalues_reject_non_square():
    for G in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigenvalues(G)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_reject_non_finite(bad):
    G = np.eye(3)
    G[2, 1] = G[1, 2] = bad
    with pytest.raises(NonFiniteValue, match="Gram matrix"):
        jacobi_eigenvalues(G)
    A = np.eye(3)
    A[0, 0] = bad
    with pytest.raises(NonFiniteValue, match="Gram matrix"), np.errstate(invalid="ignore"):
        lambda_min_pos(A)
    with pytest.raises(NonFiniteValue, match="Gram matrix"):
        assert_full_column_rank(sparse.csc_array(A))


def test_lambda_min_worked(worked_dense):
    assert lambda_min_pos(worked_dense) == pytest.approx(1.0, rel=1e-12)


def test_lambda_min_identity():
    assert lambda_min_pos(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_lambda_min_upper_triangular_fixture():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert lambda_min_pos(A) == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-12)


def test_lambda_min_rank_deficient():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        lambda_min_pos(A)


def test_lambda_min_agrees_with_charpoly_bisection():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n + 2, n))
        lam = lambda_min_pos(A)
        ref = charpoly_smallest_eigenvalue(A.T @ A)
        assert abs(lam - ref) <= 1e-8 * ref


def test_condition_number_agrees_with_charpoly_bisection():
    # The largest eigenvalue of G is one over the smallest of G^-1.
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n + 2, n))
        G = A.T @ A
        lam_min = charpoly_smallest_eigenvalue(G)
        lam_max = 1.0 / charpoly_smallest_eigenvalue(np.linalg.inv(G))
        assert assert_full_column_rank(A) == pytest.approx(np.sqrt(lam_max / lam_min), rel=1e-8)


def test_first_step_factor_hand_values():
    assert ggs_first_step_factor(1.0, 2, 1, 4.0) == pytest.approx(0.875, rel=1e-15)
    assert ggs_first_step_factor(1.0, 2, 1, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_first_step_factor_degenerate_limit():
    f = ggs_first_step_factor(1e-12, 5, 2, 10.0)
    assert 0.999999 < f < 1.0


def test_first_step_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ggs_first_step_factor(0.0, 2, 1, 1.0)
    with pytest.raises(FactorOutOfRange):
        ggs_first_step_factor(100.0, 2, 1, 1.0)


def test_per_step_factor_hand_value():
    # Second step of the worked 3x2 run contracts to exactly zero.
    assert ggs_per_step_factor(1.0, 2, 1, 1.0) == 0.0


def test_per_step_factor_limit_and_ordering():
    f = ggs_per_step_factor(1.0, 4, 1, 1e12)
    assert 0.999999 < f < 1.0
    # same inputs: the later-step factor is strictly smaller (1/(n-1) > 1/n)
    for n in (2, 3, 10):
        assert ggs_per_step_factor(0.5, n, 2, 3.0) < ggs_first_step_factor(0.5, n, 2, 3.0)


def test_per_step_factor_single_column():
    with pytest.raises(NotApplicable):
        ggs_per_step_factor(1.0, 1, 1, 1.0)


def test_cumulative_bound():
    assert ggs_cumulative_bound(0.4, 0.9, 1, 2.0) == pytest.approx(0.8)
    assert ggs_cumulative_bound(0.875, 0.875, 3, 5.0) == pytest.approx(3.349609375, rel=1e-15)
    assert ggs_cumulative_bound(0.5, 0.5, 7, 0.0) == 0.0
    down = [ggs_cumulative_bound(0.9, 0.8, k, 1.0) for k in range(1, 6)]
    assert all(b <= a for a, b in zip(down, down[1:]))


def test_grcd_expected_factor_hand_values(worked_dense):
    assert grcd_expected_factor(worked_dense, 1.0) == pytest.approx(0.775, rel=1e-15)
    assert grcd_expected_factor(np.eye(2), 1.0) == pytest.approx(0.25, rel=1e-15)


def test_grcd_expected_factor_scale_invariant():
    A = gen_gaussian(30, 6, seed=3)
    lam = lambda_min_pos(A)
    f1 = grcd_expected_factor(A, lam)
    f2 = grcd_expected_factor(3.0 * A, 9.0 * lam)
    assert f1 == pytest.approx(f2, rel=1e-12)


def test_grcd_expected_factor_single_column():
    with pytest.raises(NotApplicable):
        grcd_expected_factor(np.ones((4, 1)), 4.0)


def worked_report():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], order="F")
    problem = LsqProblem(matrix=A, rhs=np.array([1.0, 2.0, 3.0]),
                         known_solution=np.array([1.0, 1.0]))
    return A, solve(problem, SolverConfig(method=Method.GGS, record_trace=True))


def test_verify_trace_worked_run():
    A, report = worked_report()
    bounds = verify_trace(report.trace, lambda_min_pos(A), 2)
    assert bounds.first_step_factor == pytest.approx(0.875, rel=1e-12)
    assert bounds.per_step_factors == [pytest.approx(0.0, abs=1e-12)]
    assert bounds.violations == []
    assert bounds.max_set_size == 1
    assert bounds.max_norm_sum == pytest.approx(4.0)
    # measured contractions: 5 -> 1 -> 0
    energies = [rec.energy_error_sq for rec in report.trace]
    assert energies == [pytest.approx(5.0), pytest.approx(1.0), pytest.approx(0.0, abs=1e-20)]


def test_verify_trace_empty():
    bounds = verify_trace([], 1.0, 3)
    assert bounds.violations == []
    assert bounds.first_step_factor is None
    assert bounds.max_set_size == 0


def test_verify_trace_requires_energy_data(worked_dense):
    problem = LsqProblem(matrix=worked_dense, rhs=np.array([1.0, 2.0, 3.0]))
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    with pytest.raises(MissingEnergyError):
        verify_trace(report.trace, 1.0, 2)


def test_verify_trace_no_violations_on_random_runs():
    for t in range(5):
        A = gen_gaussian(200, 20, seed=70 + t)
        problem = make_consistent(A, seed=170 + t)
        report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
        bounds = verify_trace(report.trace, lambda_min_pos(A), 20)
        assert bounds.violations == []
        assert bounds.max_set_size >= 1
        assert all(0.0 <= f < 1.0 for f in bounds.per_step_factors)


def test_factor_chain_orderings():
    # tightest with a single minimum-norm candidate, loosest with
    # everything: the measured run sits between the two extremes.
    A = gen_gaussian(50, 10, seed=91)
    problem = make_consistent(A, seed=92)
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    lam = lambda_min_pos(A)
    norms = column_norms_sq(A)
    bounds = verify_trace(report.trace, lam, 10)
    tight = ggs_per_step_factor(lam, 10, 1, float(norms.min()))
    measured = ggs_per_step_factor(lam, 10, bounds.max_set_size, bounds.max_norm_sum)
    loose = ggs_per_step_factor(lam, 10, 10, float(norms.sum()))
    assert tight <= measured <= loose


def test_greedy_factor_beats_expected_randomized_factor():
    for t in range(10):
        A = gen_gaussian(50, 10, seed=200 + t)
        lam = lambda_min_pos(A)
        norms = column_norms_sq(A)
        greedy = ggs_per_step_factor(lam, 10, 1, float(norms.min()))
        assert greedy < grcd_expected_factor(A, lam)


def test_bound_report_serialization():
    report = BoundReport(lambda_min=0.5, max_set_size=2, max_norm_sum=3.0,
                         first_step_factor=0.9, per_step_factors=[0.8, 0.85],
                         cumulative_factor=0.7, grcd_expected=0.95)
    text = report.to_text()
    assert "lambda_min: 5.000000000000e-01" in text
    assert "violations: 0" in text
    assert report.csv_row().startswith("5.000000000000e-01,2,")
    assert len(report.csv_row().split(",")) == len(BoundReport.csv_header().split(","))

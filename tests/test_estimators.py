import numpy as np
import pytest
from scipy import sparse

from greedylsq.estimators import (
    GreedyGaussSeidel,
    GreedyRandomizedCoordinateDescent,
    RandomizedGaussSeidel,
    RandomizedGreedyGaussSeidel,
)
from greedylsq.exceptions import UnsupportedField
from greedylsq.problems import gen_gaussian, make_consistent
from greedylsq.solvers import StopReason

ALL_ESTIMATORS = [
    GreedyGaussSeidel,
    RandomizedGreedyGaussSeidel,
    GreedyRandomizedCoordinateDescent,
    RandomizedGaussSeidel,
]


def test_fit_worked_system_with_known_solution(worked_dense, worked_rhs):
    est = GreedyGaussSeidel().fit(worked_dense, worked_rhs, x_true=np.array([1.0, 1.0]))
    assert np.array_equal(est.coef_, [1.0, 1.0])
    assert est.n_iter_ == 2
    assert est.stop_reason_ is StopReason.RES_REACHED


@pytest.mark.parametrize("cls", ALL_ESTIMATORS)
def test_fit_recovers_solution_without_reference(cls):
    A = gen_gaussian(150, 8, seed=3)
    problem = make_consistent(A, seed=4)
    est = cls(tol=1e-14).fit(A, problem.rhs)
    err = np.linalg.norm(est.coef_ - problem.known_solution)
    assert err <= 1e-5 * np.linalg.norm(problem.known_solution)
    assert est.stop_reason_ is StopReason.GRADIENT_REACHED


def test_predict_and_score(worked_dense, worked_rhs):
    est = GreedyGaussSeidel().fit(worked_dense, worked_rhs, x_true=np.array([1.0, 1.0]))
    np.testing.assert_allclose(est.predict(worked_dense), [1.0, 2.0, 0.0])
    A = gen_gaussian(100, 5, seed=9)
    problem = make_consistent(A, seed=10)
    est = GreedyGaussSeidel(tol=1e-14).fit(A, problem.rhs)
    assert est.score(A, problem.rhs) > 0.999999


def test_score_and_predict_name_both_lengths_of_a_mismatch():
    A = gen_gaussian(50, 4, seed=9)
    est = GreedyGaussSeidel().fit(A, make_consistent(A, seed=10).rhs)
    with pytest.raises(ValueError, match="^y has length 1, but X has 50 rows$"):
        est.score(A, [3.0])
    for X in (np.ones((3, 5)), sparse.csc_array(np.ones((3, 5)))):
        with pytest.raises(ValueError, match="^X has 5 columns, but coef_ has length 4$"):
            est.predict(X)


@pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
def test_predict_refuses_a_complex_matrix(worked_dense, worked_rhs, storage):
    """A float64 coercion would keep only the real part of a dense X; a
    complex sparse X would give a complex prediction."""
    est = GreedyGaussSeidel().fit(worked_dense, worked_rhs)
    with pytest.raises(UnsupportedField, match="^X is complex"):
        est.predict(storage(worked_dense + 1.0j))


def test_score_refuses_a_complex_rhs(worked_dense, worked_rhs):
    est = GreedyGaussSeidel().fit(worked_dense, worked_rhs)
    with pytest.raises(UnsupportedField, match="^y is complex"):
        est.score(worked_dense, worked_rhs + 1.0j)


def test_score_on_a_constant_y():
    A = np.ones((3, 1))
    est = GreedyGaussSeidel().fit(A, [2.0, 2.0, 2.0])
    assert est.coef_.tolist() == [2.0]
    assert est.score(A, [2.0, 2.0, 2.0]) == 1.0  # exact prediction of a constant
    assert est.score(A, [5.0, 5.0, 5.0]) == 0.0


def test_sparse_input_accepted(worked_csc, worked_rhs):
    est = GreedyGaussSeidel().fit(worked_csc, worked_rhs, x_true=np.array([1.0, 1.0]))
    assert np.array_equal(est.coef_, [1.0, 1.0])


def test_predict_computes_in_the_input_order():
    A = gen_gaussian(300, 6, seed=5)
    est = GreedyGaussSeidel().fit(A, make_consistent(A, seed=6).rhs)
    X = np.ascontiguousarray(A)
    assert np.array_equal(est.predict(X), X @ est.coef_)
    assert np.array_equal(est.predict(X.tolist()), X @ est.coef_)
    with pytest.raises(ValueError, match="2-D"):
        est.predict(X[0])


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        GreedyGaussSeidel().predict(np.eye(2))


@pytest.mark.parametrize("cls", ALL_ESTIMATORS)
def test_get_set_params_roundtrip(cls):
    est = cls()
    params = est.get_params()
    assert params["tol"] == 1e-6
    assert params["max_iter"] == 200_000
    clone = cls(**params)
    assert clone.get_params() == params
    est.set_params(tol=1e-8)
    assert est.tol == 1e-8
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


@pytest.mark.parametrize("cls", ALL_ESTIMATORS)
def test_get_params_lists_exactly_the_remaining_keys(cls):
    keys = {"tol", "max_iter"} if cls is GreedyGaussSeidel else {"tol", "max_iter", "seed"}
    assert set(cls().get_params()) == keys


def test_randomized_estimators_are_seed_reproducible():
    A = gen_gaussian(120, 10, seed=20)
    problem = make_consistent(A, seed=21)
    for cls in (RandomizedGreedyGaussSeidel, GreedyRandomizedCoordinateDescent, RandomizedGaussSeidel):
        e1 = cls(seed=7).fit(A, problem.rhs, x_true=problem.known_solution)
        e2 = cls(seed=7).fit(A, problem.rhs, x_true=problem.known_solution)
        assert e1.n_iter_ == e2.n_iter_
        np.testing.assert_array_equal(e1.coef_, e2.coef_)


def test_repr_contains_params():
    text = repr(GreedyGaussSeidel(tol=1e-8))
    assert "GreedyGaussSeidel" in text and "tol=1e-08" in text

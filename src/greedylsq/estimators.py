"""Estimator-style wrappers over the coordinate-descent solvers.

These follow the fit/predict/get_params protocol so the solvers drop
into pipelines and grid searches without a hard scikit-learn dependency.
``fit(X, y)`` solves min ||y - X w||_2^2 and stores the coefficients.
"""
import inspect

import numpy as np

from .linalg import matvec
from .problems import LsqProblem
from .solvers import Method, SolverConfig, solve
from .validation import as_vector, is_sparse


class BaseCoordinateDescent:
    """Shared fit/predict machinery; subclasses pin the selection rule."""

    _method = None

    def __init__(self, tol=SolverConfig.res_tolerance, max_iter=SolverConfig.max_iterations, seed=0):
        self.tol = tol
        self.max_iter = max_iter
        self.seed = seed

    def get_params(self, deep=True):
        names = [p for p in inspect.signature(type(self).__init__).parameters
                 if p != "self"]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def fit(self, X, y, x_true=None):
        """Solve the least-squares problem defined by (X, y).

        When ``x_true`` is given, iteration stops once the squared
        relative error against it reaches ``tol``; otherwise stopping is
        on the relative squared gradient norm.
        """
        problem = LsqProblem(matrix=X, rhs=y, known_solution=x_true)
        report = solve(problem, SolverConfig(method=self._method, max_iterations=self.max_iter,
                                             res_tolerance=self.tol, seed=getattr(self, "seed", 0)))
        self.coef_ = report.solution
        self.n_iter_ = report.iterations
        self.stop_reason_ = report.stop_reason
        self.report_ = report
        return self

    def _check_fitted(self):
        if not hasattr(self, "coef_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted yet; call fit first")

    def predict(self, X):
        """X @ coef_ in X's own storage: a dense X is not copied to column-major order."""
        self._check_fitted()
        if not is_sparse(X):
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2:
                raise ValueError(f"expected a 2-D matrix, got ndim={X.ndim}")
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(f"X has {X.shape[1]} columns, but coef_ has length {self.coef_.shape[0]}")
        return matvec(X, self.coef_)

    def score(self, X, y):
        """Coefficient of determination R^2 of the prediction.

        Raises:
            ValueError: if y's length is not X's row count.
        """
        self._check_fitted()
        y = as_vector(y, name="y")
        prediction = self.predict(X)
        if y.shape[0] != prediction.shape[0]:
            raise ValueError(f"y has length {y.shape[0]}, but X has {prediction.shape[0]} rows")
        resid = y - prediction
        total = y - y.mean()
        denom = float(np.dot(total, total))
        if denom == 0.0:
            return 1.0 if float(np.dot(resid, resid)) == 0.0 else 0.0
        return 1.0 - float(np.dot(resid, resid)) / denom

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class GreedyGaussSeidel(BaseCoordinateDescent):
    """Deterministic two-stage greedy coordinate descent."""

    _method = Method.GGS

    def __init__(self, tol=SolverConfig.res_tolerance, max_iter=SolverConfig.max_iterations):
        self.tol = tol
        self.max_iter = max_iter


class RandomizedGreedyGaussSeidel(BaseCoordinateDescent):
    """Greedy candidate set with randomized stage-two selection."""

    _method = Method.GGS_RANDOMIZED


class GreedyRandomizedCoordinateDescent(BaseCoordinateDescent):
    """Threshold-based randomized greedy coordinate descent."""

    _method = Method.GRCD


class RandomizedGaussSeidel(BaseCoordinateDescent):
    """Column sampling proportional to squared column norms."""

    _method = Method.RGS

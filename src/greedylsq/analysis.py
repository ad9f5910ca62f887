"""Convergence-theory checks for the deterministic greedy method.

The greedy two-stage method contracts the squared energy error by a
computable factor every step: the first step by at least
``1 - lambda_min / (|C_0| * S_0 * n)`` and every later step by at least
``1 - lambda_min / (|C_k| * S_k * (n - 1))``, where C_k is the candidate
set, S_k the sum of its squared column norms and lambda_min the smallest
eigenvalue of the Gram matrix A^T A.  The later steps get the sharper
1/(n-1) constant because each step leaves the gradient entry of the
previously chosen column exactly zero.

``verify_trace`` replays a recorded solve against those per-step factors
and their cumulative envelope;
``grcd_expected_factor`` gives the corresponding expected-contraction
factor of the threshold-based randomized method for comparison.
"""
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    FactorOutOfRange,
    MissingEnergyError,
    NonFiniteValue,
    NotApplicable,
    RankDeficient,
)
from .linalg import column_norms_sq
from .validation import as_matrix, is_sparse

# Absolute slack on measured contraction ratios, absorbing rounding in
# the recorded energy errors.
RATIO_SLACK = 1e-9

# A is declared rank-deficient when the smallest Gram eigenvalue is at
# most this fraction of the largest.
RANK_REL_TOLERANCE = 1e-12


def gram_matrix(A):
    """Dense n x n Gram matrix A^T A."""
    G = (A.T @ A)
    if is_sparse(G):
        G = G.toarray()
    return np.asarray(G, dtype=np.float64)


def jacobi_eigenvalues(G):
    """All eigenvalues of a symmetric matrix, in ascending order, from
    LAPACK's symmetric eigensolver (``np.linalg.eigvalsh``).

    Raises:
        ValueError: if G is not a square matrix.
        NonFiniteValue: if G has a NaN or infinite entry.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("the eigenvalue routine needs a square matrix")
    if not np.isfinite(G).all():
        raise NonFiniteValue("the Gram matrix has a NaN or infinite entry")
    return np.linalg.eigvalsh(G)


def gram_extreme_eigenvalues(G):
    """(lambda_min, lambda_max) of the Gram matrix G = gram_matrix(A), from
    one call of the eigenvalue routine.  This is the package's one rank test.

    Raises:
        RankDeficient: if lambda_min <= RANK_REL_TOLERANCE * lambda_max,
            a rule that does not depend on the scale of A.
        NonFiniteValue: if G has a NaN or infinite entry.
    """
    eigs = jacobi_eigenvalues(G)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= RANK_REL_TOLERANCE * lam_max:
        raise RankDeficient(
            f"Gram eigenvalue ratio {lam_min:.3e} / {lam_max:.3e} is below {RANK_REL_TOLERANCE:.1e}"
        )
    return lam_min, lam_max


def lambda_min_pos(A):
    """Smallest eigenvalue of A^T A, after the rank test of gram_extreme_eigenvalues."""
    return gram_extreme_eigenvalues(gram_matrix(A))[0]


def _check_factor(f):
    if not 0.0 <= f < 1.0:
        raise FactorOutOfRange(f"contraction factor {f} outside [0, 1)")
    return float(f)


def ggs_first_step_factor(lambda_min, n, set_size, norm_sum):
    """Guaranteed contraction factor of the first greedy step: exactly 0
    for n = 1, where a single column converges in one step."""
    if lambda_min <= 0.0 or n < 1 or set_size < 1 or norm_sum <= 0.0:
        raise ValueError("all inputs must be positive")
    if n == 1:
        return 0.0
    return _check_factor(1.0 - lambda_min / (set_size * norm_sum * n))


def ggs_per_step_factor(lambda_min, n, set_size, norm_sum):
    """Guaranteed contraction factor of every later greedy step.

    Raises:
        NotApplicable: for n = 1 (a single column converges in one step).
    """
    if n == 1:
        raise NotApplicable("per-step factor is undefined for a single column")
    if lambda_min <= 0.0 or n < 2 or set_size < 1 or norm_sum <= 0.0:
        raise ValueError("all inputs must be positive")
    return _check_factor(1.0 - lambda_min / (set_size * norm_sum * (n - 1)))


def ggs_cumulative_bound(first_factor, per_step_worst, k, initial_energy_error_sq):
    """Energy-error envelope after k steps: worst^(k-1) * first * initial."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return per_step_worst ** (k - 1) * first_factor * initial_energy_error_sq


def grcd_expected_factor(A, lambda_min):
    """Expected contraction factor of the threshold-based randomized method.

    Equals 1 - (1/(||A||_F^2 - min_j ||A[:, j]||^2) + 1/||A||_F^2) * lambda_min / 2.

    Raises:
        NotApplicable: for n = 1.
        RankDeficient: for an all-zero A.
    """
    A = as_matrix(A)
    if A.shape[1] == 1:
        raise NotApplicable("expected factor is undefined for a single column")
    norms = column_norms_sq(A)
    frob_sq = float(norms.sum())
    if frob_sq == 0.0:
        raise RankDeficient("||A||_F^2 is 0: the matrix is all zero, or its squares underflow")
    min_norm = float(norms.min())
    f = 1.0 - 0.5 * (1.0 / (frob_sq - min_norm) + 1.0 / frob_sq) * lambda_min
    return _check_factor(f)


@dataclass
class BoundReport:
    """Outcome of checking a recorded greedy solve against its theory.

    ``violations`` lists (iteration, measured ratio, bound) for every step
    whose measured energy contraction exceeded the guaranteed factor plus
    slack; an empty list means the theory held throughout.
    ``cumulative_violations`` counts the iterates whose energy error rose
    above the cumulative envelope of ``ggs_cumulative_bound``.
    """

    lambda_min: float
    max_set_size: int = 0
    max_norm_sum: float = 0.0
    first_step_factor: float | None = None
    per_step_factors: list[float] = field(default_factory=list)
    cumulative_factor: float | None = None
    grcd_expected: float | None = None
    violations: list[tuple[int, float, float]] = field(default_factory=list)
    cumulative_violations: int = 0

    def to_text(self):
        """Serialize as key: value lines, then each step's factor."""
        lines = [f"{name}: {text(self)}" for name, text, _ in _FIELDS]
        for it, meas, bound in self.violations:
            lines.append(f"violation: iteration={it} measured={meas:.12e} bound={bound:.12e}")
        lines.append(f"cumulative_violations: {self.cumulative_violations}")
        lines.append("factors:")
        if self.first_step_factor is not None:
            lines.append(f"  k=0 factor={self.first_step_factor:.12e}")
        lines += [f"  k={k} factor={f:.12e}" for k, f in enumerate(self.per_step_factors, start=1)]
        return "\n".join(lines) + "\n"

    def csv_fields(self):
        """(name, text) of each of the seven CSV fields, in column order."""
        return [(name, text(self)) for name, text in _CSV_FIELDS]


def _fmt_opt(v):
    return "" if v is None else f"{v:.12e}"


# The report's summary fields in order: name, the text of a report's value
# (empty for an absent factor), and whether the CSV row carries the field.
_FIELDS = [
    ("lambda_min", lambda r: f"{r.lambda_min:.12e}", True),
    ("max_set_size", lambda r: str(r.max_set_size), True),
    ("max_norm_sum", lambda r: f"{r.max_norm_sum:.12e}", True),
    ("first_step_factor", lambda r: _fmt_opt(r.first_step_factor), True),
    ("worst_per_step_factor", lambda r: _fmt_opt(max(r.per_step_factors, default=None)), False),
    ("cumulative_factor", lambda r: _fmt_opt(r.cumulative_factor), True),
    ("grcd_expected_factor", lambda r: _fmt_opt(r.grcd_expected), True),
    ("steps_checked", lambda r: str(len(r.per_step_factors) + (r.first_step_factor is not None)), False),
    ("violations", lambda r: str(len(r.violations)), True),
]
_CSV_FIELDS = [(name, text) for name, text, in_csv in _FIELDS if in_csv]


def verify_trace(trace, lambda_min, n):
    """Check a recorded greedy trace against the per-step factors.

    The measured contraction ratio energy(k+1) / energy(k) of every step
    must not exceed the guaranteed factor by more than RATIO_SLACK.

    Args:
        trace: list of StepRecord from a solve with a known solution,
            ending in the state-only terminal record.
        lambda_min: smallest eigenvalue of the Gram matrix.
        n: number of columns.

    Raises:
        MissingEnergyError: if any record lacks energy data.
    """
    report = BoundReport(lambda_min=lambda_min)
    if any(rec.energy_error_sq is None for rec in trace):
        raise MissingEnergyError("trace was recorded without a known solution")

    # A selection on the last record counts in the maxima and steps, but has no ratio.
    steps = 0
    for rec, nxt in zip(trace, [*trace[1:], None]):
        if rec.chosen_index is None:
            continue
        steps += 1
        report.max_set_size = max(report.max_set_size, rec.candidate_set_size)
        report.max_norm_sum = max(report.max_norm_sum, rec.candidate_norm_sum)
        if nxt is None:
            break
        if rec.iteration == 0:
            factor = ggs_first_step_factor(lambda_min, n, rec.candidate_set_size, rec.candidate_norm_sum)
            report.first_step_factor = factor
        else:
            factor = ggs_per_step_factor(lambda_min, n, rec.candidate_set_size, rec.candidate_norm_sum)
            report.per_step_factors.append(factor)
        measured = nxt.energy_error_sq / rec.energy_error_sq if rec.energy_error_sq > 0.0 else 0.0
        if measured > factor + RATIO_SLACK:
            report.violations.append((rec.iteration, measured, factor))

    if n >= 2 and report.first_step_factor is not None:
        worst = ggs_per_step_factor(lambda_min, n, report.max_set_size, report.max_norm_sum)
        report.cumulative_factor = worst ** (steps - 1) * report.first_step_factor
        # Cumulative envelope: the energy error at step k must sit under
        # worst^(k-1) * first * initial, where worst comes from the maxima
        # of the candidate-set size and norm sum over the whole run.
        initial = trace[0].energy_error_sq
        slack = RATIO_SLACK * max(initial, 1.0)
        report.cumulative_violations = sum(
            trace[k].energy_error_sq
            > ggs_cumulative_bound(report.first_step_factor, worst, k, initial) + slack
            for k in range(1, len(trace)))
    elif report.first_step_factor is not None:
        report.cumulative_factor = report.first_step_factor

    return report

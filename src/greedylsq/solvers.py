"""Coordinate-descent solvers for linear least squares.

Four methods share one iteration loop and differ only in how the working
column is selected:

* ``ggs``: pick the columns whose residual-gradient entry has the largest
  magnitude, then among those take the one with the largest squared entry
  per unit of squared column norm.  Fully deterministic.
* ``ggs-random``: same candidate set, but the winner is sampled with
  probability proportional to that ratio.
* ``grcd``: an adaptive threshold keeps every column whose normalized
  gradient entry is at least halfway between the norm-weighted mean and
  the maximum; the working column is sampled proportionally to its
  squared entry.
* ``rgs``: sample columns with probability proportional to squared column
  norm, independent of the residual, RGS_BLOCK at a time from the solve's
  own stream, so its selections equal those of one draw per step.

Each step moves a single coordinate by alpha = (A[:, j] . r) / ||A[:, j]||^2,
which zeroes the gradient entry of the chosen column.  The gradient
s = A^T r, when a method, the trace or the stopping rule needs it, comes
with the dense Gram matrix G = A^T A, built just before the first step or
passed in by the caller, and the loop then keeps x and s only:
alpha = s[j] / ||A[:, j]||^2 and s -= alpha * G[j], O(n) per step with
no pass over A.  s is recomputed fresh as A^T (b - A x) at every drift
checkpoint, whenever its largest entry has fallen by
GRADIENT_FALL_REFRESH since its last fresh value, at every step once that
entry is below GRADIENT_ROUNDING_LEVEL times its initial value, and
before a stop on the gradient rule or at the iteration cap in
gradient-stop mode, so no reported gradient stop rests on accumulated
rounding.

rgs with a known solution and no trace needs no gradient: it takes its
first n steps (n columns) on the residual r, one column dot and one
column axpy each, then builds G (or takes the one passed in) and takes
every later step in the dot form
alpha = ((A^T b)[j] - G[j] . x) / ||A[:, j]||^2, O(n) with no kept state
besides x.  A short solve thus never pays the O(m n^2) of G, and a long
one pays it once, when the residual steps so far have cost about as much
as G.

A caller that solves one problem several times, as bench does with each
method of a trial, may build G once with gram_matrix(problem.matrix) and
pass it to every solve.  solve uses a passed G exactly where it would
build its own, so no report changes in any bit, and it keeps no G across
calls.

G takes n*n*8 bytes; when that exceeds both the matrix's own stored
bytes and GRAM_BUDGET_BYTES (gram_fits), no G is built, a passed one is
ignored, and the loop keeps x and r throughout, with A^T r recomputed
after every step if the gradient is needed.

res = ||x - x*||^2 / ||x*||^2 is computed with x* and every x - x* taken
times the power of two that brings max|x*| into [0.5, 1), an exact
scaling, so ||x*||^2 neither underflows to 0 nor overflows.  With a known
solution and no trace, the res stop rule costs O(1) per step: the loop
keeps err, a running value of the scaled ||x - x*||^2 that each step
updates by the change in its one moved entry's term, and computes it
fresh through _scaled_error_sq only where a stop may be near or err may
have drifted: when err is within RES_STOP_MARGIN of the stop threshold,
has fallen or risen by RES_FALL_REFRESH since its last fresh value or is
not finite, at every drift checkpoint, at the iteration cap and before a
RankDeficient message.  Every stop, final_res and error thus rests on
the same fresh value as a check at every step.
"""
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import gram_matrix
from .exceptions import AllZeroGradient, NonFiniteValue, RankDeficient, ZeroColumn
from .linalg import (
    axpy_column,
    column_dot,
    column_norms_sq,
    energy_error_sq,
    matvec,
    transpose_matvec,
)
from .validation import is_sparse

# The loop's kept state is checked against its value rebuilt from x this
# often, and then recomputed, to stop rounding drift from accumulating over
# very long runs: the gradient s when it is kept, else the residual r.
DRIFT_CHECK_INTERVAL = 1000

# A dense Gram matrix for the incremental gradient may always take this
# many bytes, and more when the matrix itself is stored in more.
GRAM_BUDGET_BYTES = 32 * 2**20

# The incremental gradient is recomputed from A^T r once max|s| has fallen
# by this factor since its last fresh value (the updates' rounding error
# is relative to that fresh value, so relative to s it grows as s falls),
# and at every step once max|s| is below this rounding level relative to
# its initial value, where selections on updated values would run on noise.
GRADIENT_FALL_REFRESH = 1e-4
GRADIENT_ROUNDING_LEVEL = 1e-12

# The running err of the res stop rule is replaced by a fresh value once it
# is at most RES_STOP_MARGIN times the stop threshold tol * ||x*||^2, or
# outside [RES_FALL_REFRESH, 1 / RES_FALL_REFRESH] times its last fresh
# value.  Within that window its rounding error is under 2e-4 of itself
# (see _scaled_error_sq), so a margin of 1.25 misses no stop at any tol.
RES_STOP_MARGIN = 1.25
RES_FALL_REFRESH = 1e-4

# Gradient entries within this factor (relative) of the largest magnitude
# count as tied for the greedy candidate set.
TIE_TOLERANCE_REL = 1e-12

# rgs draws this many columns per rgs_select call.
RGS_BLOCK = 512


class Method(Enum):
    GGS = "ggs"
    GGS_RANDOMIZED = "ggs-random"
    GRCD = "grcd"
    RGS = "rgs"

    @property
    def randomized(self):
        return self in (Method.GGS_RANDOMIZED, Method.GRCD, Method.RGS)


class StopReason(Enum):
    RES_REACHED = "res_reached"
    GRADIENT_REACHED = "gradient_reached"
    ITERATION_CAP = "iteration_cap"


@dataclass
class SolverConfig:
    """Knobs for a single solve.

    Every solve starts from x = 0, and greedy ties are judged with the
    constant TIE_TOLERANCE_REL.  The defaults of max_iterations and
    res_tolerance are also those of bench, the estimators and the CLI,
    which read them from here.

    Args:
        method: which selection rule to run.
        max_iterations: hard cap on coordinate steps.
        res_tolerance: stop once the squared relative solution error
            ||x - x_true||^2 / ||x_true||^2 drops to this value (when the
            true solution is known), or once ||A^T r||^2 falls to this
            fraction of ||A^T b||^2 (when it is not).
        seed: PRNG seed (>= 0), used by the randomized methods only.
        record_trace: keep a per-iteration record of the solve.
    """

    method: Method = Method.GGS
    max_iterations: int = 200_000
    res_tolerance: float = 1e-6
    seed: int = 0
    record_trace: bool = False

    def __post_init__(self):
        if isinstance(self.method, str):
            self.method = Method(self.method)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.res_tolerance < np.inf:
            raise ValueError("res_tolerance must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class StepRecord:
    """State at iterate k plus the selection made there.

    The final record of a trace carries state only (the solver stopped
    before selecting), so its selection fields are None.
    """

    iteration: int
    chosen_index: int | None = None
    candidate_set_size: int | None = None
    candidate_norm_sum: float | None = None
    residual_gradient_norm_sq: float | None = None
    energy_error_sq: float | None = None
    res: float | None = None
    threshold: float | None = None  # grcd selection threshold, else None


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    stop_reason: StopReason
    elapsed_seconds: float
    # The stop measure at the final iterate (res with a known solution,
    # else the gradient ratio), always computed fresh, never a running value.
    final_res: float
    trace: list[StepRecord] | None = None
    # Largest drift of the kept state seen at the checkpoints and at exit:
    # ||s - (A^T b - G x)|| / ||A^T b|| when s was kept, else
    # ||r - (b - A x)|| / ||b||, where rgs's dot form keeps no state and
    # adds r's drift at the step that built G.
    max_drift_rel: float = 0.0


def _greedy_candidates(s, col_norms_sq):
    """Stage 1 of both greedy rules: every column whose gradient magnitude
    is within TIE_TOLERANCE_REL (relative) of the maximum, which is read
    at argmax, NaN first as max gives it.

    Returns:
        (candidate index array, max|s|).

    Raises:
        AllZeroGradient: if s is identically zero.
        ZeroColumn: if a candidate column has zero squared norm.
    """
    abs_s = np.abs(s)
    s_max = abs_s.item(abs_s.argmax())
    if s_max == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    candidates = (abs_s >= (1.0 - TIE_TOLERANCE_REL) * s_max).nonzero()[0]
    if (col_norms_sq.item(candidates.item(0)) <= 0.0 if candidates.size == 1
            else (col_norms_sq[candidates] <= 0.0).any()):
        raise ZeroColumn("candidate column has zero norm")
    return candidates, s_max


def _candidate_ratios(s, col_norms_sq, candidates, s_max):
    """Stage 2 weights: s[j]^2 / ||A[:, j]||^2 over the candidates."""
    t = _unit_scaled(s[candidates], s_max)
    return t * t / col_norms_sq[candidates]


def _unit_scaled(s, s_max):
    """s times the power of two that brings s_max = max|s| into [0.5, 1).

    The scaling is exact, so squares of s can neither overflow nor
    underflow to zero, and every ratio or comparison of squares, and any
    draw weighted by them, is the same as without it.
    """
    return np.ldexp(s, -math.frexp(s_max)[1])


def _scaled_error_sq(x, x_star_unit, scale):
    """||x - x*||^2 times scale^2, as ||x * scale - x_star_unit||^2, where
    scale is a power of two and x_star_unit = x* * scale, so res is this
    over ||x_star_unit||^2.  The scaling is exact for normal-range values,
    so res has the same bits as ||x - x*||^2 / ||x*||^2 whenever that
    neither underflows nor overflows.

    Between fresh values the res stop rule tests a running value err,
    which each step updates by its moved entry's term d_j^2, d_j the same
    x[j] * scale - x_star_unit[j] as here, at a few roundings per step.
    With u = 2^-53, F this function's value at the last fresh computation,
    K <= DRIFT_CHECK_INTERVAL steps since then and f = RES_FALL_REFRESH,
    every err tested since lies in (f F, F / f), so err is within
    (n u / f + 6 K u / f^2) err of the exact sum of the current squares,
    which is under 2e-4 err for n <= 1e8 and does not depend on tol.  This
    function's value is within n u of that sum too.  So an err above
    RES_STOP_MARGIN = 1.25 times the threshold tol * ||x_star_unit||^2
    proves this function's value above the threshold, at any tol.  A
    non-finite value here needs a non-finite term, which makes err
    non-finite, or a sum beyond 2^1000, the cap of err's window.
    """
    d = x * scale - x_star_unit
    return float(np.dot(d, d))


def ggs_select(s, col_norms_sq):
    """Two-stage greedy selection: stage 2 picks the candidate maximizing
    s[j]^2 / ||A[:, j]||^2, lowest index on ties.  For float64 inputs each
    output bit and exception is that of the plain numpy form of the rule.

    Returns:
        (chosen index, candidate index array).
    """
    candidates, s_max = _greedy_candidates(s, col_norms_sq)
    if candidates.size == 1:
        return candidates.item(0), candidates
    ratios = _candidate_ratios(s, col_norms_sq, candidates, s_max)
    return int(candidates[int(np.argmax(ratios))]), candidates


def ggs_randomized_select(s, col_norms_sq, rng):
    """Like ggs_select, but samples from the candidate set with
    probability proportional to s[j]^2 / ||A[:, j]||^2.  Every call takes
    one uniform from rng, also when the set has a single member.  For
    float64 inputs each output bit and exception, and rng's state, is that
    of the plain numpy form of the rule."""
    candidates, s_max = _greedy_candidates(s, col_norms_sq)
    if candidates.size == 1:
        rng.random()
        return candidates.item(0), candidates
    weights = _candidate_ratios(s, col_norms_sq, candidates, s_max)
    return int(candidates[_sample_inverse_cdf(np.cumsum(weights), rng)]), candidates


def grcd_select(s, col_norms_sq, frob_sq, rng):
    """Threshold-based randomized selection.

    The threshold is the average of the largest normalized gradient ratio
    (relative to ||s||^2) and 1 / ||A||_F^2; every column whose squared
    gradient entry clears threshold * ||s||^2 * ||A[:, j]||^2 is kept, and
    the working column is sampled with probability proportional to its
    squared gradient entry.  All of these are invariant to the scale of s,
    so they are computed from |s| scaled to a largest magnitude near 1.
    A zero column has ratio 0 and is never a member; only a matrix with a
    zero column pays for that masked divide.

    For float64 s and col_norms_sq, as solve passes them, the rule and
    every output bit, rng's state included, are those of the plain numpy
    form of these formulas: the largest |s| and the smallest column norm
    are read at argmax and argmin (NaN first, as max and min give it),
    ||s||^2 and the draw's table are the same pairwise sum and running
    sum as ndarray.sum and np.cumsum, and the threshold is taken on Python
    floats, the same IEEE doubles as numpy scalars.

    Returns:
        (chosen index, member index array, threshold).
    """
    sq = np.abs(s)
    sq = _unit_scaled(sq, sq.item(sq.argmax()))
    sq *= sq
    s_norm_sq = float(np.add.reduce(sq))
    if s_norm_sq == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    # The where= divide and the live mask take about a third of a call
    # at n = 50-250, so only a matrix with a zero column runs them.
    if col_norms_sq.item(col_norms_sq.argmin()) > 0.0:
        ratios = sq / col_norms_sq
        live = None
    else:
        live = col_norms_sq > 0.0
        ratios = np.divide(sq, col_norms_sq, out=np.zeros_like(sq), where=live)
    best = int(ratios.argmax())
    threshold = 0.5 * (ratios.item(best) / s_norm_sq + 1.0 / frob_sq)
    mask = sq >= threshold * s_norm_sq * col_norms_sq
    if live is not None:
        mask &= live
    # The maximizing column always qualifies mathematically; force it in
    # so borderline rounding cannot leave the set empty.
    mask[best] = True
    members = mask.nonzero()[0]
    chosen = members.item(_sample_inverse_cdf(np.add.accumulate(sq[members]), rng))
    return chosen, members, float(threshold)


def rgs_select(cum_norms_sq, rng, size):
    """Sample ``size`` columns, each with probability ||A[:, j]||^2 / ||A||_F^2,
    from the cumulative table np.cumsum(column_norms_sq(A)).  rng.random(size)
    gives the uniforms of ``size`` rng.random() calls bit for bit, so the
    indices and rng's final state equal those of ``size`` single draws."""
    u = rng.random(size) * cum_norms_sq[-1]
    return np.minimum(np.searchsorted(cum_norms_sq, u, side="right"), len(cum_norms_sq) - 1).tolist()


def _rgs_picks(cum_norms_sq, rng):
    """rgs's columns, RGS_BLOCK per call of the module attribute rgs_select."""
    while True:
        yield from rgs_select(cum_norms_sq, rng, RGS_BLOCK)


def _sample_inverse_cdf(cum, rng):
    """Draw index j with probability (cum[j] - cum[j-1]) / cum[-1] from a
    cumulative table of nonnegative weights (one uniform)."""
    u = rng.random() * cum.item(-1)
    return min(int(cum.searchsorted(u, side="right")), cum.size - 1)


def step(x, r, A, j, col_norm_sq_j):
    """One coordinate update on column j, mutating x and r in place.

    alpha is computed from the residual before mutation; afterwards the
    new residual is orthogonal to the chosen column.

    Returns:
        alpha, the change made to x[j].
    """
    if col_norm_sq_j <= 0.0:
        raise ZeroColumn(f"column {j} has zero norm")
    alpha = column_dot(A, j, r) / col_norm_sq_j
    x[j] += alpha
    axpy_column(r, A, j, -alpha)
    return alpha


# The selection rule of each method, called as rule(s, col_norms_sq,
# picks, frob_sq, rng) and returning (chosen index, member index array,
# grcd threshold or None); picks, the solve's _rgs_picks stream, is built
# for rgs only.  Each entry looks its select function up by module
# attribute at call time, so a wrapper installed there (perfbench's
# tracer) sees every call.
_SELECT = {
    Method.GGS: lambda s, norms, picks, frob_sq, rng: (*ggs_select(s, norms), None),
    Method.GGS_RANDOMIZED: lambda s, norms, picks, frob_sq, rng: (*ggs_randomized_select(s, norms, rng), None),
    Method.GRCD: lambda s, norms, picks, frob_sq, rng: grcd_select(s, norms, frob_sq, rng),
    Method.RGS: lambda s, norms, picks, frob_sq, rng: ((j := next(picks)), [j], None),
}


def _stored_bytes(A):
    """Bytes holding the entries (and, for CSC, the index arrays) of A."""
    if is_sparse(A):
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return A.nbytes


def gram_fits(A):
    """Whether a solve on A keeps a dense G = A^T A: its n*n*8 bytes fit
    in the matrix's own stored bytes or in GRAM_BUDGET_BYTES, read at
    call time."""
    n = A.shape[1]
    return n * n * 8 <= max(_stored_bytes(A), GRAM_BUDGET_BYTES)


def _relative_drift(diff, ref):
    """||diff|| / ||ref||, the drift of kept state judged relative to its
    value at x = 0 (b for r, A^T b for s): on consistent problems the
    current state shrinks to rounding level, so normalizing by it would be
    meaningless.

    Both norms are taken on the vectors times the power of two that
    brings max|ref| into [0.5, 1) (_unit_scaled), which changes no bit of
    the ratio but keeps either norm from overflowing near the top of the
    float range.
    """
    ref_max = np.abs(ref).max()
    if ref_max == 0.0:
        return float(np.linalg.norm(diff))
    return (float(np.linalg.norm(_unit_scaled(diff, ref_max)))
            / float(np.linalg.norm(_unit_scaled(ref, ref_max))))


def solve(problem, config, gram=None):
    """Run the configured method on a least-squares problem.

    Starts from x = 0, so r = b.  Stops when the squared relative solution
    error reaches ``res_tolerance`` (a known solution with a nonzero
    entry), when the squared gradient norm falls to ``res_tolerance``
    times its initial value (no known solution, or an all-zero one), or at
    the iteration cap.  G = A^T A is built just before the first step that
    uses it, or passed in as ``gram``.

    Args:
        problem: an LsqProblem, whose construction checked its inputs.
        config: a SolverConfig.
        gram: None, or gram_matrix(problem.matrix), which the solve then
            uses where it would build G, with the same report in every
            bit; it is only read.  When no G fits (gram_fits), a passed
            gram is ignored.

    Returns:
        SolveReport with the solution, iteration count, stop reason,
        elapsed wall time and (optionally) the per-iteration trace.

    Raises:
        ValueError: if gram is neither None nor an (n, n) float64 ndarray.
        NonFiniteValue: if A (through its squared column norms), b, the
            known solution, A^T b (when the solve needs the gradient) or
            ||A^T b||^2 is not finite, if the gradient
            rule's threshold res_tolerance * ||A^T b||^2 is below the
            normal float range though A^T b is nonzero, or if the stop
            measure stops being finite during the run.
        RankDeficient: with a known solution, in three cases where it is
            not the only least-squares solution and cannot be reached.
            Before the first step, if A has zero columns and the known
            solution's share on them, ||x*[zero]||^2 / ||x*||^2, is above
            ``res_tolerance``: no method ever moves x off 0 there, so res
            cannot fall below that share; else if A has fewer rows than
            columns.  During the run, if the gradient A^T r becomes
            exactly zero while res is above the tolerance.
    """
    A, b, x_star = problem.matrix, problem.rhs, problem.known_solution
    n = A.shape[1]
    if gram is not None and not (isinstance(gram, np.ndarray) and gram.shape == (n, n)
                                 and gram.dtype == np.float64):
        raise ValueError(f"gram must be an ({n}, {n}) float64 ndarray, gram_matrix(problem.matrix)")

    method = config.method
    select = _SELECT[method]
    rng = np.random.default_rng(config.seed) if method.randomized else None
    record = config.record_trace
    tol = config.res_tolerance

    t_start = time.perf_counter()
    col_norms = column_norms_sq(A)
    frob_sq = float(col_norms.sum())
    picks = _rgs_picks(np.cumsum(col_norms), rng) if method is Method.RGS else None
    # A NaN, infinite or overflowing entry of A shows in its column norms,
    # so this needs no extra pass over the matrix.
    if not np.isfinite(col_norms).all():
        raise NonFiniteValue("the squared column norms of the matrix are not all finite")
    if not np.isfinite(b).all():
        raise NonFiniteValue("the rhs has a NaN or infinite entry")
    if x_star is not None and not np.isfinite(x_star).all():
        raise NonFiniteValue("the known solution has a NaN or infinite entry")

    x = np.zeros(n)
    r = b.copy()

    # The scale of the module docstring, clamped to 2^1023 for a subnormal
    # max|x*|; ||x*||^2 is then positive whenever x* has a nonzero entry.
    scale = x_star_unit = None
    x_star_unit_sq = 0.0
    if x_star is not None:
        scale = math.ldexp(1.0, min(-math.frexp(float(np.abs(x_star).max()))[1], 1023))
        x_star_unit = x_star * scale
        x_star_unit_sq = float(np.dot(x_star_unit, x_star_unit))
    use_res_stop = x_star_unit_sq > 0.0
    # With a known solution and no trace, res is computed fresh only where a
    # stop may be near (module docstring); err is the running value between.
    estimate = use_res_stop and not record
    if use_res_stop:
        unreachable = x_star_unit[col_norms == 0.0]
        res_floor = float(np.dot(unreachable, unreachable)) / x_star_unit_sq
        if res_floor > tol:
            raise RankDeficient(
                f"res cannot fall below {res_floor:.3e} at iteration 0, above the tolerance "
                f"{tol:.1e}: no step moves x on the {unreachable.size} zero column(s), so "
                "the known solution is not the only least-squares solution")
        if A.shape[0] < n:
            raise RankDeficient(
                f"at iteration 0 the matrix has {A.shape[0]} rows, fewer than its {n} columns, "
                f"so its rank is below {n} and the known solution is not the only "
                "least-squares solution")
    # The gradient is needed for selection by every method except rgs,
    # and for the trace and the gradient stopping rule regardless of method.
    need_gradient = method is not Method.RGS or record or not use_res_stop
    need_grad_sq = record or not use_res_stop

    s = transpose_matvec(A, r) if need_gradient else None
    if s is not None and not np.isfinite(s).all():
        raise NonFiniteValue("A^T b has a NaN or infinite entry at iteration 0")
    grad0_sq = None
    if not use_res_stop:
        grad0_sq = float(np.dot(s, s))
        if not math.isfinite(grad0_sq):
            raise NonFiniteValue(f"||A^T b||^2 is {grad0_sq}, not finite")
        if tol * grad0_sq < sys.float_info.min and s.any():
            # Below the normal range the squares that the stop rule compares
            # lose their bits, down to 0, which meets the rule at once.
            raise NonFiniteValue(
                f"the gradient rule's threshold tol * ||A^T b||^2 = {tol * grad0_sq:.3e} "
                "underflows below the normal float range though A^T b is nonzero")
    # G is built, or the passed gram taken, just before step gram_step, if
    # it fits.  Without the gradient (rgs with a known solution and no
    # trace) the first n steps run on the residual, at two column passes
    # each.  Building G takes roughly as long as n such steps, so a solve
    # shorter than that never pays for G, and a longer one pays for it once.
    G = None
    gram_step = None
    if gram_fits(A):
        gram_step = 0 if need_gradient else n

    def drift():
        """Relative drift of the kept state from its value rebuilt from x:
        of s when G is held, at O(n^2) with no pass over A, else of r,
        which then takes the rebuilt value.  The dot form keeps no state,
        so it has none."""
        if G is None:
            fresh = b - matvec(A, x)
            diff = r - fresh
            r[:] = fresh
            return _relative_drift(diff, b)
        return _relative_drift(s - (atb - G @ x), atb) if need_gradient else 0.0

    def measure(x, s, k):
        """State of iterate k: (squared gradient norm, res, stop measure,
        whether the measure reached the tolerance).

        The stop measure is res when the true solution is known, else the
        gradient ratio ||A^T r||^2 / ||A^T b||^2.  res is fresh, through
        _scaled_error_sq, and is ||x||^2 when x* = 0; it restarts err and
        the window (lo, hi) that err must stay in to skip the next measure.
        """
        nonlocal err, lo, hi
        grad_sq = float(np.dot(s, s)) if need_grad_sq else None
        res = None
        if x_star is not None:
            err = _scaled_error_sq(x, x_star_unit, scale)
            res = err / x_star_unit_sq if use_res_stop else err
            lo = max(RES_STOP_MARGIN * tol * x_star_unit_sq, RES_FALL_REFRESH * err)
            hi = min(err / RES_FALL_REFRESH, 2.0**1000)
        if use_res_stop:
            value, reached = res, res <= tol
        else:
            value = grad_sq / grad0_sq if grad0_sq > 0.0 else 0.0
            reached = grad_sq <= tol * grad0_sq
        if not math.isfinite(value):
            name = "relative solution error" if use_res_stop else "gradient ratio"
            raise NonFiniteValue(f"the {name} is {value} at iteration {k}")
        return grad_sq, res, value, reached

    def energy(x):
        return energy_error_sq(A, x, x_star) if x_star is not None else None

    trace = [] if record else None
    max_drift = 0.0
    k = 0
    err = lo = hi = 0.0
    x_star_entries = x_star_unit.tolist() if estimate else None
    # stale: s was updated from G since it was last computed fresh.
    # refresh: s must be computed fresh before it is next used.
    stale = refresh = False

    while True:
        if refresh:
            if G is None:
                s = transpose_matvec(A, r)
            else:
                s = transpose_matvec(A, b - matvec(A, x))
                s_max_fresh = float(np.abs(s).max())
            stale = refresh = False
        if estimate and lo < err < hi and k % DRIFT_CHECK_INTERVAL and k < config.max_iterations:
            # err proves res above the tolerance (module docstring).
            reached = False
        else:
            grad_sq, res, final_res, reached = measure(x, s, k)
        if stale and not use_res_stop and (reached or k >= config.max_iterations):
            # A gradient stop, or a gradient ratio reported at the cap,
            # must hold for a fresh gradient, not only for the updated one.
            refresh = True
            continue
        if reached:
            stop_reason = StopReason.RES_REACHED if use_res_stop else StopReason.GRADIENT_REACHED
            break
        if k >= config.max_iterations:
            stop_reason = StopReason.ITERATION_CAP
            break
        try:
            j, members, threshold = select(s, col_norms, picks, frob_sq, rng)
        except AllZeroGradient:
            if estimate:
                res = _scaled_error_sq(x, x_star_unit, scale) / x_star_unit_sq
            # s is fresh here: a stale s that fell to zero set refresh, since
            # 0 < GRADIENT_FALL_REFRESH * s_max_fresh.  In gradient-stop mode a
            # fresh zero gradient has already met the stop rule, so this is
            # res-stop mode with res above tol.
            raise RankDeficient(
                f"the gradient A^T r is exactly zero at iteration {k} with res = {res:.3e}, "
                f"above the tolerance {tol:.1e}: the iterate solves the normal equation, so "
                "the known solution is not the only least-squares solution") from None

        if record:
            trace.append(StepRecord(
                iteration=k,
                chosen_index=j,
                candidate_set_size=len(members),
                candidate_norm_sum=float(col_norms[members].sum()),
                residual_gradient_norm_sq=grad_sq,
                energy_error_sq=energy(x),
                res=res,
                threshold=threshold,
            ))

        if k == gram_step:
            if need_gradient:
                # The loop keeps x and s only; A^T b, which s still is, is
                # the reference for s's drift.
                atb = s.copy()
                # max|s| at the start and at the last fresh computation of
                # s; the refresh triggers compare these rather than ||s||^2,
                # which overflows long before s does.
                s_max0 = s_max_fresh = float(np.abs(s).max())
            else:
                # The residual's drift is measured once more; r is then unused.
                max_drift = max(max_drift, drift())
                atb = transpose_matvec(A, b)
            G = gram_matrix(A) if gram is None else gram

        if estimate:
            d = x.item(j) * scale - x_star_entries[j]
            err -= d * d
        if G is None:
            step(x, r, A, j, col_norms[j])
            refresh = need_gradient
        elif not need_gradient:
            # rgs needs s[j] only, as one row of G against x.
            x[j] += (atb[j] - G[j] @ x) / col_norms[j]
        else:
            alpha = s.item(j) / col_norms.item(j)
            x[j] += alpha
            # G is symmetric, so its row j is column j, stored contiguously.
            s -= alpha * G[j]
            stale = True
            abs_s = np.abs(s)
            s_max = abs_s.item(abs_s.argmax())
            refresh = (s_max < GRADIENT_FALL_REFRESH * s_max_fresh
                       or s_max < GRADIENT_ROUNDING_LEVEL * s_max0)
        if estimate:
            d = x.item(j) * scale - x_star_entries[j]
            err += d * d
        k += 1
        if k % DRIFT_CHECK_INTERVAL == 0:
            max_drift = max(max_drift, drift())
            refresh = need_gradient

    if k % DRIFT_CHECK_INTERVAL:
        # Also measure the drift of a run that did not end on a checkpoint.
        max_drift = max(max_drift, drift())
    elapsed = time.perf_counter() - t_start

    if record:
        # Close the trace with a state-only record for the final iterate.
        trace.append(StepRecord(
            iteration=k,
            residual_gradient_norm_sq=grad_sq,
            energy_error_sq=energy(x),
            res=res,
        ))

    return SolveReport(
        solution=x,
        iterations=k,
        stop_reason=stop_reason,
        elapsed_seconds=elapsed,
        final_res=final_res,
        trace=trace,
        max_drift_rel=max_drift,
    )

"""Coordinate-descent solvers for linear least squares.

Four methods share one loop and differ only in how the working column j
is chosen: solve picks one select(s) per solve from the method, which
calls ggs_select, ggs_randomized_select, grcd_select or rgs_select.
Each step moves x[j] by alpha = (A[:, j] . r) / ||A[:, j]||^2, which
zeroes the gradient entry of column j.

The column norms, A^T b and G = A^T A come from the problem's cached,
read-only views (LsqProblem), so each is built at most once per problem.
Only the method, the stopping rule and gram_fits choose a solve's step
path; a trace only observes.
* Every method but rgs, and the gradient stopping rule, need the
  gradient s = A^T r.  The loop then keeps x and s and steps on the
  dense Gram matrix G = A^T A, s -= alpha * G[j], O(n) per step.  s is
  computed fresh at every drift checkpoint, when max|s| falls
  (GRADIENT_FALL_REFRESH, GRADIENT_ROUNDING_LEVEL), and before a
  gradient stop, so no stop rests on accumulated rounding.
* rgs with a known solution takes its first n steps on the residual r,
  then reads G and steps in the dot form
  x[j] += ((A^T b)[j] - G[j] . x) / ||A[:, j]||^2, keeping x only.
* When G does not fit, the loop keeps x and r and recomputes A^T r
  after every step that needs it.
Without a trace, the res stop rule tests a running ||x - x*||^2 and
computes it fresh only near the threshold (_scaled_error_sq).
"""
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import AllZeroGradient, NonFiniteValue, RankDeficient, ZeroColumn
from .linalg import (
    axpy_column,
    column_dot,
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


class StopReason(Enum):
    RES_REACHED = "res_reached"
    GRADIENT_REACHED = "gradient_reached"
    ITERATION_CAP = "iteration_cap"


@dataclass
class SolverConfig:
    """Knobs for a single solve, which starts from x = 0.  The defaults of
    max_iterations and res_tolerance are also those of bench, the
    estimators and the CLI, which read them from here.

    Args:
        method: a Method or its value.
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

    The final record of a trace carries state only, so its selection
    fields are None.  energy_error_sq and res are None without a known
    solution, or with an all-zero one.
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
    # Largest drift of the kept state at the checkpoints and at exit:
    # ||s - (A^T b - G x)|| / ||A^T b|| when s was kept, else
    # ||r - (b - A x)|| / ||b|| (rgs's dot form keeps neither).
    max_drift_rel: float = 0.0


def _greedy_candidates(s, col_norms_sq):
    """Stage 1 of both greedy rules: every column whose gradient magnitude
    is within TIE_TOLERANCE_REL (relative) of the maximum.

    Returns:
        (candidate index array, max|s|).

    Raises:
        AllZeroGradient: if s is identically zero.
        NonFiniteValue: if s has a NaN or infinite entry.
        ZeroColumn: if a candidate column has zero squared norm.
    """
    abs_s = np.abs(s)
    s_max = abs_s.item(abs_s.argmax())
    if not 0.0 < s_max < math.inf:
        _refuse_gradient(s_max)
    candidates = (abs_s >= (1.0 - TIE_TOLERANCE_REL) * s_max).nonzero()[0]
    if (col_norms_sq.item(candidates.item(0)) <= 0.0 if candidates.size == 1
            else (col_norms_sq[candidates] <= 0.0).any()):
        raise ZeroColumn("candidate column has zero norm")
    return candidates, s_max


def _refuse_gradient(s_max):
    """Raise the error of a gradient whose max|s| is 0, NaN or infinite."""
    if s_max == 0.0:
        raise AllZeroGradient("gradient is zero; the normal equation is satisfied")
    raise NonFiniteValue(f"the gradient has a NaN or infinite entry (max|s| is {s_max})")


def _candidate_ratios(s, col_norms_sq, candidates, s_max):
    """Stage 2 weights: s[j]^2 / ||A[:, j]||^2 over the candidates."""
    t = _unit_scaled(s[candidates], s_max)
    return t * t / col_norms_sq[candidates]


def _unit_scaled(s, s_max):
    """s times the power of two that brings s_max = max|s| into [0.5, 1).
    The scaling is exact, so squares of s neither overflow nor underflow
    to zero, and ratios and comparisons of them are unchanged."""
    return np.ldexp(s, -math.frexp(s_max)[1])


def _scaled_error_sq(x, x_star_unit, scale):
    """||x - x*||^2 times scale^2, as ||x * scale - x_star_unit||^2, where
    scale is a power of two and x_star_unit = x* * scale, so res is this
    over ||x_star_unit||^2, with the bits of ||x - x*||^2 / ||x*||^2
    whenever that neither underflows nor overflows.

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
    output bit and exception is that of the plain numpy form of the rule,
    except that a NaN or infinite gradient raises NonFiniteValue.

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
    of the plain numpy form of the rule, except that a NaN or infinite
    gradient raises NonFiniteValue before any draw."""
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
    gradient entry clears threshold * ||s||^2 * ||A[:, j]||^2 is kept, a
    zero column never, and the working column is sampled with probability
    proportional to its squared gradient entry.  For float64 s and
    col_norms_sq every output bit, rng's state included, is that of the
    plain numpy form of these formulas on |s| scaled by _unit_scaled.

    Returns:
        (chosen index, member index array, threshold).

    Raises:
        AllZeroGradient: if s is identically zero.
        NonFiniteValue: if s has a NaN or infinite entry; no draw is taken.
    """
    sq = np.abs(s)
    s_max = sq.item(sq.argmax())
    if not 0.0 < s_max < math.inf:
        _refuse_gradient(s_max)
    sq = _unit_scaled(sq, s_max)
    sq *= sq
    s_norm_sq = float(np.add.reduce(sq))
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
    from the cumulative table np.cumsum(column_norms_sq(A)).  The indices
    and rng's final state equal those of ``size`` single draws."""
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
    """One coordinate update on column j, mutating x and r in place, after
    which r is orthogonal to column j.

    Returns:
        alpha, the change made to x[j].
    """
    if col_norm_sq_j <= 0.0:
        raise ZeroColumn(f"column {j} has zero norm")
    alpha = column_dot(A, j, r) / col_norm_sq_j
    x[j] += alpha
    axpy_column(r, A, j, -alpha)
    return alpha


def gram_fits(A):
    """Whether a solve on A keeps a dense G = A^T A: its n*n*8 bytes fit
    in the bytes that store A (with CSC's index arrays) or in
    GRAM_BUDGET_BYTES, read at call time."""
    stored = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes if is_sparse(A) else A.nbytes
    return A.shape[1] ** 2 * 8 <= max(stored, GRAM_BUDGET_BYTES)


def _relative_drift(diff, ref):
    """||diff|| / ||ref||, ref being the kept state's value at x = 0 (b for
    r, A^T b for s): on consistent problems the current state shrinks to
    rounding level, so it cannot be the reference.  Both norms are taken
    at _unit_scaled's scale of ref, so neither overflows; ||diff|| alone
    when ref is zero."""
    ref_max = np.abs(ref).max()
    if ref_max == 0.0:
        return float(np.linalg.norm(diff))
    return (float(np.linalg.norm(_unit_scaled(diff, ref_max)))
            / float(np.linalg.norm(_unit_scaled(ref, ref_max))))


def solve(problem, config):
    """Run the configured method on a least-squares problem from x = 0.

    Stops when the squared relative solution error reaches
    ``res_tolerance`` (a known solution), when the squared gradient norm
    falls to ``res_tolerance`` times its initial value (no known solution;
    an all-zero one counts as none), or at the iteration cap.
    ``record_trace`` changes no bit of the rest of the report.

    Args:
        problem: an LsqProblem, whose construction checked its inputs.
            The solve reads its column norms, A^T b and G from the
            problem's cached views, and its elapsed time includes the
            building of those it is the first to read.  A later solve of
            the same problem gives the same report in every bit.
        config: a SolverConfig.

    Returns:
        SolveReport with the solution, iteration count, stop reason,
        elapsed wall time and (optionally) the per-iteration trace.

    Raises:
        NonFiniteValue: if A (through its squared column norms and their
            sum ||A||_F^2), b, the known solution, A^T b (when the solve
            needs the gradient) or ||A^T b||^2 is not finite, if the
            gradient rule's threshold res_tolerance * ||A^T b||^2 is below
            the normal float range though A^T b is nonzero, or if the stop
            measure or the gradient a selection reads stops being finite
            during the run.
        RankDeficient: with a known solution that is not the only
            least-squares solution.  Before the first step, if the known
            solution's share on zero columns, ||x*[zero]||^2 / ||x*||^2,
            is above ``res_tolerance`` (no step moves x there), else if A
            has fewer rows than columns.  During the run, if the gradient
            becomes exactly zero while res is above the tolerance.
    """
    A, b, x_star = problem.matrix, problem.rhs, problem.known_solution
    n = A.shape[1]

    method = config.method
    rng = np.random.default_rng(config.seed) if method is not Method.GGS else None
    record = config.record_trace
    tol = config.res_tolerance

    t_start = time.perf_counter()
    col_norms = problem.column_norms_sq
    # A NaN, infinite or overflowing entry of A shows in its column norms,
    # and so in their sum ||A||_F^2, which can also overflow on its own;
    # so this needs no extra pass over the matrix.
    with np.errstate(over="ignore"):
        frob_sq = float(col_norms.sum())
    if not math.isfinite(frob_sq):
        raise NonFiniteValue("the squared column norms of the matrix, or their sum, are not all finite")
    # select(s) -> (chosen index, member array, grcd threshold or None) calls
    # its rule through the module attribute, so a wrapper there sees each call.
    if method is Method.RGS:
        picks = _rgs_picks(np.cumsum(col_norms), rng)
        select = lambda s: ((j := next(picks)), [j], None)
    elif method is Method.GRCD:
        select = lambda s: grcd_select(s, col_norms, frob_sq, rng)
    elif method is Method.GGS_RANDOMIZED:
        select = lambda s: (*ggs_randomized_select(s, col_norms, rng), None)
    else:
        select = lambda s: (*ggs_select(s, col_norms), None)
    if not np.isfinite(b).all():
        raise NonFiniteValue("the rhs has a NaN or infinite entry")
    # One max|x*| tests x*: a NaN or inf propagates through it, and x* = 0
    # would select the gradient rule, so it is no known solution.
    x_star_max = float(np.abs(x_star).max()) if x_star is not None else 0.0
    if not math.isfinite(x_star_max):
        raise NonFiniteValue("the known solution has a NaN or infinite entry")
    use_res_stop = x_star_max > 0.0
    x_star = x_star if use_res_stop else None

    x = np.zeros(n)
    r = b.copy()

    # With a known solution and no trace, res is computed fresh only where a
    # stop may be near; err is the running value between.
    estimate = use_res_stop and not record
    scale = x_star_unit = None
    if use_res_stop:
        # The power of two that brings max|x*| into [0.5, 1), clamped to
        # 2^1023 for a subnormal max|x*|, so that ||x*||^2 is positive.
        scale = math.ldexp(1.0, min(-math.frexp(x_star_max)[1], 1023))
        x_star_unit = x_star * scale
        x_star_unit_sq = float(np.dot(x_star_unit, x_star_unit))
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
    # The gradient is needed for selection by every method except rgs, and
    # for the gradient stopping rule; a trace only reads its norm.
    need_gradient = method is not Method.RGS or not use_res_stop

    s = None
    if need_gradient:
        # s starts as A^T b, its drift reference.  max|s| at the start and at
        # its last fresh computation is what the refresh triggers compare,
        # rather than ||s||^2, which overflows long before s does.
        atb = problem.atb
        s_max0 = s_max_fresh = float(np.abs(atb).max())  # NaN and inf propagate
        if not math.isfinite(s_max0):
            raise NonFiniteValue("A^T b has a NaN or infinite entry at iteration 0")
        s = atb.copy()
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
    # G is read from the problem just before step gram_step, if it fits.
    # Without the gradient (rgs with a known solution) the first n steps
    # run on the residual, at two column passes each.  Building G takes
    # roughly as long as n such steps, so a solve shorter than that never
    # builds G, and a longer one builds it at most once per problem.
    G = None
    gram_step = None
    if gram_fits(A):
        gram_step = 0 if need_gradient else n

    def drift():
        """Relative drift of the kept state from its value rebuilt from x:
        of s when G is held, else of r, which then takes the rebuilt value."""
        if G is None:
            fresh = b - matvec(A, x)
            diff = r - fresh
            r[:] = fresh
            return _relative_drift(diff, b)
        return _relative_drift(s - (atb - G @ x), atb) if need_gradient else 0.0

    def energy(x):
        return energy_error_sq(A, x, x_star) if x_star is not None else None

    trace = [] if record else None
    max_drift = 0.0
    k = 0
    err = lo = hi = 0.0
    grad_sq = res = None
    x_star_entries = x_star_unit.tolist() if estimate else None
    # stale: s was updated from G since it was last computed fresh.
    # refresh: s must be computed fresh before it is next used.
    stale = refresh = False

    while True:
        if refresh:
            s = transpose_matvec(A, r if G is None else b - matvec(A, x))
            s_max_fresh = float(np.abs(s).max())
            stale = refresh = False
        if estimate and lo < err < hi and k % DRIFT_CHECK_INTERVAL and k < config.max_iterations:
            # err proves res above the tolerance (_scaled_error_sq).
            reached = False
        else:
            # The state of iterate k, fresh.  The stop measure final_res is
            # res, else the gradient ratio; a fresh res restarts err and
            # the window (lo, hi) that err must stay in to skip this.
            if record or not use_res_stop:
                # Without a kept s (rgs with a known solution) a trace's
                # gradient is A^T r from the kept r, or A^T b - G x.
                g = s if need_gradient else transpose_matvec(A, r) if G is None else atb - G @ x
                grad_sq = float(np.dot(g, g))
            if use_res_stop:
                err = _scaled_error_sq(x, x_star_unit, scale)
                res = final_res = err / x_star_unit_sq
                lo = max(RES_STOP_MARGIN * tol * x_star_unit_sq, RES_FALL_REFRESH * err)
                hi = min(err / RES_FALL_REFRESH, 2.0**1000)
                reached = res <= tol
            else:
                final_res = grad_sq / grad0_sq if grad0_sq > 0.0 else 0.0
                reached = grad_sq <= tol * grad0_sq
            if not math.isfinite(final_res):
                name = "relative solution error" if use_res_stop else "gradient ratio"
                raise NonFiniteValue(f"the {name} is {final_res} at iteration {k}")
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
            j, members, threshold = select(s)
        except AllZeroGradient:
            if estimate:
                res = _scaled_error_sq(x, x_star_unit, scale) / x_star_unit_sq
            # A zero s is fresh (its fall set refresh), and a fresh zero
            # gradient meets the gradient rule, so this is the res rule.
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
            if not need_gradient:
                # The residual's drift is measured once more; r is then unused.
                max_drift = max(max_drift, drift())
                atb = problem.atb
            G = problem.gram

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
        max_drift = max(max_drift, drift())
    elapsed = time.perf_counter() - t_start

    if record:
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

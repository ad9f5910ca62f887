"""Property tests of the solve loop on small generated problems, of its
running res against a res computed at every step, of rgs's block draws on
generated norm tables, of grcd's selection against its earlier code on
generated gradients, and of the MatrixMarket reader on small generated
files.

Each solve example is a seeded Gaussian matrix, optionally thinned to a
sparse pattern (every column keeps at least one entry), solved in dense
column-major storage and as a CSC copy.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import ref_ggs_randomized_select, ref_ggs_select, ref_grcd_select, ref_rgs_select

from greedylsq import solvers
from greedylsq.exceptions import AllZeroGradient, GreedyLsqError, RankDeficient
from greedylsq.linalg import column_dot, column_norms_sq
from greedylsq.problems import LsqProblem, load_matrix_market
from greedylsq.solvers import (
    TIE_TOLERANCE_REL,
    Method,
    SolverConfig,
    StopReason,
    ggs_randomized_select,
    ggs_select,
    grcd_select,
    rgs_select,
    solve,
    step,
)

# Fewer steps than a drift checkpoint, so replaying the chosen columns
# from zero follows the solver's iterates, to rounding.
MAX_STEPS = 500

# The number of examples comes from the loaded hypothesis profile
# (tests/conftest.py): 40 by default, 1,500 under --hypothesis-profile=thorough.
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([1.0, 0.5]))
    known = draw(st.booleans())
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A[rng.random((m, n)) >= density] = 0.0
    A[rng.integers(0, m, size=n), np.arange(n)] = rng.standard_normal(n) + 3.0
    A = np.asfortranarray(A)
    x_true = rng.standard_normal(n) if known else None
    b = A @ x_true if known else rng.standard_normal(m)
    return A, b, x_true


def _config(method, seed=0, record_trace=True):
    return SolverConfig(method=method, seed=seed, record_trace=record_trace,
                        max_iterations=MAX_STEPS, res_tolerance=1e-10)


def _solve(A, b, x_true, config):
    """The solve's report, or None if it raised RankDeficient, which only
    a rank-deficient A may do: its x_true is then one of many solutions."""
    try:
        return solve(LsqProblem(matrix=A, rhs=b, known_solution=x_true), config)
    except RankDeficient:
        dense = A.toarray() if sparse.issparse(A) else A
        assert np.linalg.matrix_rank(dense) < A.shape[1]
        return None


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(list(Method)), st.integers(0, 1000))
def test_dense_and_csc_storage_give_the_same_trace(prob, method, seed):
    A, b, x_true = prob
    dense = _solve(A, b, x_true, _config(method, seed))
    csc = _solve(sparse.csc_array(A), b, x_true, _config(method, seed))
    assert (dense is None) == (csc is None)
    if dense is None:
        return
    assert (dense.iterations, dense.stop_reason) == (csc.iterations, csc.stop_reason)
    assert len(dense.trace) == len(csc.trace)
    # Selections match exactly.  The two storage forms sum products in
    # different orders, so each recorded value agrees to rounding relative
    # to the largest magnitude that value takes over the run.
    for d, c in zip(dense.trace, csc.trace):
        assert (d.iteration, d.chosen_index, d.candidate_set_size) == \
               (c.iteration, c.chosen_index, c.candidate_set_size)
    for name in ("candidate_norm_sum", "threshold", "residual_gradient_norm_sq",
                 "energy_error_sq", "res"):
        a = [getattr(rec, name) for rec in dense.trace]
        z = [getattr(rec, name) for rec in csc.trace]
        assert [v is None for v in a] == [v is None for v in z]
        a = np.array([v for v in a if v is not None])
        z = np.array([v for v in z if v is not None])
        if a.size:
            scale = max(np.abs(a).max(), np.abs(z).max())
            assert np.abs(a - z).max() <= 1e-9 * scale, name
    np.testing.assert_allclose(dense.solution, csc.solution, rtol=1e-9, atol=1e-12)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from(list(Method)), st.booleans())
def test_residual_is_orthogonal_to_the_stepped_column(prob, method, use_csc):
    A, b, x_true = prob
    M = sparse.csc_array(A) if use_csc else A
    report = _solve(M, b, x_true, _config(method))
    if report is None:
        return
    norms = column_norms_sq(M)
    x, r = np.zeros(A.shape[1]), b.copy()
    for rec in report.trace[:-1]:
        j = rec.chosen_index
        # An upper bound on ||r|| that cannot underflow, since runs with
        # m < n drive the residual far below 1e-154.
        r_bound = np.sqrt(len(r)) * np.abs(r).max()
        step(x, r, M, j, norms[j])
        # Once r is subnormal it carries fewer significant bits, so the
        # relative bound gets an absolute floor of subnormal rounding.
        col_norm = np.sqrt(norms[j])
        floor = 8 * len(r) * (1.0 + col_norm) * np.finfo(float).smallest_subnormal
        assert abs(column_dot(M, j, r)) <= 1e-12 * col_norm * r_bound + floor
    # The solve steps on the gradient, the replay on the residual: equal to rounding.
    np.testing.assert_allclose(x, report.solution, rtol=0, atol=1e-11 * np.abs(x).max())


@PROPERTY_SETTINGS
@given(problems())
def test_ggs_energy_error_never_increases(prob):
    A, b, x_true = prob
    if x_true is None:
        x_true = np.linalg.lstsq(A, b, rcond=None)[0]
    report = _solve(A, b, x_true, _config(Method.GGS))
    if report is None:
        return
    energy = [rec.energy_error_sq for rec in report.trace]
    slack = 1e-12 * energy[0]
    assert all(nxt <= cur + slack for cur, nxt in zip(energy, energy[1:]))


@st.composite
def degenerate_problems(draw):
    """A zero column, a duplicated column, or fewer rows than columns."""
    kind = draw(st.sampled_from(["zero column", "duplicate column", "m < n"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "m < n":
        m = draw(st.integers(1, 5))
        n = draw(st.integers(m + 1, 6))
    else:
        m = draw(st.integers(3, 12))
        n = draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    j, k = rng.choice(n, size=2, replace=False)
    if kind == "zero column":
        A[:, j] = 0.0
    elif kind == "duplicate column":
        A[:, j] = A[:, k]
    x_true = rng.standard_normal(n) if draw(st.booleans()) else None
    b = A @ x_true if x_true is not None else rng.standard_normal(m)
    return np.asfortranarray(A), b, x_true


@PROPERTY_SETTINGS
@given(degenerate_problems(), st.integers(0, 1000))
def test_degenerate_input_never_claims_false_convergence(prob, seed):
    """No method claims a convergence it did not reach, and on a zero
    column all four either raise the same error or all run."""
    A, b, x_true = prob
    outcomes = set()
    for method in Method:
        config = SolverConfig(method=method, seed=seed, max_iterations=2_000, res_tolerance=1e-10)
        try:
            report = solve(LsqProblem(matrix=A, rhs=b, known_solution=x_true), config)
        except GreedyLsqError as exc:
            outcomes.add(type(exc))
            continue
        outcomes.add(None)
        if report.stop_reason is not StopReason.ITERATION_CAP:
            assert report.final_res <= config.res_tolerance
    if not A.any(axis=0).all():
        assert len(outcomes) == 1, outcomes


@st.composite
def rgs_norm_tables(draw):
    """Squared column norms, some of them zero, at least one not."""
    norms = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=40))
    norms[draw(st.integers(0, len(norms) - 1))] = draw(st.floats(1e-6, 1e6))
    return np.array(norms)


@PROPERTY_SETTINGS
@given(rgs_norm_tables(), st.integers(0, 2**32 - 1), st.integers(1, 1_100))
def test_rgs_block_draw_equals_one_draw_per_step(norms, seed, size):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = rgs_select(np.cumsum(norms), rng, size)
    assert draws == [ref_rgs_select(norms, float(norms.sum()), rng_ref) for _ in range(size)]
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert (norms[draws] > 0.0).all()


@st.composite
def grcd_inputs(draw):
    """(s, col_norms_sq, frob_sq) for grcd_select: n from 1 to 40, zero
    columns whose gradient entry is zero or not, subnormal and zero
    gradient entries, everything scaled by up to 1e+-300, and three kinds
    of ties: repeated values, which tie at the best ratio, an exact
    power-of-two tie of every entry at the threshold, and frob_sq chosen
    to put the threshold on one column's ratio."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "repeated", "equal", "at_threshold"]))
    if kind == "equal":
        n = 2 ** draw(st.integers(0, 5))
        s = np.full(n, 2.0 ** draw(st.integers(-4, 4))) * rng.choice([-1.0, 1.0], n)
        norms = np.full(n, 2.0 ** draw(st.integers(-4, 4)))
    else:
        s = rng.standard_normal(n)
        norms = rng.random(n) + 0.05
        if kind == "repeated":
            s = rng.choice(s[:3], n) * rng.choice([-1.0, 1.0], n)
            norms = rng.choice(norms[:2], n)
    s[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    s[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 5e-324 * rng.integers(1, 2**20)
    zero_cols = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    norms[zero_cols] = 0.0
    if draw(st.booleans()):
        s[zero_cols] = 0.0
    s = s * 10.0 ** draw(st.sampled_from([0, 300, -300, 150, -150]))
    norms = norms * 10.0 ** draw(st.sampled_from([0, 100, -100]))
    frob_sq = float(norms.sum()) or 1.0
    live = norms > 0.0
    if kind == "at_threshold" and live.any() and np.abs(s).max() > 0.0:
        t = np.ldexp(s, -math.frexp(np.abs(s).max())[1])
        sq = t * t
        ratios = np.divide(sq, norms, out=np.zeros_like(sq), where=live)
        target = ratios[rng.choice(np.flatnonzero(live))]
        if 2.0 * target > ratios.max():
            frob_sq = float(sq.sum()) / (2.0 * target - ratios.max())
    return s, norms, frob_sq


@PROPERTY_SETTINGS
@given(grcd_inputs(), st.integers(0, 2**32 - 1))
def test_grcd_select_equals_its_earlier_code_bit_for_bit(inputs, seed):
    s, norms, frob_sq = inputs
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        try:
            expected = ref_grcd_select(s, norms, frob_sq, rng_ref)
        except AllZeroGradient:
            with pytest.raises(AllZeroGradient):
                grcd_select(s, norms, frob_sq, rng)
            assert not s.any()
            break
        j, members, threshold = grcd_select(s, norms, frob_sq, rng)
        j_ref, members_ref, threshold_ref = expected
        assert j == j_ref and type(j) is int
        assert members.dtype == members_ref.dtype and members.tobytes() == members_ref.tobytes()
        assert type(threshold) is float and threshold.hex() == threshold_ref.hex()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@st.composite
def ggs_inputs(draw, kind, exponent):
    """(s, col_norms_sq) for the greedy selections: n from 1 to 40, s
    scaled by 10**exponent, zero and subnormal gradient entries, and one
    of five kinds: random, repeated values, which tie on both stages,
    entries exactly at the tie cut and one ulp below it, a zero-norm
    column that is the one candidate or one of a tie, and a NaN entry."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.standard_normal(n)
    norms = rng.random(n) + 0.05
    if kind == "repeated":
        s = rng.choice(s[:3], n) * rng.choice([-1.0, 1.0], n)
        norms = rng.choice(norms[:2], n)
    s[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    s[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 5e-324 * rng.integers(1, 2**20)
    s = s * 10.0 ** exponent
    norms = norms * 10.0 ** draw(st.sampled_from([0, 100, -100]))
    s_max = np.abs(s).max()
    if kind == "cut" and s_max > 0.0:
        cut = (1.0 - TIE_TOLERANCE_REL) * s_max
        at = rng.permutation(n)[:2]
        s[at[0]] = cut * rng.choice([-1.0, 1.0])
        s[at[-1]] = np.nextafter(cut, 0.0) * rng.choice([-1.0, 1.0])
    elif kind == "zero_column" and s_max > 0.0:
        top = rng.permutation(n)[:draw(st.integers(1, 3))]
        s[top] = 2.0 * s_max * rng.choice([-1.0, 1.0], top.size)
        norms[top[-1]] = 0.0
    elif kind == "nan":
        s[rng.integers(n)] = np.nan
    return s, norms


@pytest.mark.parametrize("exponent", [0, 300, -300])
@pytest.mark.parametrize("kind", ["random", "repeated", "cut", "zero_column", "nan"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_greedy_selections_equal_their_earlier_code_bit_for_bit(kind, exponent, data, seed):
    s, norms = data.draw(ggs_inputs(kind, exponent))
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = ref_ggs_select(s, norms, TIE_TOLERANCE_REL)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            ggs_select(s, norms)
        assert raised.type is type(exc)
    else:
        j, candidates = ggs_select(s, norms)
        assert j == expected[0] and type(j) is int
        assert candidates.dtype == expected[1].dtype and candidates.tobytes() == expected[1].tobytes()
    for _ in range(3):
        try:
            expected = ref_ggs_randomized_select(s, norms, TIE_TOLERANCE_REL, rng_ref)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                ggs_randomized_select(s, norms, rng)
            assert raised.type is type(exc)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            break
        j, candidates = ggs_randomized_select(s, norms, rng)
        assert j == expected[0] and type(j) is int
        assert candidates.dtype == expected[1].dtype and candidates.tobytes() == expected[1].tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@st.composite
def full_rank_problems(draw):
    """A full-column-rank Gaussian matrix with columns scaled by up to
    10^+-2, thinned or not, and its least-squares solution, for a
    consistent or an inconsistent rhs."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, min(m, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 2, n)
    if draw(st.booleans()):
        A[rng.random((m, n)) >= 0.5] = 0.0
    assume(np.linalg.matrix_rank(A) == n)
    x_true = rng.standard_normal(n)
    b = A @ x_true
    if draw(st.booleans()):
        b = b + rng.standard_normal(m)
        x_true = np.linalg.lstsq(A, b, rcond=None)[0]
    return np.asfortranarray(A), b, x_true


def _outcome(problem, config):
    try:
        report = solve(problem, config)
    except GreedyLsqError as exc:
        return type(exc), str(exc)
    return (report.iterations, report.stop_reason, report.final_res.hex(),
            report.solution.tobytes(), report.max_drift_rel.hex())


@PROPERTY_SETTINGS
@given(full_rank_problems(), st.sampled_from(list(Method)), st.integers(0, 1000),
       st.sampled_from([1e-6, 1e-10, 1e-14, 1e-15]), st.sampled_from([7, 500, 2_000]))
def test_running_res_reports_what_a_res_check_at_every_step_does(prob, method, seed, tol, cap):
    """An infinite RES_STOP_MARGIN computes res fresh at every step, as a
    solve did before it kept a running error."""
    A, b, x_true = prob
    config = SolverConfig(method=method, seed=seed, max_iterations=cap, res_tolerance=tol)
    for M in (A, sparse.csc_array(A)):
        problem = LsqProblem(matrix=M, rhs=b, known_solution=x_true)
        with mock.patch.object(solvers, "RES_STOP_MARGIN", math.inf):
            reference = _outcome(problem, config)
        assert _outcome(problem, config) == reference


# Tokens a well-formed body never holds: some parse (underscores, NaN,
# overflow to inf, out-of-range or non-integer indices), some do not
# (indices beyond int64, words, hex, a comment character).
_ODD_TOKENS = ["1_0", "2_5.0", "nan", "-inf", "1e400", "0", "-1", "1.5", "99999999999999999999",
               "-99999999999999999999", "x", "0x1", "%"]


@st.composite
def matrix_market_texts(draw):
    """A MatrixMarket text of every format, field and symmetry with 1-3
    rows and columns: a body whose indices lie inside the declared shape,
    with at most one token, field count or entry count made wrong."""
    fmt = draw(st.sampled_from(["coordinate", "array"]))
    field = draw(st.sampled_from(["real", "integer", "pattern", "complex"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "skew-symmetric", "hermitian"]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = st.sampled_from(["1", "-2.5", "0", "3e-1", "7"])
    if fmt == "coordinate":
        count = draw(st.integers(0, 4))
        lines = [[str(m), str(n), str(count)]] + [
            [str(draw(st.integers(1, m))), str(draw(st.integers(1, n)))]
            + ([] if field == "pattern" else [draw(value)]) for _ in range(count)]
    else:
        count = draw(st.sampled_from([m * n, n * (n + 1) // 2, n * (n - 1) // 2]))
        lines = [[str(m), str(n)]] + [[draw(value)] for _ in range(count)]

    fault = draw(st.sampled_from(["none", "token", "extra field", "missing field", "extra line"]))
    row = draw(st.integers(0, len(lines) - 1))
    if fault == "token":
        lines[row][draw(st.integers(0, len(lines[row]) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    elif fault == "extra field":
        lines[row].append(draw(value))
    elif fault == "missing field":
        lines[row].pop()
    elif fault == "extra line":
        lines.append(list(lines[row]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(["%", "% note", ""]))])
    body = "".join(" ".join(line) + "\n" for line in lines)
    return f"%%MatrixMarket matrix {fmt} {field} {symmetry}\n{body}"


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "matrix.mtx"


# Reading a small file takes about a millisecond, a tenth of a small
# solve, so this test runs ten times the profile's examples.
@settings(PROPERTY_SETTINGS, max_examples=10 * settings.default.max_examples)
@given(text=matrix_market_texts())
def test_a_matrix_file_loads_as_canonical_csc_or_names_its_fault(mtx_path, text):
    mtx_path.write_text(text)
    try:
        M = load_matrix_market(mtx_path)
    except GreedyLsqError:
        return
    assert M.format == "csc" and M.has_canonical_format
    assert not np.any(M.data == 0.0)

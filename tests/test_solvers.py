import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import sparse

from conftest import report_digest
from oracles import ref_ggs_randomized_select, ref_ggs_select, ref_rgs_select

from greedylsq import problems, solvers
from greedylsq.analysis import gram_matrix
from greedylsq.exceptions import (
    AllZeroGradient,
    GreedyLsqError,
    NonFiniteValue,
    RankDeficient,
    ZeroColumn,
)
from greedylsq.linalg import column_dot, column_norms_sq
from greedylsq.problems import LsqProblem, gen_gaussian, make_consistent, make_inconsistent
from greedylsq.solvers import (
    DRIFT_CHECK_INTERVAL,
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


def worked_problem():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], order="F")
    return LsqProblem(matrix=A, rhs=np.array([1.0, 2.0, 3.0]),
                      known_solution=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

def test_ggs_select_prefers_normalized_winner():
    j, cand = ggs_select(np.array([1.0, 4.0]), np.array([1.0, 4.0]))
    assert j == 1 and list(cand) == [1]


def test_ggs_select_tie_breaks_to_lowest_index():
    j, cand = ggs_select(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert j == 0 and list(cand) == [0, 1]


def test_ggs_select_stage_two_uses_norm_ratio():
    j, cand = ggs_select(np.array([2.0, 2.0]), np.array([4.0, 1.0]))
    assert j == 1 and list(cand) == [0, 1]


def test_ggs_select_zero_gradient_raises():
    with pytest.raises(AllZeroGradient):
        ggs_select(np.zeros(3), np.ones(3))


def test_ggs_select_zero_norm_candidate_raises():
    with pytest.raises(ZeroColumn):
        ggs_select(np.array([1.0, 0.5]), np.array([0.0, 1.0]))


def test_grcd_select_hand_threshold():
    rng = np.random.default_rng(0)
    j, members, threshold = grcd_select(np.array([1.0, 4.0]), np.array([1.0, 4.0]), 5.0, rng)
    assert j == 1 and list(members) == [1]
    assert threshold == pytest.approx(0.5 * (4.0 / 17.0 + 1.0 / 5.0), rel=1e-15)


def test_grcd_select_symmetric_keeps_all_and_samples_uniformly():
    s = np.full(4, 2.0)
    norms = np.ones(4)
    rng = np.random.default_rng(12)
    counts = np.zeros(4)
    for _ in range(4000):
        j, members, _ = grcd_select(s, norms, 4.0, rng)
        assert list(members) == [0, 1, 2, 3]
        counts[j] += 1
    freq = counts / 4000
    sigma = np.sqrt(0.25 * 0.75 / 4000)
    assert np.all(np.abs(freq - 0.25) < 3 * sigma + 1e-9)


def test_grcd_select_single_column():
    j, members, _ = grcd_select(np.array([3.0]), np.array([2.0]), 2.0, np.random.default_rng(5))
    assert j == 0 and list(members) == [0]


def test_grcd_membership_invariant():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        s = rng.standard_normal(n)
        norms = rng.random(n) + 0.1
        frob = float(norms.sum())
        j, members, _ = grcd_select(s, norms, frob, rng)
        assert j in members
        best = int(np.argmax(s * s / norms))
        assert best in members


@pytest.mark.parametrize("power", [600, -600])
def test_greedy_selections_ignore_the_scale_of_the_gradient(power):
    # 2**600 squared overflows and 2**-600 squared underflows to zero; the
    # selections, member sets, thresholds and draws must not notice.
    s = np.random.default_rng(6).standard_normal(9)
    norms = np.random.default_rng(7).random(9) + 0.5
    scaled = s * 2.0 ** power
    for seed in range(5):
        j, members, threshold = grcd_select(s, norms, 9.0, np.random.default_rng(seed))
        j2, members2, threshold2 = grcd_select(scaled, norms, 9.0, np.random.default_rng(seed))
        assert (j, list(members), threshold) == (j2, list(members2), threshold2)
    # Entries above 1 in magnitude become ties at +-3, so both greedy
    # rules see several candidates with different norm ratios.
    tied = np.where(np.abs(s) > 1.0, np.sign(s) * 3.0, s)
    for rule in (lambda v, rng: ggs_select(v, norms),
                 lambda v, rng: ggs_randomized_select(v, norms, rng)):
        j, cand = rule(tied, np.random.default_rng(4))
        j2, cand2 = rule(tied * 2.0 ** power, np.random.default_rng(4))
        assert (j, list(cand)) == (j2, list(cand2))


def test_rgs_select_frequencies():
    rng = np.random.default_rng(31)
    draws = 10_000
    norms = np.array([1.0, 3.0])
    counts = sum(rgs_select(np.cumsum(norms), rng, draws))
    freq = counts / draws
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(freq - 0.75) < 3 * sigma


def test_rgs_select_uniform_when_equal_norms():
    rng = np.random.default_rng(77)
    draws = 10_000
    n = 4
    counts = np.bincount(rgs_select(np.cumsum(np.ones(n)), rng, draws), minlength=n)
    sigma = np.sqrt((1 / n) * (1 - 1 / n) / draws)
    assert np.all(np.abs(counts / draws - 1 / n) < 3 * sigma + 1e-9)


def test_rgs_select_single_column():
    assert rgs_select(np.cumsum([2.0]), np.random.default_rng(0), 1000) == [0] * 1000


def test_ggs_randomized_single_candidate_matches_deterministic():
    s = np.array([1.0, 4.0])
    norms = np.array([1.0, 4.0])
    j_det, cand_det = ggs_select(s, norms)
    j_rand, cand_rand = ggs_randomized_select(s, norms, np.random.default_rng(3))
    assert j_det == j_rand == 1
    assert list(cand_det) == list(cand_rand)


def test_ggs_randomized_sampling_weights():
    rng = np.random.default_rng(9)
    draws = 10_000
    hits = 0
    for _ in range(draws):
        j, _ = ggs_randomized_select(np.array([2.0, 2.0]), np.array([4.0, 1.0]), rng)
        hits += j
    freq = hits / draws
    sigma = np.sqrt(0.8 * 0.2 / draws)
    assert abs(freq - 0.8) < 3 * sigma


def test_ggs_randomized_uniform_on_full_tie():
    rng = np.random.default_rng(14)
    draws = 6000
    counts = np.zeros(3)
    for _ in range(draws):
        j, _ = ggs_randomized_select(np.ones(3), np.ones(3), rng)
        counts[j] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    assert np.all(np.abs(counts / draws - 1 / 3) < 3 * sigma + 1e-9)


def selection_cases():
    """(s, norms) pairs: random gradients, exact ties, one-candidate sets,
    and all of them scaled near the ends of the float range."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 40))
        s = rng.standard_normal(n)
        norms = rng.random(n) + 0.05
        cases.append((s, norms))
        # Ties: the largest magnitudes rounded to a shared value, with signs.
        tied = np.where(np.abs(s) > 0.8, np.sign(s) * 2.0, s)
        cases.append((tied, norms))
        # Integer gradients and norms tie exactly on both stages.
        ints = rng.integers(-3, 4, n).astype(float)
        ints[int(rng.integers(n))] = 3.0
        cases.append((ints, rng.integers(1, 3, n).astype(float)))
        one = np.zeros(n)
        one[int(rng.integers(n))] = float(rng.standard_normal()) or 1.0
        cases.append((one, norms))
    return cases + [(1e-300 * s, norms) for s, norms in cases] + [
        (1e300 * s, norms) for s, norms in cases]


def test_ggs_select_matches_reference_selection():
    for s, norms in selection_cases():
        j, cand = ggs_select(s, norms)
        j_ref, cand_ref = ref_ggs_select(s, norms, 1e-12)
        assert j == j_ref
        assert cand.tobytes() == cand_ref.tobytes() and cand.dtype == cand_ref.dtype


def test_ggs_randomized_select_matches_reference_selection_and_rng_state():
    for i, (s, norms) in enumerate(selection_cases()):
        rng, rng_ref = np.random.default_rng(i), np.random.default_rng(i)
        for _ in range(3):
            j, cand = ggs_randomized_select(s, norms, rng)
            j_ref, cand_ref = ref_ggs_randomized_select(s, norms, 1e-12, rng_ref)
            assert j == j_ref
            assert cand.tobytes() == cand_ref.tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("s, norms, exc", [
    (np.zeros(3), np.ones(3), AllZeroGradient),
    (np.array([1.0, 0.5]), np.array([0.0, 1.0]), ZeroColumn),
    (np.array([1.0, 1.0]), np.array([1.0, 0.0]), ZeroColumn),
])
def test_greedy_selections_raise_like_the_reference(s, norms, exc):
    for select in (lambda: ggs_select(s, norms),
                   lambda: ref_ggs_select(s, norms, 1e-12),
                   lambda: ggs_randomized_select(s, norms, np.random.default_rng(0)),
                   lambda: ref_ggs_randomized_select(s, norms, 1e-12, np.random.default_rng(0))):
        with pytest.raises(exc):
            select()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_greedy_selection_names_a_non_finite_gradient_before_any_draw(bad):
    s, norms = np.array([1.0, bad, 2.0]), np.ones(3)
    for select in (lambda rng: ggs_select(s, norms),
                   lambda rng: ggs_randomized_select(s, norms, rng),
                   lambda rng: grcd_select(s, norms, 3.0, rng)):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NonFiniteValue, match="the gradient has a NaN or infinite entry"):
            select(rng)
        assert rng.bit_generator.state == state


def test_rgs_select_draws_match_the_per_step_table():
    norms = np.random.default_rng(8).random(37) + 0.01
    norms[[3, 20]] = 0.0
    cum = np.cumsum(norms)
    rng, rng_ref = np.random.default_rng(40), np.random.default_rng(40)
    draws = rgs_select(cum, rng, 10_000)
    ref = [ref_rgs_select(norms, float(norms.sum()), rng_ref) for _ in range(10_000)]
    assert draws == ref
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert 3 not in draws and 20 not in draws


# ---------------------------------------------------------------------------
# step and solve
# ---------------------------------------------------------------------------

def test_step_hand_values(worked_dense):
    x = np.zeros(2)
    r = np.array([1.0, 2.0, 3.0])
    step(x, r, worked_dense, 1, 4.0)
    assert np.array_equal(x, [0.0, 1.0])
    assert np.array_equal(r, [1.0, 0.0, 3.0])
    step(x, r, worked_dense, 0, 1.0)
    assert np.array_equal(x, [1.0, 1.0])
    assert np.array_equal(r, [0.0, 0.0, 3.0])
    assert np.array_equal(np.asarray([column_dot(worked_dense, j, r) for j in range(2)]), [0.0, 0.0])


def test_step_noop_when_column_orthogonal(worked_dense):
    x = np.zeros(2)
    r = np.array([0.0, 0.0, 3.0])
    step(x, r, worked_dense, 0, 1.0)
    assert np.array_equal(x, [0.0, 0.0])
    assert np.array_equal(r, [0.0, 0.0, 3.0])


def test_step_zero_column_raises(worked_dense):
    with pytest.raises(ZeroColumn):
        step(np.zeros(2), np.ones(3), worked_dense, 0, 0.0)


def test_solve_hand_trace():
    report = solve(worked_problem(), SolverConfig(method=Method.GGS, record_trace=True))
    assert report.iterations == 2
    assert report.stop_reason is StopReason.RES_REACHED
    assert np.array_equal(report.solution, [1.0, 1.0])
    assert report.final_res == 0.0
    chosen = [rec.chosen_index for rec in report.trace if rec.chosen_index is not None]
    assert chosen == [1, 0]
    # terminal record captures the converged state
    assert report.trace[-1].chosen_index is None
    assert report.trace[-1].residual_gradient_norm_sq == 0.0


def test_solve_zero_rhs_without_known_solution(worked_dense):
    problem = LsqProblem(matrix=worked_dense, rhs=np.zeros(3))
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert report.iterations == 0
    assert report.stop_reason is StopReason.GRADIENT_REACHED
    assert np.array_equal(report.solution, [0.0, 0.0])


def test_solve_gradient_stopping_without_known_solution(worked_dense):
    problem = LsqProblem(matrix=worked_dense, rhs=np.array([1.0, 2.0, 3.0]))
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert report.iterations == 2
    assert report.stop_reason is StopReason.GRADIENT_REACHED
    np.testing.assert_allclose(report.solution, [1.0, 1.0], rtol=1e-12)


def test_solve_iteration_cap():
    A = gen_gaussian(60, 8, seed=2)
    problem = make_consistent(A, seed=3)
    report = solve(problem, SolverConfig(method=Method.GGS, max_iterations=3))
    assert report.stop_reason is StopReason.ITERATION_CAP
    assert report.iterations == 3


def test_solve_table_scale_iteration_count():
    A = gen_gaussian(1000, 50, seed=7)
    problem = make_consistent(A, seed=1007)
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert 100 <= report.iterations <= 160


def test_every_step_orthogonal_to_its_column():
    # Replay the recorded choices and check the update-rule orthogonality.
    A = gen_gaussian(200, 20, seed=12)
    problem = make_consistent(A, seed=13)
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    norms = column_norms_sq(A)
    x = np.zeros(20)
    r = problem.rhs.copy()
    for rec in report.trace:
        if rec.chosen_index is None:
            continue
        j = rec.chosen_index
        step(x, r, A, j, norms[j])
        bound = 1e-10 * np.sqrt(norms[j]) * np.linalg.norm(r)
        assert abs(column_dot(A, j, r)) <= bound
    # The solve steps on the gradient, the replay on the residual: equal to rounding.
    np.testing.assert_allclose(x, report.solution, rtol=0, atol=1e-11 * np.abs(x).max())


def test_energy_error_monotone_along_trace():
    for method in (Method.GGS, Method.GRCD, Method.RGS):
        A = gen_gaussian(150, 15, seed=21)
        problem = make_consistent(A, seed=22)
        report = solve(problem, SolverConfig(method=method, seed=5, record_trace=True))
        energies = [rec.energy_error_sq for rec in report.trace]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1 + 1e-12)


def test_ggs_selection_matches_full_scan_along_run():
    A = gen_gaussian(120, 12, seed=31)
    problem = make_inconsistent(A, seed=32)
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    norms = column_norms_sq(A)
    x = np.zeros(12)
    r = problem.rhs.copy()
    for rec in report.trace:
        if rec.chosen_index is None:
            continue
        s = np.array([column_dot(A, j, r) for j in range(12)])
        cand = np.flatnonzero(np.abs(s) >= (1 - 1e-12) * np.abs(s).max())
        ratios = s[cand] ** 2 / norms[cand]
        best = cand[int(np.argmax(ratios))]
        assert rec.chosen_index == best
        assert (s[rec.chosen_index] ** 2 / norms[rec.chosen_index]) == pytest.approx(
            float(ratios.max()), rel=1e-15)
        step(x, r, A, rec.chosen_index, norms[rec.chosen_index])


def test_deterministic_methods_reproduce_traces():
    A = gen_gaussian(100, 10, seed=41)
    problem = make_consistent(A, seed=42)
    r1 = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    r2 = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    assert [rec.chosen_index for rec in r1.trace] == [rec.chosen_index for rec in r2.trace]
    np.testing.assert_array_equal(r1.solution, r2.solution)


def test_seeded_methods_reproduce_traces():
    A = gen_gaussian(100, 10, seed=43)
    problem = make_consistent(A, seed=44)
    for method in (Method.GRCD, Method.RGS, Method.GGS_RANDOMIZED):
        r1 = solve(problem, SolverConfig(method=method, seed=17, record_trace=True))
        r2 = solve(problem, SolverConfig(method=method, seed=17, record_trace=True))
        assert [rec.chosen_index for rec in r1.trace] == [rec.chosen_index for rec in r2.trace]
        np.testing.assert_array_equal(r1.solution, r2.solution)


def test_grcd_trace_stays_inside_member_sets():
    A = gen_gaussian(80, 8, seed=51)
    problem = make_consistent(A, seed=52)
    report = solve(problem, SolverConfig(method=Method.GRCD, seed=3, record_trace=True))
    for rec in report.trace:
        if rec.chosen_index is not None:
            assert rec.candidate_set_size >= 1
            assert rec.threshold is not None


def test_residual_drift_stays_small_on_long_runs():
    # Scaled columns force thousands of iterations, crossing several
    # drift checkpoints.
    rng = np.random.default_rng(61)
    A = np.asfortranarray(rng.standard_normal((120, 20)) * np.logspace(0, -4, 20))
    problem = make_consistent(A, seed=62)
    report = solve(problem, SolverConfig(method=Method.GGS, max_iterations=50_000,
                                         res_tolerance=1e-12))
    assert report.iterations > 2000
    assert report.stop_reason is StopReason.RES_REACHED
    assert report.max_drift_rel <= 1e-8


def test_sparse_storage_reproduces_dense_trace(worked_csc):
    dense = worked_problem()
    sparse_prob = LsqProblem(matrix=worked_csc, rhs=dense.rhs,
                             known_solution=dense.known_solution)
    r_dense = solve(dense, SolverConfig(method=Method.GGS, record_trace=True))
    r_sparse = solve(sparse_prob, SolverConfig(method=Method.GGS, record_trace=True))
    assert [rec.chosen_index for rec in r_dense.trace] == \
           [rec.chosen_index for rec in r_sparse.trace]
    np.testing.assert_array_equal(r_dense.solution, r_sparse.solution)

    # Any other storage is coerced to the canonical form of its kind when
    # the problem is built, and then gives that form's trace bit for bit.
    rng = np.random.default_rng(7)
    D = rng.standard_normal((60, 6))
    D[rng.random((60, 6)) > 0.5] = 0.0
    for problem in (dense, make_consistent(sparse.csc_array(D), seed=8)):
        A = problem.matrix.toarray() if sparse.issparse(problem.matrix) else problem.matrix
        storages = (sparse.csc_array(A), sparse.csr_array(A), sparse.coo_array(A),
                    np.asfortranarray(A), np.ascontiguousarray(A), A.tolist())
        for method in Method:
            config = SolverConfig(method=method, seed=2, record_trace=True)
            canonical = {}  # sparse or not -> the report from the canonical form
            for matrix in storages:
                report = solve(dataclasses.replace(problem, matrix=matrix), config)
                ref = canonical.setdefault(sparse.issparse(matrix), report)
                assert report.iterations == ref.iterations
                assert report.stop_reason is ref.stop_reason
                assert report.trace == ref.trace
                assert report.solution.tobytes() == ref.solution.tobytes()
        csr = dataclasses.replace(problem, matrix=sparse.csr_array(A)).matrix
        assert csr.format == "csc" and csr.has_canonical_format
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.matrix = csr


def test_sparse_random_problem_converges():
    from scipy import sparse as sp
    rng = np.random.default_rng(71)
    D = rng.standard_normal((300, 25))
    D[rng.random((300, 25)) > 0.3] = 0.0
    A = sp.csc_array(D)
    problem = make_consistent(A, seed=72)
    for method in (Method.GGS, Method.GRCD):
        report = solve(problem, SolverConfig(method=method, seed=2))
        assert report.stop_reason is StopReason.RES_REACHED
        assert report.final_res <= 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolverConfig(res_tolerance=tol)
    assert SolverConfig(method="grcd").method is Method.GRCD
    defaults = SolverConfig()
    assert defaults.max_iterations == 200_000
    assert defaults.res_tolerance == 1e-6


def test_removed_options_are_rejected():
    with pytest.raises(TypeError):
        SolverConfig(tie_tolerance_rel=1e-9)
    with pytest.raises(TypeError):
        solve(worked_problem(), SolverConfig(), x0=np.zeros(2))
    A = gen_gaussian(10, 3, seed=1)
    for make in (make_consistent, make_inconsistent):
        with pytest.raises(TypeError):
            make(A, 1, label="x")
    for removed in ({"label": "x"}, {"consistent": True}, {"density": 0.5}):
        with pytest.raises(TypeError):
            LsqProblem(matrix=A, rhs=np.ones(10), **removed)
    s, norms = np.array([1.0, 2.0, 3.0]), np.ones(3)
    with pytest.raises(TypeError):
        ggs_select(s, norms, 1e-12)
    with pytest.raises(TypeError):
        ggs_randomized_select(s, norms, 1e-12, np.random.default_rng(0))


@pytest.mark.parametrize("method", [Method.GGS, Method.GGS_RANDOMIZED])
def test_zero_gradient_short_of_the_known_solution_raises(method):
    # Column 1 is twice column 0, so x_true is one of many solutions.  The
    # greedy rules step on column 1, the larger gradient entry, which
    # leaves r = 0 exactly at x = [0, 0.5], with res = 1.25.
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]], order="F")
    problem = LsqProblem(matrix=A, rhs=np.array([1.0, 2.0, 0.0]),
                         known_solution=np.array([1.0, 0.0]))
    with pytest.raises(RankDeficient, match=r"iteration 1 with res = 1\.250e\+00, .*"
                       r"the known solution is not the only least-squares solution"):
        solve(problem, SolverConfig(method=method))


def zero_column_probe():
    """60x6 Gaussian with column 2 zeroed and a known solution."""
    A = np.random.default_rng(0).standard_normal((60, 6))
    A[:, 2] = 0.0
    return make_consistent(A, 1)


@pytest.mark.parametrize("storage", [np.asfortranarray, sparse.csc_array])
@pytest.mark.parametrize("method", list(Method))
def test_zero_column_share_above_tol_raises_before_the_first_step(method, storage):
    problem = zero_column_probe()
    problem = dataclasses.replace(problem, matrix=storage(problem.matrix))
    with pytest.raises(RankDeficient, match=r"cannot fall below 3\.016e-02 at iteration 0"):
        solve(problem, SolverConfig(method=method))


@pytest.mark.parametrize("method", list(Method))
def test_zero_column_share_at_or_below_tol_solves(method):
    # Only the zero column's x_true entry is out of reach, and it is 0.
    problem = zero_column_probe()
    problem.known_solution[2] = 0.0
    problem = dataclasses.replace(problem, rhs=problem.matrix @ problem.known_solution)
    report = solve(problem, SolverConfig(method=method, seed=3))
    assert report.stop_reason is StopReason.RES_REACHED
    assert report.solution[2] == 0.0


@pytest.mark.parametrize("method", list(Method))
def test_all_zero_matrix_with_known_solution_raises(method):
    problem = LsqProblem(matrix=np.zeros((5, 3), order="F"), rhs=np.zeros(5),
                         known_solution=np.ones(3))
    with pytest.raises(RankDeficient, match="iteration 0"):
        solve(problem, SolverConfig(method=method))


def fewer_rows_than_columns():
    """A 5x8 Gaussian with b = A x_true: x_true is one of many solutions."""
    rng = np.random.default_rng(58)
    A = rng.standard_normal((5, 8))
    x_true = rng.standard_normal(8)
    return LsqProblem(matrix=A, rhs=A @ x_true, known_solution=x_true)


# (iterations, stop reason, final_res.hex(), SHA-256 prefix of the
# solution) of the gradient-stop solves of fewer_rows_than_columns(),
# recorded before the m < n rule was added.
FEWER_ROWS_GRADIENT_STOPS = {
    ("dense", "ggs"): (22, "gradient_reached", "0x1.cbb2a6bce5351p-21", "66efe9bb7a2ee0a8"),
    ("dense", "ggs-random"): (22, "gradient_reached", "0x1.cbb2a6bce5351p-21", "66efe9bb7a2ee0a8"),
    ("dense", "grcd"): (30, "gradient_reached", "0x1.b8a35d2cd1ba1p-21", "0b110ebca50da32b"),
    ("dense", "rgs"): (161, "gradient_reached", "0x1.3ae5e6fbd9376p-21", "3d56c2a93f6f8ac6"),
    ("csc", "ggs"): (22, "gradient_reached", "0x1.cbb2a6bce5216p-21", "857de2c73f3a0b40"),
    ("csc", "ggs-random"): (22, "gradient_reached", "0x1.cbb2a6bce5216p-21", "857de2c73f3a0b40"),
    ("csc", "grcd"): (30, "gradient_reached", "0x1.b8a35d2cd2091p-21", "cc05b7bfc6717664"),
    ("csc", "rgs"): (161, "gradient_reached", "0x1.3ae5e6fbd9400p-21", "a3d825962dffdd92"),
}


@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_fewer_rows_than_columns_with_known_solution_raises_before_the_first_step(
        count_calls, method, storage):
    problem = fewer_rows_than_columns()
    if storage == "csc":
        problem = dataclasses.replace(problem, matrix=sparse.csc_array(problem.matrix))
    grams = count_calls("gram_matrix")
    selections = count_calls("rgs_select" if method is Method.RGS else "ggs_select")
    with pytest.raises(RankDeficient) as raised:
        solve(problem, SolverConfig(method=method, seed=4))
    assert str(raised.value) == (
        "at iteration 0 the matrix has 5 rows, fewer than its 8 columns, so its rank is below 8 "
        "and the known solution is not the only least-squares solution")
    assert (len(grams), len(selections)) == (0, 0)

    # Without the known solution the gradient stop runs as before.
    report = solve(dataclasses.replace(problem, known_solution=None), SolverConfig(method=method, seed=4))
    assert (report.iterations, report.stop_reason.value, report.final_res.hex(),
            hashlib.sha256(report.solution.tobytes()).hexdigest()[:16]) == \
        FEWER_ROWS_GRADIENT_STOPS[storage, method.value]


@pytest.mark.parametrize("method", list(Method))
def test_zero_column_without_known_solution_runs(method):
    problem = dataclasses.replace(zero_column_probe(), known_solution=None)
    report = solve(problem, SolverConfig(method=method, seed=2))
    assert report.stop_reason is StopReason.GRADIENT_REACHED
    assert report.solution[2] == 0.0


def test_grcd_select_leaves_zero_columns_out():
    rng = np.random.default_rng(0)
    j, members, _ = grcd_select(np.array([1.0, 0.0, 4.0]), np.array([1.0, 0.0, 4.0]), 5.0, rng)
    assert j == 2 and list(members) == [2]
    for _ in range(50):
        j, members, _ = grcd_select(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]), 2.0, rng)
        assert j != 1 and list(members) == [0, 2]


def test_short_run_reports_its_drift():
    # No drift checkpoint is reached, so the drift is measured at exit.
    A = gen_gaussian(200, 20, seed=91)
    report = solve(make_consistent(A, seed=92), SolverConfig(method=Method.GGS))
    assert 0 < report.iterations < DRIFT_CHECK_INTERVAL
    assert 0.0 < report.max_drift_rel <= 1e-12


def test_drift_is_measured_near_the_top_of_the_float_range():
    # Scaling A by a power of two scales every product and sum exactly, so
    # the relative drift must not change, though ||A^T b||^2 overflows.
    rng = np.random.default_rng(81)
    A, x_true = rng.standard_normal((50, 5)), rng.standard_normal(5)
    reports = [solve(LsqProblem(matrix=np.asfortranarray(c * A), rhs=(c * A) @ x_true,
                                known_solution=x_true), SolverConfig(method=Method.GGS))
               for c in (1.0, 2.0**500)]
    assert reports[0].iterations == reports[1].iterations
    assert reports[1].max_drift_rel == reports[0].max_drift_rel > 0.0


# max_drift_rel.hex() of the residual loop (GRAM_BUDGET_BYTES = 0) on
# _sparse_problem() with seed 3, at both scales of the test below, recorded
# with the residual drift code that _relative_drift replaced.
RESIDUAL_DRIFT_PINS = {
    ("ggs", True): "0x1.9d2e08d6e3ef2p-53",
    ("ggs-random", True): "0x1.9d2e08d6e3ef2p-53",
    ("grcd", True): "0x1.884216189924dp-53",
    ("rgs", True): "0x1.e60b0997a7c7ap-53",
    ("ggs", False): "0x1.5a23d8d8931bfp-53",
    ("ggs-random", False): "0x1.5a23d8d8931bfp-53",
    ("grcd", False): "0x1.62db78ed3f481p-53",
    ("rgs", False): "0x1.daf2f9377fda3p-53",
}


@pytest.mark.parametrize("known", [True, False], ids=["res-stop", "gradient-stop"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_drift_is_measured_at_extreme_scales(monkeypatch, method, known):
    # A and b times 2^200 or 2^-200: the Gram-mode drift (dense and CSC)
    # stays finite and small, and the residual-mode drift keeps its bits.
    problem = _sparse_problem()
    x_true = problem.known_solution if known else None
    config = SolverConfig(method=method, seed=3)
    for c in (2.0**200, 2.0**-200):
        dense, csc = (LsqProblem(matrix=matrix * c, rhs=problem.rhs * c, known_solution=x_true)
                      for matrix in (problem.matrix.toarray(), problem.matrix))
        for scaled in (dense, csc):
            drift = solve(scaled, config).max_drift_rel
            assert math.isfinite(drift) and drift <= 1e-12
        with monkeypatch.context() as patched:
            patched.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
            report = solve(csc, config)
        assert report.max_drift_rel.hex() == RESIDUAL_DRIFT_PINS[method.value, known]


@pytest.mark.parametrize("storage", [np.asfortranarray, sparse.csc_array])
def test_residual_drift_at_a_zero_rhs_is_the_absolute_drift(storage):
    # b = 0 gives the residual's drift no reference scale.  rgs with a
    # known solution and a cap below n stays on the residual and never
    # moves x, so its drift is exactly 0, not 0 / 0.
    A = storage(gen_gaussian(50, 8, seed=3))
    problem = LsqProblem(matrix=A, rhs=np.zeros(50), known_solution=np.ones(8))
    report = solve(problem, SolverConfig(method=Method.RGS, max_iterations=5))
    assert (report.stop_reason, report.iterations, report.final_res) == (StopReason.ITERATION_CAP, 5, 1.0)
    assert report.max_drift_rel == 0.0 and not report.solution.any()


# ---------------------------------------------------------------------------
# incremental gradient: cost and honesty
# ---------------------------------------------------------------------------

def _sparse_problem():
    """A consistent 400x100 CSC problem whose 1.9k stored entries take
    fewer bytes than its dense 100x100 Gram matrix."""
    rng = np.random.default_rng(71)
    D = rng.standard_normal((400, 100))
    D[rng.random((400, 100)) > 0.05] = 0.0
    return make_consistent(sparse.csc_array(D), seed=72)


def test_gradient_stop_computes_the_initial_gradient_once(monkeypatch, count_calls):
    A = gen_gaussian(200, 20, seed=12)
    problem = LsqProblem(matrix=A, rhs=make_inconsistent(A, seed=13).rhs)
    calls = count_calls("transpose_matvec")
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert report.stop_reason is StopReason.GRADIENT_REACHED and report.iterations > 50
    # One for the initial gradient, which also gives ||A^T b||^2, and one
    # confirming the stop on a fresh gradient.
    assert len(calls) == 2

    # Without a Gram matrix the gradient is recomputed after every step.
    sparse_problem = _sparse_problem()
    problem = LsqProblem(matrix=sparse_problem.matrix, rhs=sparse_problem.rhs)
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    calls.clear()
    report = solve(problem, SolverConfig(method=Method.GGS))
    assert report.stop_reason is StopReason.GRADIENT_REACHED
    assert len(calls) == report.iterations + 1


@pytest.mark.parametrize("method", [Method.GGS, Method.GGS_RANDOMIZED, Method.GRCD])
def test_greedy_solve_computes_the_gradient_once(count_calls, method):
    problem = make_consistent(gen_gaussian(200, 20, seed=12), seed=13)
    calls = count_calls("transpose_matvec")
    grams = count_calls("gram_matrix")
    report = solve(problem, SolverConfig(method=method, seed=1))
    assert report.stop_reason is StopReason.RES_REACHED and report.iterations > 50
    assert (len(calls), len(grams)) == (1, 1)


def _dense_or_sparse_problem(storage):
    if storage == "dense":
        return make_consistent(gen_gaussian(200, 20, seed=12), seed=13)
    return _sparse_problem()


@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_rgs_with_known_solution_builds_the_gram_matrix_after_n_residual_steps(count_calls, storage):
    problem = _dense_or_sparse_problem(storage)
    n = problem.matrix.shape[1]
    names = ("gram_matrix", "step", "transpose_matvec")
    calls = {name: count_calls(name) for name in names}

    def counts(max_iterations):
        for c in calls.values():
            c.clear()
        report = solve(problem, SolverConfig(method=Method.RGS, seed=1, max_iterations=max_iterations))
        return report, {name: len(c) for name, c in calls.items()}

    # A solve of at most n steps stays on the residual: G would be built
    # just before step n.
    for cap in (n // 2, n):
        report, made = counts(cap)
        assert report.iterations == cap
        assert made == {"gram_matrix": 0, "step": cap, "transpose_matvec": 0}
    # A longer one builds G once, with A^T b, and takes no residual step after n.
    report, made = counts(200_000)
    assert report.stop_reason is StopReason.RES_REACHED and report.iterations > 2 * n
    assert made == {"gram_matrix": 1, "step": n, "transpose_matvec": 1}


def test_rgs_without_the_gram_budget_steps_on_the_residual(monkeypatch, count_calls):
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    names = ("gram_matrix", "step", "transpose_matvec")
    calls = {name: count_calls(name) for name in names}
    report = solve(_sparse_problem(), SolverConfig(method=Method.RGS, seed=1))
    assert report.stop_reason is StopReason.RES_REACHED and report.iterations > 200
    assert {name: len(c) for name, c in calls.items()} == \
           {"gram_matrix": 0, "step": report.iterations, "transpose_matvec": 0}


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_rgs_dot_form_makes_the_same_steps_as_the_residual_loop(monkeypatch, tol):
    problem = _sparse_problem()
    for seed in range(4):
        config = SolverConfig(method=Method.RGS, seed=seed, res_tolerance=tol)
        with_gram = solve(problem, config)
        with monkeypatch.context() as m:
            m.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
            residual = solve(problem, config)
        assert (with_gram.iterations, with_gram.stop_reason) == \
               (residual.iterations, residual.stop_reason)
        # The dot form takes s[j] from A^T b and G, the residual loop from
        # r: equal to rounding (8e-16 * max|x| seen).
        np.testing.assert_allclose(with_gram.solution, residual.solution, rtol=0,
                                   atol=1e-13 * np.abs(residual.solution).max())


@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_rgs_reports_the_residual_drift_measured_when_it_builds_the_gram_matrix(storage):
    problem = _dense_or_sparse_problem(storage)
    report = solve(problem, SolverConfig(method=Method.RGS, seed=1))
    assert report.iterations > problem.matrix.shape[1]
    assert 0.0 < report.max_drift_rel <= 1e-12


@pytest.mark.parametrize("method", list(Method))
def test_solve_that_stops_before_any_step_builds_no_gram_matrix(count_calls, method):
    # b is orthogonal to every column, so A^T b = 0 exactly and the
    # gradient stop holds at iteration 0.
    A = np.vstack([gen_gaussian(50, 5, seed=3), np.zeros((50, 5))])
    b = np.concatenate([np.zeros(50), np.ones(50)])
    grams = count_calls("gram_matrix")
    report = solve(LsqProblem(matrix=A, rhs=b), SolverConfig(method=method, seed=1))
    assert (report.iterations, report.stop_reason) == (0, StopReason.GRADIENT_REACHED)
    assert len(grams) == 0


@pytest.mark.parametrize("method", list(Method))
def test_per_step_gradient_path_makes_the_same_selections(monkeypatch, count_calls, method):
    problem = _sparse_problem()
    config = SolverConfig(method=method, seed=1, record_trace=True)
    incremental = solve(problem, config)
    grams = count_calls("gram_matrix")
    calls = count_calls("transpose_matvec")
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    # A fresh copy of the problem computes its own A^T b.
    per_step = solve(dataclasses.replace(problem), config)
    assert len(grams) == 0 and len(calls) == per_step.iterations + 1
    assert (per_step.iterations, per_step.stop_reason) == \
           (incremental.iterations, incremental.stop_reason)
    assert [rec.chosen_index for rec in per_step.trace] == \
           [rec.chosen_index for rec in incremental.trace]
    # The Gram path steps on s, the per-step path on r: equal to rounding.
    np.testing.assert_allclose(incremental.solution, per_step.solution, rtol=0,
                               atol=1e-11 * np.abs(per_step.solution).max())


@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("known", [True, False])
@pytest.mark.parametrize("method", list(Method))
def test_gram_path_makes_no_per_step_residual_work(count_calls, method, known, storage):
    # rgs with a known solution takes its first n steps on the residual,
    # traced or not (here the known solution comes with a trace), and the
    # rest on G.
    problem = _dense_or_sparse_problem(storage)
    if not known:
        problem = LsqProblem(matrix=problem.matrix, rhs=problem.rhs)
    names = ("gram_matrix", "step", "column_dot", "axpy_column")
    calls = {name: count_calls(name) for name in names}
    report = solve(problem, SolverConfig(method=method, seed=1, record_trace=known))
    assert report.iterations > 50
    residual_steps = problem.matrix.shape[1] if method is Method.RGS and known else 0
    assert {name: len(c) for name, c in calls.items()} == \
           {"gram_matrix": 1, "step": residual_steps, "column_dot": residual_steps,
            "axpy_column": residual_steps}


def _fresh_gradient_norm_sq(problem, x):
    A = problem.matrix
    g = A.T @ (problem.rhs - A @ x)
    return float(g @ g)


@pytest.mark.parametrize("method", list(Method))
def test_capped_run_reports_a_fresh_gradient_norm(method):
    # Far from rounding level after the cap, past a drift checkpoint.
    problem = make_consistent(gen_gaussian(300, 150, seed=5), seed=6)
    report = solve(problem, SolverConfig(method=method, seed=2, record_trace=True,
                                         max_iterations=DRIFT_CHECK_INTERVAL + 500,
                                         res_tolerance=1e-30))
    assert report.stop_reason is StopReason.ITERATION_CAP
    fresh = _fresh_gradient_norm_sq(problem, report.solution)
    assert report.trace[-1].residual_gradient_norm_sq == pytest.approx(fresh, rel=1e-9)


@pytest.mark.parametrize("method", list(Method))
def test_gradient_stop_holds_for_a_fresh_gradient(method):
    A = gen_gaussian(200, 20, seed=12)
    problem = LsqProblem(matrix=A, rhs=make_inconsistent(A, seed=13).rhs)
    config = SolverConfig(method=method, seed=1)
    report = solve(problem, config)
    assert report.stop_reason is StopReason.GRADIENT_REACHED
    ratio = _fresh_gradient_norm_sq(problem, report.solution) / _fresh_gradient_norm_sq(
        problem, np.zeros(20))
    assert report.final_res == pytest.approx(ratio, rel=1e-9)
    assert report.final_res <= config.res_tolerance


# ---------------------------------------------------------------------------
# the problem's cached views
# ---------------------------------------------------------------------------

def _full_report(report):
    """Every field of a report, floats as bits, the trace record by record."""
    trace = None if report.trace is None else [dataclasses.astuple(rec) for rec in report.trace]
    return (report.solution.tobytes(), report.iterations, report.stop_reason,
            report.final_res.hex(), report.max_drift_rel.hex(), trace)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("stop", ["res", "gradient"])
@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_solving_a_problem_again_changes_no_bit_of_the_report(count_calls, method, storage, stop,
                                                              traced):
    problem = _dense_or_sparse_problem(storage)
    if stop == "gradient":
        problem = dataclasses.replace(problem, known_solution=None)
    n = problem.matrix.shape[1]
    config = SolverConfig(method=method, seed=1, record_trace=traced)
    fresh = _full_report(solve(dataclasses.replace(problem), config))
    names = ("gram_matrix", "column_norms_sq", "transpose_matvec", "step")
    calls = {name: count_calls(name) for name in names}
    # Another method's solve first, then this one twice, all on one object.
    other = Method.RGS if method is Method.GGS else Method.GGS
    solve(problem, dataclasses.replace(config, method=other))
    for _ in range(2):
        calls["step"].clear()
        report = solve(problem, config)
        assert _full_report(report) == fresh
        # rgs with a known solution still takes its first n steps on the
        # residual, then reads G; the rest step on G alone.
        assert len(calls["step"]) == (n if method is Method.RGS and stop == "res" else 0)
        assert report.iterations > n
    # Three solves build G, the column norms and A^T b once each.
    atb_builds = [args for args in calls["transpose_matvec"] if args[1] is problem.rhs]
    assert (len(calls["gram_matrix"]), len(calls["column_norms_sq"]), len(atb_builds)) == (1, 1, 1)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_a_gram_matrix_cached_while_it_fit_goes_unused_over_the_budget(monkeypatch, count_calls,
                                                                       method):
    problem = _sparse_problem()
    problem.gram
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    assert not solvers.gram_fits(problem.matrix)
    config = SolverConfig(method=method, seed=1)
    steps = count_calls("step")
    cached = solve(problem, config)
    # The residual loop throughout, as on a problem that never built G.
    assert len(steps) == cached.iterations > 0
    assert _full_report(cached) == _full_report(solve(dataclasses.replace(problem), config))


# ---------------------------------------------------------------------------
# a trace only observes
# ---------------------------------------------------------------------------

def _untraced_fields(report):
    """Every field of a report that a trace must leave alone, floats as bits."""
    return (report.solution.tobytes(), report.iterations, report.stop_reason,
            report.final_res.hex(), report.max_drift_rel.hex())


@pytest.mark.parametrize("stop", ["consistent", "inconsistent", "gradient-stop"])
@pytest.mark.parametrize("storage, gram", [("dense", "built"), ("dense", "cached"),
                                           ("csc", "built"), ("csc", "cached"),
                                           ("csc", "over-budget")])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_a_trace_changes_no_bit_of_the_rest_of_the_report(monkeypatch, method, storage, gram,
                                                          stop):
    # The 400x100 CSC matrix stores fewer bytes than its 100x100 G, so a
    # zero budget puts it over; its dense copy always fits.
    A = _sparse_problem().matrix
    if storage == "dense":
        A = A.toarray()
    problem = (make_consistent(A, seed=73) if stop == "consistent"
               else make_inconsistent(A, seed=73))
    if stop == "gradient-stop":
        problem = dataclasses.replace(problem, known_solution=None)
    if gram == "over-budget":
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
        assert not solvers.gram_fits(problem.matrix)
    if gram == "cached":
        problem.gram
    # "built": each solve builds the problem's views anew.
    untraced, traced = (solve(problem if gram == "cached" else dataclasses.replace(problem),
                              SolverConfig(method=method, seed=2, record_trace=record))
                        for record in (False, True))
    assert untraced.iterations > problem.matrix.shape[1]
    assert _untraced_fields(traced) == _untraced_fields(untraced)
    assert len(traced.trace) == traced.iterations + 1


@pytest.mark.parametrize("storage", ["dense", "csc", "csc-without-gram"])
def test_a_traced_rgs_solve_records_the_gradient_of_each_iterate(monkeypatch, storage):
    problem = _dense_or_sparse_problem(storage.removesuffix("-without-gram"))
    if storage == "csc-without-gram":
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    config = SolverConfig(method=Method.RGS, seed=1, max_iterations=300, res_tolerance=1e-300,
                          record_trace=True)
    report = solve(problem, config)
    assert report.iterations == 300 > problem.matrix.shape[1]
    x = np.zeros(problem.matrix.shape[1])
    norms = column_norms_sq(problem.matrix)
    for rec in report.trace:
        assert rec.residual_gradient_norm_sq == pytest.approx(
            _fresh_gradient_norm_sq(problem, x), rel=1e-9)
        if rec.chosen_index is not None:
            j = rec.chosen_index
            x[j] += (problem.matrix.T @ (problem.rhs - problem.matrix @ x))[j] / norms[j]


@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_an_all_zero_known_solution_is_no_known_solution(method, storage):
    A = _sparse_problem().matrix
    if storage == "dense":
        A = A.toarray()
    b = make_inconsistent(A, seed=74).rhs
    for record in (False, True):
        config = SolverConfig(method=method, seed=2, record_trace=record)
        expected = _full_report(solve(LsqProblem(matrix=A, rhs=b), config))
        for zero in (np.zeros(100), np.full(100, -0.0)):
            report = solve(LsqProblem(matrix=A, rhs=b, known_solution=zero), config)
            assert report.stop_reason is StopReason.GRADIENT_REACHED
            assert _full_report(report) == expected
            if record:
                assert {(rec.res, rec.energy_error_sq) for rec in report.trace} == {(None, None)}


@pytest.mark.parametrize("method", [Method.GGS, Method.GGS_RANDOMIZED, Method.GRCD],
                         ids=lambda m: m.value)
def test_a_nan_gradient_mid_run_raises_non_finite_value(monkeypatch, method):
    # A NaN in the problem's G reaches s at the first step on its row; the
    # untraced res stop does not look at s, so the selection meets it.
    problem = _dense_or_sparse_problem("dense")
    config = SolverConfig(method=method, seed=1)
    first = solve(dataclasses.replace(problem),
                  dataclasses.replace(config, max_iterations=1, record_trace=True))

    def gram_with_a_nan(A):
        G = gram_matrix(A)
        G[first.trace[0].chosen_index, 5] = np.nan
        return G

    monkeypatch.setattr(problems, "gram_matrix", gram_with_a_nan)
    with pytest.raises(NonFiniteValue, match=r"the gradient has a NaN or infinite entry"):
        solve(problem, config)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def _non_finite_problem(case):
    """A 50x5 Gaussian problem with no known solution, scaled by ``case``,
    or with one NaN in A, one inf in b, or a known solution holding one
    NaN or one inf."""
    rng = np.random.default_rng(81)
    A = rng.standard_normal((50, 5))
    b = rng.standard_normal(50)
    x_star = None
    if case == "nan_in_A":
        A[3, 2] = np.nan
    elif case == "inf_in_b":
        b[7] = np.inf
    elif case in ("nan_in_x_star", "inf_in_x_star"):
        x_star = np.ones(5)
        x_star[1] = np.nan if case == "nan_in_x_star" else np.inf
    else:
        A, b = A * case, b * case
    return LsqProblem(matrix=np.asfortranarray(A), rhs=b, known_solution=x_star)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", [1e100, 1e150, 1e200, "nan_in_A", "inf_in_b",
                                  "nan_in_x_star", "inf_in_x_star"])
@pytest.mark.parametrize("method", list(Method))
def test_non_finite_input_never_reports_convergence(method, case):
    config = SolverConfig(method=method, max_iterations=2000)
    problem = _non_finite_problem(case)
    try:
        report = solve(problem, config)
    except GreedyLsqError:
        return
    assert report.stop_reason is not StopReason.ITERATION_CAP
    # A solve with a known solution stops on res, never on the gradient rule.
    assert problem.known_solution is None or report.stop_reason is StopReason.RES_REACHED
    assert np.isfinite(report.final_res)
    assert report.final_res <= config.res_tolerance


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_error_names_the_quantity():
    with pytest.raises(NonFiniteValue, match="column norms"):
        solve(_non_finite_problem("nan_in_A"), SolverConfig())
    with pytest.raises(NonFiniteValue, match="rhs"):
        solve(_non_finite_problem("inf_in_b"), SolverConfig())
    with pytest.raises(NonFiniteValue, match=r"A\^T b"):
        solve(_non_finite_problem(1e150), SolverConfig())
    for case in ("nan_in_x_star", "inf_in_x_star"):
        with pytest.raises(NonFiniteValue, match="known solution"):
            solve(_non_finite_problem(case), SolverConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_overflowing_atb_raises_non_finite_value(count_calls, method, storage):
    # A, b and x* are finite, but A^T b overflows, to NaN where +inf and
    # -inf terms meet; the greedy selections used to meet that NaN and
    # raise a bare ValueError.
    A = gen_gaussian(20, 3, seed=1) * 1e100
    x_star = np.full(3, 1e160)
    matrix = A if storage == "dense" else sparse.csc_array(A)
    problem = LsqProblem(matrix=matrix, rhs=A @ x_star, known_solution=x_star)
    selections = count_calls({
        Method.GGS: "ggs_select", Method.GGS_RANDOMIZED: "ggs_randomized_select",
        Method.GRCD: "grcd_select", Method.RGS: "rgs_select"}[method])
    with pytest.raises(NonFiniteValue) as raised:
        solve(problem, SolverConfig(method=method))
    if method is Method.RGS:
        # rgs with a known solution and no trace computes no gradient.
        assert str(raised.value) == "the relative solution error is nan at iteration 1"
    else:
        assert str(raised.value) == "A^T b has a NaN or infinite entry at iteration 0"
        assert not selections


@pytest.mark.parametrize("storage", ["dense", "csc"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_an_overflowing_frobenius_norm_raises_non_finite_value(method, storage):
    # Every squared column norm is finite at 2^1022, but their sum
    # ||A||_F^2 = 2^1024 overflows: rgs used to draw only the last column
    # and grcd to drop 1 / ||A||_F^2 from its threshold, each with a
    # RuntimeWarning (an error under this suite's filter).  At 2^1021 the
    # sum is 2^1023, inside the range, and every method solves.
    A = gen_gaussian(40, 4, seed=3)
    A /= np.linalg.norm(A, axis=0)
    x_star = np.ones(4)
    for log2_norm_sq, fits in ((1022, False), (1021, True)):
        M = A * 2.0 ** (log2_norm_sq / 2)
        problem = LsqProblem(matrix=M if storage == "dense" else sparse.csc_array(M),
                             rhs=M @ x_star, known_solution=x_star)
        assert np.log2(problem.column_norms_sq) == pytest.approx(log2_norm_sq, abs=1e-12)
        config = SolverConfig(method=method, seed=1, max_iterations=3000)
        if fits:
            assert solve(problem, config).stop_reason is StopReason.RES_REACHED
        else:
            with pytest.raises(NonFiniteValue, match="^the squared column norms of the matrix, "
                                                     "or their sum, are not all finite$"):
                solve(problem, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", list(Method))
def test_huge_gradient_entries_still_converge(method):
    # Gradient entries near 1e301 overflow when squared; grcd used to run
    # to the cap with a NaN threshold.
    rng = np.random.default_rng(81)
    A = np.asfortranarray(rng.standard_normal((50, 5)) * 1e150)
    x_true = rng.standard_normal(5)
    problem = LsqProblem(matrix=A, rhs=A @ x_true, known_solution=x_true)
    report = solve(problem, SolverConfig(method=method, seed=1, max_iterations=5000))
    assert report.stop_reason is StopReason.RES_REACHED


@pytest.mark.parametrize("method", list(Method))
def test_negative_seed_is_rejected_for_every_method(method):
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(method=method, seed=-1)


# ---------------------------------------------------------------------------
# rgs block draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("known", [True, False], ids=["res-stop", "gradient-stop"])
@pytest.mark.parametrize("storage", ["dense", "csc", "csc-without-gram"])
def test_rgs_selections_across_block_boundaries_equal_one_draw_per_step(monkeypatch, storage, known):
    problem = _dense_or_sparse_problem(storage.removesuffix("-without-gram"))
    if storage == "csc-without-gram":
        monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    if not known:
        problem = LsqProblem(matrix=problem.matrix, rhs=problem.rhs)
    norms = column_norms_sq(problem.matrix)
    block = solvers.RGS_BLOCK
    for cap in (block - 1, block, block + 1, 2 * block + 1):
        # A tolerance no run reaches, so each one stops at its cap.
        config = SolverConfig(method=Method.RGS, seed=5, max_iterations=cap,
                              res_tolerance=1e-300, record_trace=True)
        report = solve(problem, config)
        assert (report.iterations, report.stop_reason) == (cap, StopReason.ITERATION_CAP)
        rng = np.random.default_rng(5)
        assert [rec.chosen_index for rec in report.trace[:-1]] == \
               [ref_rgs_select(norms, float(norms.sum()), rng) for _ in range(cap)]


def _pinned_rgs_problem(storage):
    if storage == "dense":
        return make_consistent(gen_gaussian(1000, 50, seed=21), seed=22)
    return _sparse_problem()


# (iterations, stop reason, first 16 hex digits of the SHA-256 of
# solution.tobytes()) of untraced rgs solves with seeds 0-4, recorded when
# rgs still drew one uniform per step.  The dense runs stop on either side
# of RGS_BLOCK steps, the CSC runs after several blocks.
RGS_PINNED = {
    "dense": [(483, "edf1e0cc55ad23cd"), (560, "4207fff4b7367ff3"), (530, "82172243d9ad026e"),
              (416, "de9cc296861da1d0"), (502, "07a8e3af69f4aaaa")],
    "csc": [(5128, "a95de00512c56739"), (4295, "591db1eeeabf3b47"), (4479, "73845a0accc88816"),
            (3782, "069c577fc96d1d70"), (3113, "0729f9d9eebff26f")],
}


@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_rgs_reports_are_bit_identical_to_one_draw_per_step(storage):
    problem = _pinned_rgs_problem(storage)
    for seed, (iterations, digest) in enumerate(RGS_PINNED[storage]):
        report = solve(problem, SolverConfig(method=Method.RGS, seed=seed))
        assert (report.iterations, report.stop_reason) == (iterations, StopReason.RES_REACHED)
        assert hashlib.sha256(report.solution.tobytes()).hexdigest()[:16] == digest


def test_rgs_solve_carries_no_draws_into_the_next():
    def fingerprint(report):
        return (report.solution.tobytes(), report.iterations, report.stop_reason,
                report.final_res, report.max_drift_rel)

    problem = _pinned_rgs_problem("dense")
    config = SolverConfig(method=Method.RGS, seed=1)
    first = solve(problem, config)
    # A solve in between that ends part-way through a block.
    other = solve(_sparse_problem(), SolverConfig(method=Method.RGS, seed=2))
    assert other.iterations % solvers.RGS_BLOCK
    assert fingerprint(solve(problem, config)) == fingerprint(first)


# ---------------------------------------------------------------------------
# the res stop rule's running error
# ---------------------------------------------------------------------------

# (iterations, stop reason, final_res.hex(), first 16 hex digits of the
# SHA-256 of solution.tobytes()) of untraced seed-3 solves at tol 1e-6,
# tol 1e-12 and a cap of 7 steps, recorded when every step computed res
# fresh.  ggs-random's candidate sets have one member here, so it
# matches ggs.
REPORTS_PINNED = {
    "dense": {
        "ggs": [(126, "res_reached", "0x1.06fec74815e7ep-20", "873917b587f0b957"),
                (254, "res_reached", "0x1.1414a5b2e254ep-40", "850de2113af6a19c"),
                (7, "iteration_cap", "0x1.373ef3ca35dfbp-1", "323e3558a62885b2")],
        "ggs-random": [(126, "res_reached", "0x1.06fec74815e7ep-20", "873917b587f0b957"),
                       (254, "res_reached", "0x1.1414a5b2e254ep-40", "850de2113af6a19c"),
                       (7, "iteration_cap", "0x1.373ef3ca35dfbp-1", "323e3558a62885b2")],
        "grcd": [(131, "res_reached", "0x1.08f2b7bb76fcep-20", "294f952dd0452c13"),
                 (274, "res_reached", "0x1.f2991bfbfd366p-41", "1bfb91b34c1447ae"),
                 (7, "iteration_cap", "0x1.47f200b3df346p-1", "3420956b20cef51c")],
        "rgs": [(416, "res_reached", "0x1.c42eba918922ep-21", "de9cc296861da1d0"),
                (892, "res_reached", "0x1.eda7ee576d039p-41", "46fcaccf2eafccb5"),
                (7, "iteration_cap", "0x1.d393a8eb7f421p-1", "8305c86a43257985")],
    },
    "csc": {
        "ggs": [(644, "res_reached", "0x1.0b3cd12270d6bp-20", "93db6fd3fd3a8b61"),
                (1465, "res_reached", "0x1.184460d76d8a9p-40", "55015c4279818d6b"),
                (7, "iteration_cap", "0x1.6e100cd0d7a67p-1", "9f986bfc488fb0b6")],
        "ggs-random": [(644, "res_reached", "0x1.0b3cd12270d6bp-20", "93db6fd3fd3a8b61"),
                       (1465, "res_reached", "0x1.184460d76d8a9p-40", "55015c4279818d6b"),
                       (7, "iteration_cap", "0x1.6e100cd0d7a67p-1", "9f986bfc488fb0b6")],
        "grcd": [(662, "res_reached", "0x1.072e05ec5a802p-20", "d831fc7ec8d86270"),
                 (1503, "res_reached", "0x1.16852eb9a2d46p-40", "23b5f0999cb95637"),
                 (7, "iteration_cap", "0x1.6b22d75e831e6p-1", "431d99a92570aea0")],
        "rgs": [(3782, "res_reached", "0x1.0c6f499d8abd8p-20", "069c577fc96d1d70"),
                (9368, "res_reached", "0x1.133a881a4d43ep-40", "035294341eb30c89"),
                (7, "iteration_cap", "0x1.ec00ed9c9c9b3p-1", "eb3cc2175ea61759")],
    },
}


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_reports_are_bit_identical_to_a_res_check_at_every_step(storage, method):
    problem = _pinned_rgs_problem(storage)
    runs = [(1e-6, 200_000), (1e-12, 200_000), (1e-6, 7)]
    for (tol, cap), pinned in zip(runs, REPORTS_PINNED[storage][method.value]):
        report = solve(problem, SolverConfig(method=method, seed=3, res_tolerance=tol,
                                             max_iterations=cap))
        assert (report.iterations, report.stop_reason.value, report.final_res.hex(),
                hashlib.sha256(report.solution.tobytes()).hexdigest()[:16]) == pinned


def _grcd_problem(storage, zero_column):
    """The pinned problem of `storage` without its known solution, or with
    column 7 zeroed, its known solution's entry 7 set to 0 and the rhs
    recomputed, so that grcd takes its masked zero-column path."""
    problem = _pinned_rgs_problem(storage)
    if not zero_column:
        return dataclasses.replace(problem, known_solution=None)
    D = problem.matrix.toarray() if storage == "csc" else np.array(problem.matrix)
    D[:, 7] = 0.0
    A = sparse.csc_array(D) if storage == "csc" else np.asfortranarray(D)
    x_star = problem.known_solution.copy()
    x_star[7] = 0.0
    return LsqProblem(matrix=A, rhs=A @ x_star, known_solution=x_star)


# (iterations, stop reason, final_res.hex(), first 16 hex digits of the
# SHA-256 of solution.tobytes()) of untraced seed-3 grcd solves at tol
# 1e-6 and 1e-12, recorded before grcd_select was trimmed: on the pinned
# problems with no known solution (the gradient stop of `fit`), and with a
# zero column.
GRCD_PINNED = {
    ("dense", "gradient-stop"): [(127, "gradient_reached", "0x1.fb3ca93a316d1p-21", "67f159e184a323db"),
                                 (267, "gradient_reached", "0x1.0c89142080d9fp-40", "060344c0edf8eeb6")],
    ("dense", "zero-column"): [(135, "res_reached", "0x1.02aac01c85cd4p-20", "c2d44ffc2fa9cb0c"),
                               (279, "res_reached", "0x1.137c74459948ep-40", "863443b9fdf398ac")],
    ("csc", "gradient-stop"): [(520, "gradient_reached", "0x1.07a1478e36ec3p-20", "ee0963529c8abc93"),
                               (1337, "gradient_reached", "0x1.165c6d5815070p-40", "4e58c6b33bb55d7c")],
    ("csc", "zero-column"): [(642, "res_reached", "0x1.0bd19f415514cp-20", "0835267ec0c2822d"),
                             (1486, "res_reached", "0x1.19343457132b1p-40", "0256e713ad664cd1")],
}


@pytest.mark.parametrize("case", ["gradient-stop", "zero-column"])
@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_grcd_reports_are_bit_identical_to_the_untrimmed_selection(count_calls, storage, case):
    problem = _grcd_problem(storage, zero_column=case == "zero-column")
    calls = count_calls("grcd_select")
    for tol, pinned in zip([1e-6, 1e-12], GRCD_PINNED[storage, case]):
        calls.clear()
        report = solve(problem, SolverConfig(method=Method.GRCD, seed=3, res_tolerance=tol))
        assert (report.iterations, report.stop_reason.value, report.final_res.hex(),
                hashlib.sha256(report.solution.tobytes()).hexdigest()[:16]) == pinned
        # One selection per step, through the module attribute.
        assert len(calls) == report.iterations


def _outcome(problem, config):
    """Everything a solve reports, or the error it raises."""
    try:
        report = solve(problem, config)
    except GreedyLsqError as exc:
        return type(exc), str(exc)
    return (report.iterations, report.stop_reason, report.final_res.hex(),
            report.solution.tobytes(), report.max_drift_rel.hex())


def _outcome_with_res_at_every_step(monkeypatch, problem, config):
    """_outcome of the solve with no step skipping the fresh res: an
    infinite margin puts every running error inside it."""
    with monkeypatch.context() as patched:
        patched.setattr(solvers, "RES_STOP_MARGIN", math.inf)
        return _outcome(problem, config)


@pytest.mark.parametrize("tol", [1e-14, 1e-15])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_tight_tolerances_stop_where_a_res_check_at_every_step_does(monkeypatch, method, tol):
    problem = make_consistent(gen_gaussian(300, 20, seed=31), seed=32)
    config = SolverConfig(method=method, seed=1, res_tolerance=tol)
    outcome = _outcome(problem, config)
    assert outcome[1] is StopReason.RES_REACHED
    assert outcome == _outcome_with_res_at_every_step(monkeypatch, problem, config)


def _ill_conditioned_problem():
    """300x20 Gaussian with columns scaled from 10^-0.75 to 10^0.75, whose
    condition number is 37."""
    A = gen_gaussian(300, 20, seed=41) * np.logspace(-0.75, 0.75, 20)
    return make_consistent(np.asfortranarray(A), seed=42)


@pytest.mark.parametrize("tol", [1e-6, 1e-15])
def test_rgs_error_that_rises_on_some_steps_stops_where_a_res_check_at_every_step_does(
        monkeypatch, tol):
    problem = _ill_conditioned_problem()
    config = SolverConfig(method=Method.RGS, seed=2, res_tolerance=tol)
    original, errors = solvers._scaled_error_sq, []
    monkeypatch.setattr(solvers, "_scaled_error_sq",
                        lambda *args: errors.append(original(*args)) or errors[-1])
    reference = _outcome_with_res_at_every_step(monkeypatch, problem, config)
    assert reference[1] is StopReason.RES_REACHED
    # ||x - x*||^2 rises on some steps, so the running error must too.
    assert sum(b > a for a, b in zip(errors, errors[1:])) > 10
    assert _outcome(problem, config) == reference


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_final_res_at_the_cap_is_computed_fresh(method):
    problem = _ill_conditioned_problem()
    report = solve(problem, SolverConfig(method=method, seed=3, max_iterations=1234,
                                         res_tolerance=1e-300))
    assert report.stop_reason is StopReason.ITERATION_CAP
    d, x_star = report.solution - problem.known_solution, problem.known_solution
    assert report.final_res == float(np.dot(d, d)) / float(np.dot(x_star, x_star))


def test_nan_mid_run_raises_at_the_iteration_a_res_check_at_every_step_does(monkeypatch):
    problem = _pinned_rgs_problem("dense")
    n, poisoned = problem.matrix.shape[1], 17

    def gram_with_a_nan_row(A):
        G = gram_matrix(A)
        G[poisoned, 3] = np.nan
        return G

    monkeypatch.setattr(problems, "gram_matrix", gram_with_a_nan_row)
    config = SolverConfig(method=Method.RGS, seed=4)
    outcome = _outcome(problem, config)
    # rgs steps on G from step n on; x turns NaN at its first step on the
    # poisoned row, and res at the iterate after it.
    norms = column_norms_sq(problem.matrix)
    picks = rgs_select(np.cumsum(norms), np.random.default_rng(4), 2 * n)
    k = n + picks[n:].index(poisoned) + 1
    assert outcome == (NonFiniteValue, f"the relative solution error is nan at iteration {k}")
    assert outcome == _outcome_with_res_at_every_step(monkeypatch, problem, config)


def test_rgs_computes_res_fresh_on_few_steps(count_calls):
    problem = _pinned_rgs_problem("dense")
    calls = count_calls("_scaled_error_sq")
    for seed in range(5):
        calls.clear()
        report = solve(problem, SolverConfig(method=Method.RGS, seed=seed))
        assert report.stop_reason is StopReason.RES_REACHED
        assert len(calls) <= 0.05 * report.iterations


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_traced_solve_computes_res_fresh_at_every_iterate(count_calls, method):
    problem = _pinned_rgs_problem("dense")
    calls = count_calls("_scaled_error_sq")
    report = solve(problem, SolverConfig(method=method, seed=0, record_trace=True))
    assert len(calls) == report.iterations + 1


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("c", [2.0**-565, 2.0**532], ids=["1e-170", "1e160"])
def test_known_solution_far_from_one_solves_as_at_unit_scale(method, c):
    # Scaling b and x* by a power of two scales every iterate exactly, so
    # only the solution may differ, by that factor.  At 2^-565 ||x*||^2
    # underflows to 0, and at 2^532 ||x - x*||^2 overflows at x = 0.
    unit = make_consistent(gen_gaussian(200, 10, seed=51), seed=52)
    scaled = LsqProblem(matrix=unit.matrix, rhs=unit.rhs * c, known_solution=unit.known_solution * c)
    config = SolverConfig(method=method, seed=5)
    reports = [solve(unit, config), solve(scaled, config)]
    assert reports[0].stop_reason is StopReason.RES_REACHED
    assert [(r.iterations, r.stop_reason, r.final_res) for r in reports] == \
           [(reports[0].iterations, StopReason.RES_REACHED, reports[0].final_res)] * 2
    np.testing.assert_array_equal(reports[1].solution, reports[0].solution * c)


@pytest.mark.parametrize("c", [2.0**-500, 2.0**-540, 2.0**-565])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_gradient_stop_raises_when_its_threshold_underflows(method, c):
    # At 2^-565 ||A^T b||^2 underflows to 0, and at 2^-540 the squares
    # compared by the stop rule lose their bits: each used to report
    # gradient_reached at a gradient ratio of 0, far short of the tolerance.
    A = gen_gaussian(200, 10, seed=51)
    x = np.random.default_rng(53).standard_normal(10)
    config = SolverConfig(method=method, seed=1)
    unit = solve(LsqProblem(matrix=A, rhs=A @ x), config)
    problem = LsqProblem(matrix=A, rhs=A @ (x * c))
    if c == 2.0**-500:
        report = solve(problem, config)
        assert (report.iterations, report.stop_reason) == (unit.iterations, StopReason.GRADIENT_REACHED)
        return
    with pytest.raises(NonFiniteValue, match=r"threshold tol \* \|\|A\^T b\|\|\^2 = .* underflows"):
        solve(problem, config)


# ---------------------------------------------------------------------------
# pinned greedy reports
# ---------------------------------------------------------------------------

def _pinned_grid(methods):
    """(key, problem, config) of each pinned solve: dense 60x8 and 300x20
    and their CSC copies, each res-stop (consistent, known solution) and
    gradient-stop (inconsistent, no known solution), under the given
    methods, traced and untraced.  At tol 1e-10 every one of these solves
    under a greedy method computes its gradient fresh once on
    GRADIENT_FALL_REFRESH, before any drift checkpoint."""
    grid = []
    for m, n, seed in ((60, 8, 61), (300, 20, 62)):
        A = gen_gaussian(m, n, seed)
        stops = {"res": make_consistent(A, seed + 1),
                 "gradient": dataclasses.replace(make_inconsistent(A, seed + 1), known_solution=None)}
        for storage, matrix in (("dense", A), ("csc", sparse.csc_array(A))):
            for stop, problem in stops.items():
                problem = dataclasses.replace(problem, matrix=matrix)
                grid += _method_grid(f"{m}x{n} {storage} {stop}", problem, methods)
    return grid


def _method_grid(label, problem, methods):
    """(key, problem, config) of problem under each method, traced and untraced."""
    return [(f"{label} {method} {traced}", problem,
             SolverConfig(method=method, seed=3, res_tolerance=1e-10, record_trace=traced == "traced"))
            for method in methods for traced in ("untraced", "traced")]


# Recorded before the greedy steps read max|s| through argmax.
GREEDY_REPORT_PINS = {
    "60x8 dense res ggs untraced": "15ec79553759771e",
    "60x8 dense res ggs traced": "ad1eead826f699fa",
    "60x8 dense res ggs-random untraced": "15ec79553759771e",
    "60x8 dense res ggs-random traced": "ad1eead826f699fa",
    "60x8 dense res grcd untraced": "b04295cccf0fbf02",
    "60x8 dense res grcd traced": "4fafb88a2675e087",
    "60x8 dense gradient ggs untraced": "50fb001bc171111e",
    "60x8 dense gradient ggs traced": "4c4eb02ee1d741dd",
    "60x8 dense gradient ggs-random untraced": "50fb001bc171111e",
    "60x8 dense gradient ggs-random traced": "4c4eb02ee1d741dd",
    "60x8 dense gradient grcd untraced": "928383d5533240e3",
    "60x8 dense gradient grcd traced": "37dd667f5c228875",
    "60x8 csc res ggs untraced": "29d3c7005757d77c",
    "60x8 csc res ggs traced": "921f3ae527a7e465",
    "60x8 csc res ggs-random untraced": "29d3c7005757d77c",
    "60x8 csc res ggs-random traced": "921f3ae527a7e465",
    "60x8 csc res grcd untraced": "24e3bb6c62713ab0",
    "60x8 csc res grcd traced": "e4d732490b1e9867",
    "60x8 csc gradient ggs untraced": "1b34ed5187f0b999",
    "60x8 csc gradient ggs traced": "6aaa7e99670ef1af",
    "60x8 csc gradient ggs-random untraced": "1b34ed5187f0b999",
    "60x8 csc gradient ggs-random traced": "6aaa7e99670ef1af",
    "60x8 csc gradient grcd untraced": "ef4ef03cb427fc05",
    "60x8 csc gradient grcd traced": "c4e7fcc17440767f",
    "300x20 dense res ggs untraced": "01038f079f137de6",
    "300x20 dense res ggs traced": "ca44722dacd4ffd1",
    "300x20 dense res ggs-random untraced": "01038f079f137de6",
    "300x20 dense res ggs-random traced": "ca44722dacd4ffd1",
    "300x20 dense res grcd untraced": "3e472d08898b727c",
    "300x20 dense res grcd traced": "2376ef2c317b1cbb",
    "300x20 dense gradient ggs untraced": "7d301f5e91ff2d2e",
    "300x20 dense gradient ggs traced": "cbf0938096a596cd",
    "300x20 dense gradient ggs-random untraced": "7d301f5e91ff2d2e",
    "300x20 dense gradient ggs-random traced": "cbf0938096a596cd",
    "300x20 dense gradient grcd untraced": "d9ecdf2cdb4742c4",
    "300x20 dense gradient grcd traced": "4699968bf13168d8",
    "300x20 csc res ggs untraced": "8d6d2edbe7b6bfcf",
    "300x20 csc res ggs traced": "a503286ccac935d5",
    "300x20 csc res ggs-random untraced": "8d6d2edbe7b6bfcf",
    "300x20 csc res ggs-random traced": "a503286ccac935d5",
    "300x20 csc res grcd untraced": "e3d1132a62774f6a",
    "300x20 csc res grcd traced": "87b472d47d047cb0",
    "300x20 csc gradient ggs untraced": "e632d28db646d57c",
    "300x20 csc gradient ggs traced": "721bde6f640d07bd",
    "300x20 csc gradient ggs-random untraced": "e632d28db646d57c",
    "300x20 csc gradient ggs-random traced": "721bde6f640d07bd",
    "300x20 csc gradient grcd untraced": "623bfdc3d02ba0a6",
    "300x20 csc gradient grcd traced": "5ae8755adb39e2c2",
}


def test_greedy_reports_equal_their_pins_in_either_order(monkeypatch, count_calls):
    # The second pass runs the grid backwards in the same process, so a
    # solve that kept |s|, or any other state, from the solve before it
    # would change a digest there.
    grid = _pinned_grid(("ggs", "ggs-random", "grcd"))
    gradients = count_calls("transpose_matvec")
    fresh = {}
    for order in (grid, grid[::-1]):
        digests = {}
        for key, problem, config in order:
            gradients.clear()
            digests[key] = report_digest(solve(problem, config))
            fresh[key] = len(gradients)
        assert digests == GREEDY_REPORT_PINS
    # With the fall trigger off, every solve computes A^T r fresh once less.
    monkeypatch.setattr(solvers, "GRADIENT_FALL_REFRESH", 0.0)
    for key, problem, config in grid:
        gradients.clear()
        solve(problem, config)
        assert len(gradients) == fresh[key] - 1, key


# Digests of rgs on the grid above, recorded before solve chose one
# select closure per method.
RGS_REPORT_PINS = {
    "60x8 dense res rgs untraced": "52c6d6c7a77f0f45",
    "60x8 dense res rgs traced": "7f832317f0aabb1f",
    "60x8 dense gradient rgs untraced": "7d301e67ba4f35d5",
    "60x8 dense gradient rgs traced": "fae1e463b293f7bc",
    "60x8 csc res rgs untraced": "29c8b012f690ed67",
    "60x8 csc res rgs traced": "d57adf741aba7054",
    "60x8 csc gradient rgs untraced": "4b6fccd0b9f1ac53",
    "60x8 csc gradient rgs traced": "8a533d5bc41208ae",
    "300x20 dense res rgs untraced": "4b42b982ec76bd40",
    "300x20 dense res rgs traced": "7aeb7b6c85a20f20",
    "300x20 dense gradient rgs untraced": "133733713cb7fe64",
    "300x20 dense gradient rgs traced": "3f69271b1eed32f7",
    "300x20 csc res rgs untraced": "514981e47b8b5ba0",
    "300x20 csc res rgs traced": "7a2913dd582e45ea",
    "300x20 csc gradient rgs untraced": "baa4192d288913dc",
    "300x20 csc gradient rgs traced": "b6710cd86d1d677d",
}


def test_rgs_reports_equal_their_pins():
    assert {key: report_digest(solve(problem, config))
            for key, problem, config in _pinned_grid(("rgs",))} == RGS_REPORT_PINS


def _over_budget_grid():
    """(key, problem, config) of each over-budget pinned solve.  A dense
    matrix with m >= n stores at least the bytes of its G, so a dense G is
    over budget only for a wide matrix, where a known solution is never
    the only least-squares solution: a 30x40 gradient-stop problem.  The
    CSC matrix is _sparse_problem()'s, res-stop and gradient-stop."""
    methods = [m.value for m in Method]
    wide = np.random.default_rng(81).standard_normal((30, 40))
    csc = _sparse_problem()
    return (_method_grid("30x40 dense gradient", LsqProblem(matrix=wide, rhs=wide[:, 0] + 1.0), methods)
            + _method_grid("400x100 csc res", csc, methods)
            + _method_grid("400x100 csc gradient", LsqProblem(matrix=csc.matrix, rhs=csc.rhs), methods))


# Recorded before solve chose one select closure per method.
OVER_BUDGET_REPORT_PINS = {
    "30x40 dense gradient ggs untraced": "3ea5d7aa75f9301d",
    "30x40 dense gradient ggs traced": "068f12583cbf0486",
    "30x40 dense gradient ggs-random untraced": "3ea5d7aa75f9301d",
    "30x40 dense gradient ggs-random traced": "068f12583cbf0486",
    "30x40 dense gradient grcd untraced": "c92d59248b693686",
    "30x40 dense gradient grcd traced": "160add1834cfc5e8",
    "30x40 dense gradient rgs untraced": "1d331f68dc461f72",
    "30x40 dense gradient rgs traced": "b48bddb93a510a92",
    "400x100 csc res ggs untraced": "9dac44c532df2143",
    "400x100 csc res ggs traced": "77612191c7962932",
    "400x100 csc res ggs-random untraced": "9dac44c532df2143",
    "400x100 csc res ggs-random traced": "77612191c7962932",
    "400x100 csc res grcd untraced": "b813b01088d66877",
    "400x100 csc res grcd traced": "9cba4068f7dcec04",
    "400x100 csc res rgs untraced": "03c2dc848221ac9e",
    "400x100 csc res rgs traced": "2673e5b915469c35",
    "400x100 csc gradient ggs untraced": "702b5117582af905",
    "400x100 csc gradient ggs traced": "55c88c1be45a23b3",
    "400x100 csc gradient ggs-random untraced": "702b5117582af905",
    "400x100 csc gradient ggs-random traced": "55c88c1be45a23b3",
    "400x100 csc gradient grcd untraced": "aeb2269227669e78",
    "400x100 csc gradient grcd traced": "2bbbd14b62fedec9",
    "400x100 csc gradient rgs untraced": "07da7eed0d586e0c",
    "400x100 csc gradient rgs traced": "908c675dd99e5d3c",
}


def test_over_budget_reports_equal_their_pins(monkeypatch, count_calls):
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    grams = count_calls("gram_matrix")
    grid = _over_budget_grid()
    assert not any(solvers.gram_fits(problem.matrix) for _, problem, _ in grid)
    assert {key: report_digest(solve(problem, config))
            for key, problem, config in grid} == OVER_BUDGET_REPORT_PINS
    assert not grams

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import sparse

from oracles import ref_ggs_randomized_select, ref_ggs_select, ref_rgs_select

from greedylsq import solvers
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


# ---------------------------------------------------------------------------
# incremental gradient: cost and honesty
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name):
    """Count the calls solve makes to the solvers-module function ``name``."""
    original = getattr(solvers, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solvers, name, counted)
    return calls


def _sparse_problem():
    """A consistent 400x100 CSC problem whose 1.9k stored entries take
    fewer bytes than its dense 100x100 Gram matrix."""
    rng = np.random.default_rng(71)
    D = rng.standard_normal((400, 100))
    D[rng.random((400, 100)) > 0.05] = 0.0
    return make_consistent(sparse.csc_array(D), seed=72)


def test_gradient_stop_computes_the_initial_gradient_once(monkeypatch):
    A = gen_gaussian(200, 20, seed=12)
    problem = LsqProblem(matrix=A, rhs=make_inconsistent(A, seed=13).rhs)
    calls = _count_calls(monkeypatch, "transpose_matvec")
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
def test_greedy_solve_computes_the_gradient_once(monkeypatch, method):
    problem = make_consistent(gen_gaussian(200, 20, seed=12), seed=13)
    calls = _count_calls(monkeypatch, "transpose_matvec")
    grams = _count_calls(monkeypatch, "gram_matrix")
    report = solve(problem, SolverConfig(method=method, seed=1))
    assert report.stop_reason is StopReason.RES_REACHED and report.iterations > 50
    assert (len(calls), len(grams)) == (1, 1)


def _dense_or_sparse_problem(storage):
    if storage == "dense":
        return make_consistent(gen_gaussian(200, 20, seed=12), seed=13)
    return _sparse_problem()


@pytest.mark.parametrize("storage", ["dense", "csc"])
def test_rgs_with_known_solution_builds_the_gram_matrix_after_n_residual_steps(monkeypatch, storage):
    problem = _dense_or_sparse_problem(storage)
    n = problem.matrix.shape[1]
    names = ("gram_matrix", "step", "transpose_matvec")
    calls = {name: _count_calls(monkeypatch, name) for name in names}

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


def test_rgs_without_the_gram_budget_steps_on_the_residual(monkeypatch):
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    names = ("gram_matrix", "step", "transpose_matvec")
    calls = {name: _count_calls(monkeypatch, name) for name in names}
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
def test_solve_that_stops_before_any_step_builds_no_gram_matrix(monkeypatch, method):
    # b is orthogonal to every column, so A^T b = 0 exactly and the
    # gradient stop holds at iteration 0.
    A = np.vstack([gen_gaussian(50, 5, seed=3), np.zeros((50, 5))])
    b = np.concatenate([np.zeros(50), np.ones(50)])
    grams = _count_calls(monkeypatch, "gram_matrix")
    report = solve(LsqProblem(matrix=A, rhs=b), SolverConfig(method=method, seed=1))
    assert (report.iterations, report.stop_reason) == (0, StopReason.GRADIENT_REACHED)
    assert len(grams) == 0


@pytest.mark.parametrize("method", list(Method))
def test_per_step_gradient_path_makes_the_same_selections(monkeypatch, method):
    problem = _sparse_problem()
    config = SolverConfig(method=method, seed=1, record_trace=True)
    incremental = solve(problem, config)
    grams = _count_calls(monkeypatch, "gram_matrix")
    calls = _count_calls(monkeypatch, "transpose_matvec")
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    per_step = solve(problem, config)
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
def test_gram_path_makes_no_per_step_residual_work(monkeypatch, method, known, storage):
    # Untraced rgs with a known solution takes its first n steps on the
    # residual, so here the known solution comes with a trace.
    problem = _dense_or_sparse_problem(storage)
    if not known:
        problem = LsqProblem(matrix=problem.matrix, rhs=problem.rhs)
    names = ("gram_matrix", "step", "column_dot", "axpy_column")
    calls = {name: _count_calls(monkeypatch, name) for name in names}
    report = solve(problem, SolverConfig(method=method, seed=1, record_trace=known))
    assert report.iterations > 50
    assert {name: len(c) for name, c in calls.items()} == \
           {"gram_matrix": 1, "step": 0, "column_dot": 0, "axpy_column": 0}


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

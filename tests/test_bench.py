import csv
import hashlib
import io
import shutil

import numpy as np
import pytest
from scipy import sparse

from conftest import data_path, report_digest

from greedylsq import bench, solvers
from greedylsq.bench import (
    ExperimentResult,
    ExperimentSpec,
    build_trial_problem,
    emit_convergence_curve,
    emit_table,
    run_experiment,
)
from greedylsq.problems import LsqProblem, ManifestEntry, gen_gaussian, save_matrix_market
from greedylsq.solvers import Method, SolverConfig, solve


def random_entry(label="r", m=200, n=10, consistent=True):
    return ManifestEntry(label=label, kind="random", rows=m, cols=n, consistent=consistent)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(problem=random_entry(), methods=[])
    with pytest.raises(ValueError):
        ExperimentSpec(problem=random_entry(), methods=[Method.GGS], repeats=0)
    spec = ExperimentSpec(problem=random_entry(), methods=["ggs", "grcd"])
    assert spec.methods == [Method.GGS, Method.GRCD]


def test_duplicate_methods_run_once():
    spec = ExperimentSpec(problem=random_entry(m=40, n=4), methods=["grcd", "ggs", "grcd", "ggs"],
                          repeats=2)
    assert spec.methods == [Method.GRCD, Method.GGS]
    result = run_experiment(spec)
    assert [(rec.trial, rec.method) for rec in result.trials] == [
        (0, Method.GRCD), (0, Method.GGS), (1, Method.GRCD), (1, Method.GGS)]


def test_trial_problem_shared_and_deterministic():
    entry = random_entry(m=60, n=6)
    p1 = build_trial_problem(entry, base_seed=5, trial=2)
    p2 = build_trial_problem(entry, base_seed=5, trial=2)
    assert np.array_equal(p1.matrix, p2.matrix)
    assert np.array_equal(p1.rhs, p2.rhs)
    assert np.array_equal(p1.known_solution, p2.known_solution)
    p3 = build_trial_problem(entry, base_seed=5, trial=3)
    assert not np.array_equal(p1.matrix, p3.matrix)


# SHA-256 prefixes of (rhs, known_solution) of build_trial_problem(entry,
# base_seed=7, trial), recorded when bench still coded the rhs seed rule
# itself.  File rows keep one rhs across trials.
TRIAL_RHS_PINS = {
    ("random-consistent", 0): ("a952a49a2e2da455", "584ada5eda39ae98"),
    ("random-consistent", 1): ("06fa8aa22db080db", "60c61c3483bee0ed"),
    ("random-inconsistent", 0): ("261d6e6434eb8e8b", "584ada5eda39ae98"),
    ("random-inconsistent", 1): ("d773b13b53c9d210", "60c61c3483bee0ed"),
    ("file-consistent", 0): ("ae353f7cf1c1991f", "865018253c05dd03"),
    ("file-consistent", 1): ("ae353f7cf1c1991f", "865018253c05dd03"),
    ("file-inconsistent", 0): ("222943b5fc97fd6f", "865018253c05dd03"),
    ("file-inconsistent", 1): ("222943b5fc97fd6f", "865018253c05dd03"),
}


@pytest.mark.parametrize("row, trial", sorted(TRIAL_RHS_PINS))
def test_trial_problems_keep_their_rhs_seed_rule(row, trial):
    kind, consistency = row.split("-")
    entry = ManifestEntry(label=row, kind=kind, rows=40, cols=5, path=data_path("fixture3x2.mtx"),
                          consistent=consistency == "consistent")
    problem = build_trial_problem(entry, base_seed=7, trial=trial)
    assert tuple(hashlib.sha256(v.tobytes()).hexdigest()[:16]
                 for v in (problem.rhs, problem.known_solution)) == TRIAL_RHS_PINS[row, trial]


def test_rhs_stream_independent_of_matrix_stream():
    entry = random_entry(m=60, n=6)
    problem = build_trial_problem(entry, base_seed=5, trial=0)
    # x_true must not replicate any slice of the matrix stream
    assert not np.array_equal(problem.known_solution, problem.matrix[0, :])
    assert not np.array_equal(problem.known_solution, problem.matrix[:, 0][:6])


def test_fixed_matrix_iteration_count_is_constant(tmp_path):
    target = tmp_path / "fixture3x2.mtx"
    shutil.copy(data_path("fixture3x2.mtx"), target)
    entry = ManifestEntry(label="fix", kind="file", path=str(target), consistent=True)
    spec = ExperimentSpec(problem=entry, methods=[Method.GGS], repeats=5, base_seed=3)
    result = run_experiment(spec)
    its = [rec.iterations for rec in result.trials]
    assert len(set(its)) == 1
    assert result.mean_it[Method.GGS] == its[0]


def test_single_repeat_mean_equals_trial():
    spec = ExperimentSpec(problem=random_entry(m=120, n=8), methods=[Method.GGS, Method.GRCD],
                          repeats=1, base_seed=2)
    result = run_experiment(spec)
    ggs = [rec for rec in result.trials if rec.method is Method.GGS]
    assert len(ggs) == 1
    assert result.mean_it[Method.GGS] == ggs[0].iterations
    assert result.it_speedup == pytest.approx(
        result.mean_it[Method.GRCD] / result.mean_it[Method.GGS])


def test_failed_trials_excluded_with_warning():
    spec = ExperimentSpec(problem=random_entry(m=200, n=20), methods=[Method.GGS],
                          repeats=2, base_seed=4, max_iterations=3)
    with pytest.warns(UserWarning):
        result = run_experiment(spec)
    assert result.failed_trials == 2
    assert Method.GGS not in result.mean_it


def _check_records_equal_plain_solves(spec, result):
    """Every record's counts and final_res equal a plain solve of its trial's problem."""
    for rec in result.trials:
        problem = build_trial_problem(spec.problem, spec.base_seed, rec.trial)
        config = SolverConfig(method=rec.method, max_iterations=spec.max_iterations,
                              res_tolerance=spec.res_tolerance, seed=spec.base_seed + rec.trial)
        report = solve(problem, config)
        assert (rec.iterations, rec.stop_reason, rec.final_res.hex()) == \
               (report.iterations, report.stop_reason, report.final_res.hex())


def test_each_trial_builds_one_gram_matrix_for_all_its_methods(count_calls):
    spec = ExperimentSpec(problem=random_entry(m=200, n=10), methods=["ggs", "grcd", "rgs"],
                          repeats=3, base_seed=6)
    grams = count_calls("gram_matrix")
    result = run_experiment(spec)
    assert len(grams) == 3
    # Solved one by one, the same trials build a G per solve: rgs runs
    # past its n residual steps too.
    grams.clear()
    _check_records_equal_plain_solves(spec, result)
    assert len(grams) == 9


def test_a_trial_whose_gram_matrix_does_not_fit_builds_none(monkeypatch, count_calls, tmp_path):
    rng = np.random.default_rng(91)
    D = rng.standard_normal((300, 60))
    D[rng.random((300, 60)) > 0.05] = 0.0
    path = tmp_path / "sparse.mtx"
    save_matrix_market(sparse.csc_array(D), path)
    entry = ManifestEntry(label="csc", kind="file", path=str(path), consistent=True)
    spec = ExperimentSpec(problem=entry, methods=["ggs", "grcd", "rgs"], repeats=2, base_seed=6)
    monkeypatch.setattr(solvers, "GRAM_BUDGET_BYTES", 0)
    assert not solvers.gram_fits(build_trial_problem(entry, spec.base_seed, 0).matrix)
    grams = count_calls("gram_matrix")
    result = run_experiment(spec)
    assert len(grams) == 0
    _check_records_equal_plain_solves(spec, result)


def test_every_solve_finds_its_problems_views_built(monkeypatch):
    # So no solve's time includes the column norms, A^T b or G.
    found = []
    monkeypatch.setattr(bench, "solve", lambda problem, config:
                        found.append(set(vars(problem))) or solve(problem, config))
    spec = ExperimentSpec(problem=random_entry(m=200, n=10), methods=list(Method), repeats=2)
    run_experiment(spec)
    assert len(found) == 8
    assert all({"column_norms_sq", "atb", "gram"} <= names for names in found)


# report_digest of each solve of a 3-trial run on a 200x10 file row, in
# run order (trial by trial, methods in Method order), recorded when
# run_experiment still built the problem and G once per trial.
FILE_ROW_REPORT_PINS = {
    "consistent": [
        "6ab55f1cbe137efb", "6ab55f1cbe137efb", "5c0210d5d385e0b3", "6adf3151e5647189",
        "6ab55f1cbe137efb", "6ab55f1cbe137efb", "245b1ed038841bd9", "89a888dd70da9189",
        "6ab55f1cbe137efb", "6ab55f1cbe137efb", "8ad5922ebf74c10a", "a98bacef87828889",
    ],
    "inconsistent": [
        "c7ff5c6c158f279e", "c7ff5c6c158f279e", "804ade0994854466", "54a11ef51e91ecc1",
        "c7ff5c6c158f279e", "c7ff5c6c158f279e", "a38b9e57ad3dbd49", "7cc46945f5a043a4",
        "c7ff5c6c158f279e", "c7ff5c6c158f279e", "ea68498fc17ec4f5", "202084dec4e5eff8",
    ],
}


@pytest.mark.parametrize("consistency", sorted(FILE_ROW_REPORT_PINS))
def test_a_file_row_is_built_once_per_run(monkeypatch, count_calls, tmp_path, consistency):
    path = tmp_path / "m.mtx"
    save_matrix_market(gen_gaussian(200, 10, 93), path)
    builds = {"load_matrix_market": [], "synthesize_problem": []}
    for name, calls in builds.items():
        original = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *a, original=original, calls=calls:
                            calls.append(1) or original(*a))
    builds["gram_matrix"] = count_calls("gram_matrix")
    reports = []
    monkeypatch.setattr(bench, "solve", lambda *a, **k: reports.append(solve(*a, **k)) or reports[-1])
    entry = ManifestEntry(label="f", kind="file", path=str(path), consistent=consistency == "consistent")
    result = run_experiment(ExperimentSpec(problem=entry, methods=list(Method), repeats=3, base_seed=8))
    assert {name: len(calls) for name, calls in builds.items()} == dict.fromkeys(builds, 1)
    assert [report_digest(report) for report in reports] == FILE_ROW_REPORT_PINS[consistency]
    assert [(rec.iterations, rec.final_res) for rec in result.trials] == \
           [(report.iterations, report.final_res) for report in reports]


def synthetic_result():
    return ExperimentResult(
        label="1000x50",
        methods=[Method.GGS, Method.GRCD],
        mean_it={Method.GGS: 126.0, Method.GRCD: 128.24},
        mean_cpu={Method.GGS: 0.0138, Method.GRCD: 0.0631},
        it_speedup=128.24 / 126.0,
        cpu_speedup=0.0631 / 0.0138,
    )


def test_emit_table_formats_four_decimals():
    text = emit_table([synthetic_result()], fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["problem", "it_ggs", "it_grcd", "it_speedup",
                       "cpu_ggs", "cpu_grcd", "cpu_speedup"]
    assert rows[1][0] == "1000x50"
    assert rows[1][1] == "126.0000"
    assert rows[1][2] == "128.2400"
    assert rows[1][3] == "1.0178"


def test_an_unknown_problem_kind_or_table_format_is_refused():
    entry = ManifestEntry(label="t", kind="tape")
    with pytest.raises(ValueError, match="^unknown problem kind 'tape'$"):
        build_trial_problem(entry, base_seed=1, trial=0)
    with pytest.raises(ValueError, match="^unknown table format 'html'$"):
        emit_table([synthetic_result()], fmt="html")


def test_emit_table_empty():
    text = emit_table([], fmt="csv")
    assert text.strip() == "problem,it_speedup,cpu_speedup"


def test_markdown_and_csv_share_numeric_strings():
    result = synthetic_result()
    csv_text = emit_table([result], fmt="csv")
    md_text = emit_table([result], fmt="markdown")
    csv_cells = list(csv.reader(io.StringIO(csv_text)))[1]
    md_cells = [c.strip() for c in md_text.splitlines()[2].strip("|").split("|")]
    assert csv_cells == md_cells


def test_speedup_recomputable_from_emitted_csv():
    spec = ExperimentSpec(problem=random_entry(m=200, n=12), methods=[Method.GGS, Method.GRCD],
                          repeats=3, base_seed=11)
    result = run_experiment(spec)
    rows = list(csv.reader(io.StringIO(emit_table([result], fmt="csv"))))
    header, row = rows[0], rows[1]
    it_ggs = float(row[header.index("it_ggs")])
    it_grcd = float(row[header.index("it_grcd")])
    printed = float(row[header.index("it_speedup")])
    assert printed == pytest.approx(it_grcd / it_ggs, abs=1e-4)
    assert printed == pytest.approx(result.it_speedup, abs=1e-4)


def test_emit_convergence_curve_worked(tmp_path, worked_dense, worked_rhs):
    problem = LsqProblem(matrix=worked_dense, rhs=worked_rhs,
                         known_solution=np.array([1.0, 1.0]))
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    path = tmp_path / "curve.csv"
    emit_convergence_curve(report.trace, path)
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["iteration", "gradient_norm_sq", "res"]
    assert len(rows) == 4  # header + k = 0, 1, 2
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert float(rows[-1][2]) == 0.0


def test_emit_convergence_curve_empty(tmp_path):
    path = tmp_path / "curve.csv"
    emit_convergence_curve([], path)
    assert path.read_text() == "iteration,gradient_norm_sq\n"


def test_curve_energy_is_monotone_on_consistent_run(tmp_path):
    # The contraction theory guarantees the energy error never grows;
    # the Euclidean res column may tick up by rounding-level amounts.
    problem = build_trial_problem(random_entry(m=200, n=15), base_seed=13, trial=0)
    report = solve(problem, SolverConfig(method=Method.GGS, record_trace=True))
    energies = [rec.energy_error_sq for rec in report.trace]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
    path = tmp_path / "curve.csv"
    emit_convergence_curve(report.trace, path)
    rows = list(csv.reader(io.StringIO(path.read_text())))
    res = [float(r[2]) for r in rows[1:]]
    assert res[-1] <= 1e-6


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
def test_the_rgs_curve_ends_at_the_final_res_of_the_table(tmp_path, consistent):
    # bench's curve is a traced solve of trial 0, its table row the
    # untraced one: the two must be the same solve.
    for seed in range(1, 4):
        entry = random_entry(label=f"r{seed}", m=300, n=20, consistent=consistent)
        spec = ExperimentSpec(problem=entry, methods=[Method.RGS], repeats=1, base_seed=seed)
        trial = run_experiment(spec, tmp_path / f"curve_r{seed}.csv").trials[0]
        last = list(csv.reader(io.StringIO((tmp_path / f"curve_r{seed}.csv").read_text())))[-1]
        assert (int(last[0]), float(last[2])) == (trial.iterations, trial.final_res)

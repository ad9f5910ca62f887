import csv
import io
import shutil

import numpy as np
import pytest

from conftest import data_path

from greedylsq.bench import (
    ExperimentResult,
    ExperimentSpec,
    build_trial_problem,
    emit_convergence_curve,
    emit_table,
    run_experiment,
)
from greedylsq.problems import LsqProblem, ManifestEntry
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


def test_trial_problem_shared_and_deterministic():
    entry = random_entry(m=60, n=6)
    p1 = build_trial_problem(entry, base_seed=5, trial=2)
    p2 = build_trial_problem(entry, base_seed=5, trial=2)
    assert np.array_equal(p1.matrix, p2.matrix)
    assert np.array_equal(p1.rhs, p2.rhs)
    assert np.array_equal(p1.known_solution, p2.known_solution)
    p3 = build_trial_problem(entry, base_seed=5, trial=3)
    assert not np.array_equal(p1.matrix, p3.matrix)


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

import csv
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import data_path

from greedylsq import cli
from greedylsq.analysis import verify_trace
from greedylsq.cli import main
from greedylsq.problems import gen_gaussian, load_manifest, save_matrix_market


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 64
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "solve", "--frobnicate")
    assert code == 64


def test_solve_requires_rhs_choice(capsys):
    code, _, err = run_cli(capsys, "solve", "--random", "20", "4", "1")
    assert code == 64
    assert "--consistent" in err


def test_solve_rejects_matrix_and_random_together(capsys):
    code, _, _ = run_cli(capsys, "solve", data_path("fixture3x2.mtx"),
                         "--random", "5", "2", "1", "--consistent")
    assert code == 64


def test_solve_missing_matrix_file(capsys):
    code, _, _ = run_cli(capsys, "solve", "/nonexistent/m.mtx", "--consistent")
    assert code == 66


def test_solve_random_consistent(capsys):
    code, out, _ = run_cli(capsys, "solve", "--random", "1000", "50", "7", "--consistent",
                           "--method", "ggs")
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["method"] == "ggs"
    assert lines["stop_reason"] == "res_reached"
    assert 100 <= int(lines["iterations"]) <= 160
    assert float(lines["final_res"]) <= 1e-6


def test_solve_stdout_is_stable(capsys):
    args = ("solve", "--random", "80", "8", "3", "--consistent")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_fixture_with_rhs_file(capsys):
    code, out, _ = run_cli(capsys, "solve", data_path("fixture3x2.mtx"),
                           "--rhs", data_path("b3.txt"), "--method", "ggs")
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["iterations"] == "2"
    assert lines["stop_reason"] == "gradient_reached"


def test_solve_iteration_cap_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", data_path("fixture3x2.mtx"),
                           "--rhs", data_path("b3.txt"), "--max-iters", "1")
    assert code == 2
    assert "iteration_cap" in out


def test_solve_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "solve", data_path("fixture3x2.mtx"),
                         "--consistent", "--trace", str(trace_path))
    assert code == 0
    text = trace_path.read_text().splitlines()
    assert text[0] == "iteration,gradient_norm_sq,res"
    assert len(text) >= 2


def test_bench_missing_manifest(capsys):
    code, _, _ = run_cli(capsys, "bench", "/nonexistent/manifest.txt")
    assert code == 66


def test_bench_runs_manifest(tmp_path, capsys):
    shutil.copy(data_path("fixture3x2.mtx"), tmp_path / "fixture3x2.mtx")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "rand random:120x8 consistent\n"
        "fix file:fixture3x2.mtx consistent 5\n"
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "bench", str(manifest), "--repeats", "2",
                           "--seed", "3", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "bench_table.csv").exists()
    assert (out_dir / "curve_rand.csv").exists()
    assert (out_dir / "curve_fix.csv").exists()
    header = (out_dir / "bench_table.csv").read_text().splitlines()[0]
    assert header == "problem,it_ggs,it_grcd,it_speedup,cpu_ggs,cpu_grcd,cpu_speedup"
    assert "rand" in out and "fix" in out


def test_bench_builds_each_rows_problem_once_with_its_curve(tmp_path, capsys, count_calls):
    # The curve is a traced re-solve of trial 0's own problem: the file is
    # read, and each problem and its G built, once per row or trial.
    save_matrix_market(gen_gaussian(300, 12, 4), tmp_path / "m.mtx")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("f file:m.mtx consistent\nr random:300x12 inconsistent\n")
    names = ["load_matrix_market", "make_consistent", "gen_gaussian", "make_inconsistent",
             "gram_matrix", "solve"]
    calls = {name: count_calls(name) for name in names}
    code, _, _ = run_cli(capsys, "bench", str(manifest), "--repeats", "3", "--methods", "ggs,grcd",
                         "--out", str(tmp_path / "out"))
    assert code == 0
    # 12 trials and 2 curves; the parent counted 2, 2, 4, 4, 6 and 14.
    assert {name: len(c) for name, c in calls.items()} == dict(zip(names, [1, 1, 3, 3, 4, 14]))
    for label in "fr":
        assert (tmp_path / "out" / f"curve_{label}.csv").exists()


def test_bench_reports_a_failed_curve_write_against_its_row(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a random:40x4 consistent\nb random:40x4 consistent\n")
    (tmp_path / "out" / "curve_a.csv").mkdir(parents=True)
    code, out, err = run_cli(capsys, "bench", str(manifest), "--repeats", "1", "--methods", "ggs",
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("greedylsq: experiment 'a' failed: ")
    assert [row.split(",")[0] for row in out.splitlines()] == ["problem", "b"]


def test_bench_refuses_labels_that_would_share_a_curve_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a/b random:40x4 consistent\na_b random:40x4 consistent\n")
    code, out, err = run_cli(capsys, "bench", str(manifest), "--repeats", "1", "--methods", "ggs",
                             "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert err.startswith("greedylsq: line 1: label 'a/b' may hold only ASCII letters")
    assert len(err.splitlines()) == 1


def test_bench_refuses_a_non_ascii_label_in_one_line(tmp_path, capsys):
    # Such a label once reached the ASCII table writer and ended in a traceback.
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("café random:40x4 consistent\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bench", str(manifest), "--repeats", "1", "--methods", "ggs",
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("greedylsq: line 1: label ")
    assert len(err.splitlines()) == 1


def test_shipped_manifest_runs(tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "manifests", "example.txt")
    entries = load_manifest(path)
    assert [(e.label, e.rows, e.cols, e.consistent) for e in entries] == [
        ("t1_1000x50", 1000, 50, True), ("t1_1000x100", 1000, 100, True),
        ("t2_1000x50", 1000, 50, False), ("t2_2000x50", 2000, 50, False)]
    code, out, _ = run_cli(capsys, "bench", path, "--repeats", "1", "--out", str(tmp_path))
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [e.label for e in entries]


def test_bench_markdown_format(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("rand random:100x6 consistent\n")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "bench", str(manifest), "--repeats", "1",
                           "--out", str(out_dir), "--format", "markdown", "--methods", "ggs")
    assert code == 0
    assert (out_dir / "bench_table.md").exists()
    assert out.startswith("| problem |")


def test_verify_bounds_random(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify-bounds", "--random", "200", "20", "5",
                           "--consistent", "--out", str(report_path))
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["per_step_violations"] == "0"
    assert lines["cumulative_violations"] == "0"
    text = report_path.read_text()
    assert "violations: 0" in text
    assert "factors:" in text


# SHA-256 of the --out report of `verify-bounds --random 60 6 2`, recorded
# when cmd_verify_bounds still appended the factors: list to to_text().
VERIFY_BOUNDS_OUT_SHA256 = "719386697032fc476ca83a68fb4a281c46fcb9a7e91f09fe5bdbec95673f44bb"


def test_verify_bounds_out_is_the_bound_report_text(tmp_path, monkeypatch, capsys):
    reports = []
    original = cli.verify_trace
    monkeypatch.setattr(cli, "verify_trace", lambda *a: reports.append(original(*a)) or reports[-1])
    report_path = tmp_path / "report.txt"
    code, _, _ = run_cli(capsys, "verify-bounds", "--random", "60", "6", "2", "--out", str(report_path))
    assert code == 0
    data = report_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == VERIFY_BOUNDS_OUT_SHA256
    assert data.decode() == reports[0].to_text()
    assert data.decode().endswith("\n  k=19 factor=8.514041555907e-01\n")


def test_verify_bounds_exits_1_on_a_violation(tmp_path, monkeypatch, capsys):
    # The run's own trace, with the initial energy put back at iterate 2.
    def with_a_raised_energy(trace, lam, n):
        trace = list(trace)
        trace[2] = dataclasses.replace(trace[2], energy_error_sq=trace[0].energy_error_sq)
        return verify_trace(trace, lam, n)
    monkeypatch.setattr(cli, "verify_trace", with_a_raised_energy)
    report_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify-bounds", "--random", "200", "20", "5",
                           "--consistent", "--out", str(report_path))
    assert code == 1
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert (lines["per_step_violations"], lines["cumulative_violations"]) == ("1", "1")
    assert "violation: iteration=1 " in report_path.read_text()


def test_verify_bounds_single_column(capsys):
    # One column converges in one step, so the first-step factor is 0.
    code, out, err = run_cli(capsys, "verify-bounds", "--random", "30", "1", "2")
    assert (code, err) == (0, "")
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert float(lines["first_step_factor"]) == 0.0
    assert lines["per_step_violations"] == "0"
    assert lines["cumulative_violations"] == "0"


def test_verify_bounds_worked_fixture(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify-bounds", data_path("fixture3x2.mtx"),
                           "--consistent", "--out", str(report_path))
    assert code == 0
    text = report_path.read_text()
    assert "k=0 factor=8.750000000000e-01" in text


def test_info_and_verify_bounds_give_one_rank_verdict(tmp_path, capsys):
    # cond(A) = 10^5.5, so lambda_min / lambda_max = 1e-11 clears the
    # rank threshold of 1e-12 for both commands.
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((200, 10)))[0]
    V = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    path = str(tmp_path / "cond.mtx")
    save_matrix_market((U * np.logspace(0, -5.5, 10)) @ V.T, path)
    code, out, _ = run_cli(capsys, "info", path)
    assert code == 0
    assert "cond: 316227.5710" in out
    code, out, _ = run_cli(capsys, "verify-bounds", path, "--consistent", "--max-iters", "20")
    assert code == 0
    assert "lambda_min: 1.0000" in out


def test_verify_bounds_rank_deficient(capsys):
    code, _, err = run_cli(capsys, "verify-bounds", data_path("rankdef2col.mtx"),
                           "--consistent")
    assert code == 1
    assert "eigenvalue" in err.lower() or "rank" in err.lower()


@pytest.mark.parametrize("argv", [
    ["solve", "--random", "20", "4", "1", "--consistent", "--tie-tol", "1e-9"],
    ["verify-bounds", "--random", "20", "4", "1", "--method", "ggs"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--random", "3", "5", "1", "--consistent"],
    ["gen", "--random", "3", "5", "1", "--consistent", "--out", "{tmp}"],
    ["solve", "--random", "20", "4", "1", "--consistent", "--max-iters", "0"],
    ["solve", "--random", "20", "4", "1", "--consistent", "--tol", "-1"],
    ["bench", "{manifest}", "--repeats", "0"],
    ["bench", "{manifest}", "--methods", "ggs,foo"],
    ["bench", "{manifest}", "--methods", ","],
    ["solve", "--random", "20", "4", "1", "--consistent", "--tol", "inf"],
])
def test_bad_numbers_are_usage_errors(tmp_path, capsys, argv):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("row random:40x4 consistent\n")
    argv = [a.format(tmp=tmp_path / "gen", manifest=manifest) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]]
    assert "Traceback" not in err


def test_bench_manifest_with_m_below_n_names_its_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# wide\nrow random:3x5 consistent\n")
    code, out, err = run_cli(capsys, "bench", str(manifest), "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == "greedylsq: line 2: random spec 'random:3x5' needs M >= N >= 1\n"


def test_solve_rank_deficient_known_solution_exits_1(capsys):
    # rankdef2col's columns are equal, so x_true is one of many solutions.
    code, out, err = run_cli(capsys, "solve", data_path("rankdef2col.mtx"), "--consistent")
    assert code == 1
    assert out == ""
    assert err.startswith("greedylsq: ") and err.count("\n") == 1
    assert "not the only least-squares solution" in err


def test_verify_bounds_csv_row(tmp_path, capsys):
    csv_path = tmp_path / "bounds.csv"
    code, _, _ = run_cli(capsys, "verify-bounds", "--random", "60", "6", "2",
                         "--consistent", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("label,lambda_min")
    assert len(lines) == 2


def test_verify_bounds_csv_writes_its_header_into_an_empty_file(tmp_path, capsys):
    csv_path = tmp_path / "bounds.csv"
    csv_path.write_text("")
    argv = ("verify-bounds", "--random", "60", "6", "2", "--csv", str(csv_path))
    assert run_cli(capsys, *argv)[0] == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("label,lambda_min,")
    assert run_cli(capsys, *argv)[0] == 0
    assert csv_path.read_text().splitlines() == [*lines, lines[1]]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_verify_bounds_csv_into_a_pipe_writes_the_row_alone(capsys):
    # A pipe has no position to test for emptiness, so it gets rows alone.
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, encoding="utf-8") as reader:
        try:
            code, _, err = run_cli(capsys, "verify-bounds", "--random", "60", "6", "2",
                                   "--csv", f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        lines = reader.read().splitlines()
    assert (code, err) == (0, "")
    assert len(lines) == 1 and lines[0].startswith("random 60x6 seed 2,")


def test_verify_bounds_zero_steps_leaves_the_first_step_factor_empty(tmp_path, capsys):
    # --tol 1 stops at iteration 0, so no factor exists to report.
    report_path, csv_path = tmp_path / "report.txt", tmp_path / "bounds.csv"
    code, out, _ = run_cli(capsys, "verify-bounds", "--random", "60", "6", "2", "--tol", "1",
                           "--out", str(report_path), "--csv", str(csv_path))
    assert code == 0
    assert "iterations: 0" in out.splitlines()
    assert "first_step_factor:" in out.splitlines()
    assert "first_step_factor: " in report_path.read_text().splitlines()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert header[4:6] == ["first_step_factor", "cumulative_factor"]
    assert row[0] == "random 60x6 seed 2"
    assert row[2:6] == ["0", "0.000000000000e+00", "", ""]
    assert row[6] != "" and row[7] == "0"


@pytest.mark.parametrize("name", ["a,b.mtx", "é,1.mtx"])
def test_verify_bounds_csv_quotes_a_label_holding_a_comma(tmp_path, capsys, name):
    matrix = tmp_path / name
    save_matrix_market(gen_gaussian(60, 6, 2), str(matrix))
    csv_path = tmp_path / "bounds.csv"
    code, _, _ = run_cli(capsys, "verify-bounds", str(matrix), "--consistent", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 8
    assert row[0] == str(matrix)


def test_main_calls_the_handler_the_module_holds_when_it_runs(monkeypatch, capsys):
    # A wrapper set on cli.cmd_info after import is the one main calls.
    monkeypatch.setattr(cli, "cmd_info", lambda args, parser: 7)
    assert run_cli(capsys, "info", "/nonexistent.mtx")[0] == 7


@pytest.mark.parametrize("flag, consistent", [("--consistent", "true"), ("--inconsistent", "false")])
def test_gen_reports_which_rhs_it_wrote(tmp_path, capsys, flag, consistent):
    code, out, _ = run_cli(capsys, "gen", "--random", "40", "4", "9", flag, "--out", str(tmp_path))
    assert code == 0
    assert out.splitlines()[-1] == f"consistent: {consistent}"


def test_gen_writes_vectors_at_full_precision(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--random", "4", "2", "9", "--consistent", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "rhs.txt").read_text() == (
        "0.67992667697106124\n1.4914765411188446\n-1.0294480899210359\n-0.14655069110756477\n")
    assert (tmp_path / "solution.txt").read_text() == "-0.67387141928473215\n0.57203156112751885\n"


# SHA-256 prefixes of the files `gen --random 30 4 3 --seed 5` writes,
# recorded when the CLI still coded the rhs seed rule itself.
GEN_FILE_PINS = {
    "--consistent": {"matrix.mtx": "4f2ca78f35a18a2c", "rhs.txt": "8c668dabe9e9144a",
                     "solution.txt": "c37e04f45e97d07b"},
    "--inconsistent": {"matrix.mtx": "4f2ca78f35a18a2c", "rhs.txt": "330ef3aefdc96e08",
                       "solution.txt": "c37e04f45e97d07b"},
}


@pytest.mark.parametrize("flag", sorted(GEN_FILE_PINS))
def test_gen_files_keep_their_rhs_seed_rule(tmp_path, capsys, flag):
    code, _, _ = run_cli(capsys, "gen", "--random", "30", "4", "3", "--seed", "5", flag,
                         "--out", str(tmp_path))
    assert code == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in GEN_FILE_PINS[flag]} == GEN_FILE_PINS[flag]


def test_gen_and_solve_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run_cli(capsys, "gen", "--random", "40", "4", "9", "--consistent",
                           "--out", str(out_dir))
    assert code == 0
    matrix_path = out_dir / "matrix.mtx"
    rhs_path = out_dir / "rhs.txt"
    assert matrix_path.exists() and rhs_path.exists() and (out_dir / "solution.txt").exists()
    code, out, _ = run_cli(capsys, "solve", str(matrix_path), "--rhs", str(rhs_path))
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["stop_reason"] == "gradient_reached"

    sol = np.loadtxt(out_dir / "solution.txt")
    from greedylsq.problems import load_matrix_market, load_vector, LsqProblem, reference_solution
    problem = LsqProblem(matrix=load_matrix_market(matrix_path), rhs=load_vector(rhs_path))
    np.testing.assert_allclose(reference_solution(problem), sol, rtol=1e-8)


def test_info_fixture(capsys):
    code, out, _ = run_cli(capsys, "info", data_path("fixture3x2.mtx"))
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["rows"] == "3" and lines["cols"] == "2"
    assert lines["nnz"] == "2"
    assert lines["density"] == "33.33%"
    assert lines["cond"] == "2.0000"


def test_info_rank_deficient(capsys):
    code, out, _ = run_cli(capsys, "info", data_path("rankdef2col.mtx"))
    assert code == 1
    assert "rank-deficient" in out


def test_info_missing_file(capsys):
    code, _, _ = run_cli(capsys, "info", "/nonexistent/x.mtx")
    assert code == 66


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "solve" in out and "bench" in out


def test_verify_bounds_inconsistent_problem(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds", "--random", "100", "10", "4",
                           "--inconsistent")
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["per_step_violations"] == "0"


def test_verify_bounds_inconsistent_builds_the_gram_matrix_twice(count_calls, capsys):
    # make_inconsistent's G serves the solve; lambda_min_pos builds its own.
    grams, eigs = count_calls("gram_matrix"), count_calls("jacobi_eigenvalues")
    code, _, _ = run_cli(capsys, "verify-bounds", "--random", "60", "6", "2", "--inconsistent")
    assert code == 0
    assert (len(grams), len(eigs)) == (2, 2)


def test_bench_exits_1_when_trials_hit_the_cap(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("row random:40x4 consistent\n")
    code, out, err = run_cli(capsys, "bench", str(manifest), "--repeats", "1", "--max-iters", "1",
                             "--methods", "ggs", "--out", str(tmp_path / "out"))
    assert code == 1
    assert out.splitlines()[1].startswith("row,")
    warning, table = err.splitlines()
    assert warning == ("greedylsq: row/ggs: 1 of 1 trials hit the iteration cap and were "
                       "excluded from the averages")
    assert table.startswith("table: ")


def test_bench_reports_failed_experiment(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "ok random:80x6 consistent\n"
        "gone file:missing.mtx consistent\n"
    )
    code, out, err = run_cli(capsys, "bench", str(manifest), "--repeats", "1",
                             "--out", str(tmp_path / "out"), "--methods", "ggs")
    assert code == 1
    assert "gone" in err
    assert "ok" in out  # the healthy experiment still ran


def test_solve_non_finite_rhs_exits_1_with_one_line(tmp_path, capsys):
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\ninf\n3.0\n")
    code, out, err = run_cli(capsys, "solve", data_path("fixture3x2.mtx"), "--rhs", str(rhs))
    assert code == 1
    assert out == ""
    assert err.startswith("greedylsq: ") and err.count("\n") == 1
    assert "rhs" in err



@pytest.mark.parametrize("command, options", [
    ("info", []),
    ("verify-bounds", []),
    ("verify-bounds", ["--inconsistent"]),
    ("solve", ["--inconsistent"]),
])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_matrix_exits_1_with_one_line(tmp_path, capsys, command, options, bad):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"3 2 3\n1 1 1.0\n2 2 {bad}\n3 1 2.0\n")
    code, _, err = run_cli(capsys, command, str(path), *options)
    assert code == 1
    assert err.startswith("greedylsq: ") and err.count("\n") == 1
    assert "Gram matrix" in err


_NO_TRACEBACK_CASES = [
    # (argv, exit code); paths are relative to a directory holding
    # fixture3x2.mtx, b2.txt (2 values), small.txt, neg.txt (seed -1),
    # an empty directory adir, an existing file afile and nonsquare.mtx
    # (3x2 with symmetric storage).
    (["solve", "--random", "40", "4", "1", "--consistent", "--seed", "-1"], 64),
    (["solve", "--random", "40", "4", "1", "--consistent", "--method", "grcd",
      "--seed", "-1"], 64),
    (["verify-bounds", "--random", "40", "4", "1", "--seed", "-1"], 64),
    (["gen", "--random", "40", "4", "1", "--consistent", "--seed", "-1", "--out", "g"], 64),
    (["bench", "small.txt", "--seed", "-1", "--out", "b"], 64),
    (["bench", "neg.txt", "--out", "b"], 1),
    (["solve", "fixture3x2.mtx", "--rhs", "b2.txt"], 1),
    (["solve", "adir", "--consistent"], 1),
    (["solve", "fixture3x2.mtx", "--rhs", "adir"], 1),
    (["info", "adir"], 1),
    (["bench", "adir"], 1),
    (["verify-bounds", "--random", "40", "4", "1", "--out", "nodir/report.txt"], 1),
    (["solve", "--random", "40", "4", "1", "--consistent", "--trace", "nodir/t.csv"], 1),
    (["gen", "--random", "40", "4", "1", "--consistent", "--out", "afile"], 1),
    (["bench", "small.txt", "--out", "afile"], 1),
    (["solve", "missing.mtx", "--consistent"], 66),
    (["solve", "fixture3x2.mtx", "--rhs", "missing.txt"], 66),
    (["verify-bounds", "missing.mtx"], 66),
    (["info", "missing.mtx"], 66),
    (["bench", "missing.txt"], 66),
    (["info", "nonsquare.mtx"], 1),
    (["solve", "--consistent"], 64),
]


@pytest.mark.parametrize("argv, want", _NO_TRACEBACK_CASES,
                         ids=[" ".join(argv) for argv, _ in _NO_TRACEBACK_CASES])
def test_cli_failure_is_one_line_with_its_exit_code(tmp_path, monkeypatch, capsys, argv, want):
    shutil.copy(data_path("fixture3x2.mtx"), tmp_path)
    (tmp_path / "b2.txt").write_text("1.0\n2.0\n")
    (tmp_path / "small.txt").write_text("row random:40x4 consistent\n")
    (tmp_path / "neg.txt").write_text("row random:40x4 consistent -1\n")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    (tmp_path / "nonsquare.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == want
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "greedylsq:" in ln or "error:" in ln]) == 1


def test_info_on_a_huge_declared_shape_is_a_parse_error(tmp_path):
    # CSC storage of a 3 x 2^31 matrix needs 16 GiB of column pointers.  A
    # child process caps its address space before numpy loads, so the
    # allocation fails at once; never load this file without the cap.
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 2147483648 1\n1 1 1.0\n")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)
    child = (f"import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
             "from greedylsq.cli import main\nsys.exit(main(['info', sys.argv[1]]))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "greedylsq: line 2: a 3 x 2147483648 matrix does not fit in memory\n")


@pytest.mark.parametrize("argv, code, out", [
    (["info", data_path("fixture3x2.mtx")], 0, "rows: 3\ncols: 2\nnnz: 2\ndensity: 33.33%\ncond: 2.0000\n"),
    ([], 64, ""),
])
def test_python_m_greedylsq_runs_the_cli(argv, code, out):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "greedylsq", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)
    assert ("usage:" in done.stderr) == (code == 64)


def test_rhs_length_mismatch_names_both_counts(tmp_path, capsys):
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n")
    code, out, err = run_cli(capsys, "solve", data_path("fixture3x2.mtx"), "--rhs", str(rhs))
    assert code == 1
    assert out == ""
    assert err == f"greedylsq: rhs file {rhs} has 2 values, but the matrix has 3 rows\n"

import shutil

import numpy as np
import pytest

from conftest import data_path

from greedylsq.cli import main


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


def test_verify_bounds_worked_fixture(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify-bounds", data_path("fixture3x2.mtx"),
                           "--consistent", "--out", str(report_path))
    assert code == 0
    text = report_path.read_text()
    assert "k=0 factor=8.750000000000e-01" in text


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

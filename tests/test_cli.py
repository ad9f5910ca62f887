import shutil

import numpy as np
import pytest

from conftest import data_path

from greedylsq.cli import main
from greedylsq.problems import save_matrix_market


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


_NO_TRACEBACK_CASES = [
    # (argv, exit code); paths are relative to a directory holding
    # fixture3x2.mtx, b2.txt (2 values), small.txt, neg.txt (seed -1),
    # an empty directory adir and an existing file afile.
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
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == want
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "greedylsq:" in ln or "error:" in ln]) == 1


def test_rhs_length_mismatch_names_both_counts(tmp_path, capsys):
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n")
    code, out, err = run_cli(capsys, "solve", data_path("fixture3x2.mtx"), "--rhs", str(rhs))
    assert code == 1
    assert out == ""
    assert err == f"greedylsq: rhs file {rhs} has 2 values, but the matrix has 3 rows\n"

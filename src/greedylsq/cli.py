"""Command-line front end.

Subcommands: solve, bench, verify-bounds, gen, info.

Exit codes: 0 success / converged, 1 runtime error (a GreedyLsqError or an
OSError), 2 iteration cap, 64 usage error, 66 missing input file.
"""
import argparse
import os
import sys

from .analysis import grcd_expected_factor, lambda_min_pos, verify_trace
from .bench import ExperimentSpec, build_trial_problem, emit_convergence_curve, emit_table, run_experiment
from .exceptions import GreedyLsqError, ParseError, RankDeficient
from .problems import (
    RHS_SEED_OFFSET,
    LsqProblem,
    assert_full_column_rank,
    gen_gaussian,
    load_manifest,
    load_matrix_market,
    load_vector,
    make_consistent,
    make_inconsistent,
    matrix_density,
    save_matrix_market,
    save_vector,
)
from .solvers import Method, SolverConfig, StopReason, solve
from .validation import is_sparse

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ITERATION_CAP = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked(kind, ok, rule):
    """argparse type: parse with ``kind``, then require ``ok(value)``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_TOL = _checked(float, lambda v: v > 0.0, "must be positive")
_SEED = _checked(int, lambda v: v >= 0, "must be an integer >= 0")


def _method_list(text):
    """argparse type: a comma-separated, nonempty list of method names."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    known = [m.value for m in Method]
    unknown = [name for name in names if name not in known]
    if not names or unknown:
        raise argparse.ArgumentTypeError(
            f"want a comma-separated list of {', '.join(known)}, got {text!r}")
    return [Method(name) for name in names]


def _add_matrix_args(p):
    p.add_argument("matrix", nargs="?", help="MatrixMarket file")
    p.add_argument("--random", nargs=3, type=int, metavar=("M", "N", "SEED"),
                   help="generate a random normal M x N matrix instead of reading a file")


def _add_solver_args(p):
    p.add_argument("--method", choices=[m.value for m in Method], default="ggs")
    p.add_argument("--tol", type=_TOL, default=1e-6)
    p.add_argument("--max-iters", type=_COUNT, default=200_000)
    p.add_argument("--seed", type=_SEED, default=0)


def _add_rhs_args(p, allow_file_rhs):
    group = p.add_mutually_exclusive_group()
    if allow_file_rhs:
        group.add_argument("--rhs", help="right-hand-side vector file (one value per line)")
    group.add_argument("--consistent", action="store_true",
                       help="synthesize rhs = A x_true for a random x_true")
    group.add_argument("--inconsistent", action="store_true",
                       help="synthesize rhs = A x_true plus a nonzero residual with A^T r = 0")


def build_parser():
    parser = _Parser(prog="greedylsq",
                     description="Greedy coordinate-descent least-squares solvers")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="solve one least-squares problem")
    _add_matrix_args(p)
    _add_rhs_args(p, allow_file_rhs=True)
    _add_solver_args(p)
    p.add_argument("--trace", metavar="PATH", help="write a per-iteration convergence CSV")

    p = sub.add_parser("bench", help="run a benchmark manifest")
    p.add_argument("manifest")
    p.add_argument("--repeats", type=_COUNT, default=50)
    p.add_argument("--seed", type=_SEED, default=1)
    p.add_argument("--out", default=".", help="output directory for tables and curves")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--methods", type=_method_list, default="ggs,grcd",
                   help="comma-separated methods to compare")
    p.add_argument("--tol", type=_TOL, default=1e-6)
    p.add_argument("--max-iters", type=_COUNT, default=200_000)

    p = sub.add_parser("verify-bounds", help="check a greedy run against its convergence theory")
    _add_matrix_args(p)
    _add_rhs_args(p, allow_file_rhs=False)
    p.add_argument("--tol", type=_TOL, default=1e-6)
    p.add_argument("--max-iters", type=_COUNT, default=200_000)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", metavar="PATH", help="write the full text report here")
    p.add_argument("--csv", metavar="PATH", help="append a machine-readable summary row here")

    p = sub.add_parser("gen", help="generate a random problem and write it to files")
    p.add_argument("--random", nargs=3, type=int, metavar=("M", "N", "SEED"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--consistent", action="store_true")
    group.add_argument("--inconsistent", action="store_true")
    p.add_argument("--seed", type=_SEED, default=0, help="seed for the right-hand-side stream")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("info", help="print matrix statistics")
    p.add_argument("matrix")

    return parser


def _input(path, what):
    """Return ``path``, or exit 66 naming ``what`` if it does not exist."""
    if not os.path.exists(path):
        print(f"greedylsq: {what} not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_NOINPUT)
    return path


def _random_matrix(args, parser):
    m, n, seed = args.random
    if not m >= n >= 1 or seed < 0:
        parser.error(f"--random needs M >= N >= 1 and SEED >= 0, got {m} {n} {seed}")
    return gen_gaussian(m, n, seed), f"random {m}x{n} seed {seed}"


def _load_cli_matrix(args, parser):
    if args.random is not None and args.matrix is not None:
        parser.error("give either a matrix file or --random, not both")
    if args.random is not None:
        return _random_matrix(args, parser)
    if args.matrix is None:
        parser.error("a matrix file or --random is required")
    return load_matrix_market(_input(args.matrix, "matrix file")), args.matrix


def _synthesized(args, A, label=""):
    """The problem on ``A`` with a synthesized rhs: inconsistent under --inconsistent, else consistent."""
    make = make_inconsistent if args.inconsistent else make_consistent
    return make(A, args.seed + RHS_SEED_OFFSET, label=label)


def cmd_solve(args, parser):
    A, label = _load_cli_matrix(args, parser)
    if args.rhs is not None:
        rhs = load_vector(_input(args.rhs, "rhs file"))
        if rhs.size != A.shape[0]:
            raise ParseError(f"rhs file {args.rhs} has {rhs.size} values, "
                             f"but the matrix has {A.shape[0]} rows")
        problem = LsqProblem(matrix=A, rhs=rhs, label=label)
    elif args.consistent or args.inconsistent:
        problem = _synthesized(args, A, label)
    else:
        parser.error("one of --rhs, --consistent or --inconsistent is required")
    config = SolverConfig(
        method=Method(args.method),
        max_iterations=args.max_iters,
        res_tolerance=args.tol,
        seed=args.seed,
        record_trace=args.trace is not None,
    )
    report = solve(problem, config)

    print(f"method: {args.method}")
    print(f"matrix: {label} ({A.shape[0]}x{A.shape[1]})")
    print(f"iterations: {report.iterations}")
    print(f"stop_reason: {report.stop_reason.value}")
    if problem.known_solution is not None:
        print(f"final_res: {report.final_res:.12e}")
    else:
        print(f"final_gradient_ratio: {report.final_res:.12e}")
    if args.trace is not None:
        emit_convergence_curve(report.trace, args.trace)
        print(f"trace: {args.trace}")
    return EXIT_ITERATION_CAP if report.stop_reason is StopReason.ITERATION_CAP else EXIT_OK


def cmd_bench(args, parser):
    entries = load_manifest(_input(args.manifest, "manifest"))
    os.makedirs(args.out, exist_ok=True)

    results = []
    any_failed = False
    for entry in entries:
        spec = ExperimentSpec(
            problem=entry,
            methods=args.methods,
            repeats=args.repeats,
            base_seed=entry.seed if entry.seed is not None else args.seed,
            res_tolerance=args.tol,
            max_iterations=args.max_iters,
        )
        try:
            result = run_experiment(spec)
        except (GreedyLsqError, OSError) as exc:
            print(f"greedylsq: experiment {entry.label!r} failed: {exc}", file=sys.stderr)
            any_failed = True
            continue
        if result.failed_trials:
            any_failed = True
        results.append(result)
        _write_curve(entry, spec, args.out)

    table = emit_table(results, fmt=args.format)
    suffix = "csv" if args.format == "csv" else "md"
    table_path = os.path.join(args.out, f"bench_table.{suffix}")
    with open(table_path, "w", encoding="ascii") as fh:
        fh.write(table)
    print(table, end="")
    print(f"table: {table_path}", file=sys.stderr)
    return EXIT_ERROR if any_failed else EXIT_OK


def _write_curve(entry, spec, out_dir):
    """Trace trial 0 of the first method for plotting."""
    problem = build_trial_problem(entry, spec.base_seed, 0)
    config = SolverConfig(
        method=spec.methods[0],
        max_iterations=spec.max_iterations,
        res_tolerance=spec.res_tolerance,
        seed=spec.base_seed,
        record_trace=True,
    )
    report = solve(problem, config)
    safe_label = "".join(c if c.isalnum() or c in "-_." else "_" for c in entry.label)
    emit_convergence_curve(report.trace, os.path.join(out_dir, f"curve_{safe_label}.csv"))


def cmd_verify_bounds(args, parser):
    A, label = _load_cli_matrix(args, parser)
    problem = _synthesized(args, A, label)
    lam = lambda_min_pos(A)
    config = SolverConfig(
        method=Method.GGS,
        max_iterations=args.max_iters,
        res_tolerance=args.tol,
        record_trace=True,
    )
    report = solve(problem, config)
    bounds = verify_trace(report.trace, lam, A.shape[1])
    if A.shape[1] > 1:  # the expected factor is undefined for one column
        bounds.grcd_expected = grcd_expected_factor(A, lam)

    total_violations = len(bounds.violations) + bounds.cumulative_violations
    print(f"matrix: {label} ({A.shape[0]}x{A.shape[1]})")
    print(f"iterations: {report.iterations}")
    print(f"lambda_min: {lam:.12e}")
    print(f"first_step_factor: {bounds.first_step_factor:.12e}"
          if bounds.first_step_factor is not None else "first_step_factor:")
    print(f"per_step_violations: {len(bounds.violations)}")
    print(f"cumulative_violations: {bounds.cumulative_violations}")

    if args.out:
        text = bounds.to_text() + "factors:\n"
        if bounds.first_step_factor is not None:
            text += f"  k=0 factor={bounds.first_step_factor:.12e}\n"
        for i, f in enumerate(bounds.per_step_factors, start=1):
            text += f"  k={i} factor={f:.12e}\n"
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"report: {args.out}", file=sys.stderr)
    if args.csv:
        fresh = not os.path.exists(args.csv)
        with open(args.csv, "a", encoding="ascii") as fh:
            if fresh:
                fh.write("label," + bounds.csv_header() + "\n")
            fh.write(f"{label}," + bounds.csv_row() + "\n")

    return EXIT_OK if total_violations == 0 else EXIT_ERROR


def cmd_gen(args, parser):
    A, _ = _random_matrix(args, parser)
    problem = _synthesized(args, A)
    os.makedirs(args.out, exist_ok=True)
    matrix_path = os.path.join(args.out, "matrix.mtx")
    rhs_path = os.path.join(args.out, "rhs.txt")
    solution_path = os.path.join(args.out, "solution.txt")
    save_matrix_market(A, matrix_path)
    save_vector(problem.rhs, rhs_path)
    save_vector(problem.known_solution, solution_path)
    print(f"matrix: {matrix_path}")
    print(f"rhs: {rhs_path}")
    print(f"solution: {solution_path}")
    print(f"consistent: {str(problem.consistent).lower()}")
    return EXIT_OK


def cmd_info(args, parser):
    A = load_matrix_market(_input(args.matrix, "matrix file"))
    m, n = A.shape
    print(f"rows: {m}")
    print(f"cols: {n}")
    print(f"nnz: {A.nnz if is_sparse(A) else m * n}")
    print(f"density: {100.0 * matrix_density(A):.2f}%")
    try:
        cond = assert_full_column_rank(A)
    except RankDeficient:
        print("cond: rank-deficient")
        return EXIT_ERROR
    print(f"cond: {cond:.4f}")
    return EXIT_OK


_HANDLERS = {
    "solve": cmd_solve,
    "bench": cmd_bench,
    "verify-bounds": cmd_verify_bounds,
    "gen": cmd_gen,
    "info": cmd_info,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except (GreedyLsqError, OSError) as exc:
        print(f"greedylsq: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

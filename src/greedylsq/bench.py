"""Benchmark harness: repeated trials, averaging, table and curve output.

Random problems are regenerated per trial (matrix seed = base seed +
trial index, right-hand side from an offset stream), so every method
inside one trial sees the identical problem instance.  File-backed
matrices are fixed, and their right-hand side is drawn once from the
base seed, which keeps the deterministic method's iteration count
constant across trials while the randomized ones still vary.
"""
import csv
import io
import warnings
from dataclasses import dataclass, field, replace

from .problems import ManifestEntry, gen_gaussian, load_matrix_market, synthesize_problem
from .solvers import Method, SolverConfig, StopReason, gram_fits, solve


@dataclass
class ExperimentSpec:
    problem: ManifestEntry
    methods: list[Method]
    repeats: int = 50
    base_seed: int = 1
    res_tolerance: float = SolverConfig.res_tolerance
    max_iterations: int = SolverConfig.max_iterations

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        self.methods = list(dict.fromkeys(Method(m) for m in self.methods))  # dedupe, keep order


@dataclass
class TrialRecord:
    trial: int
    method: Method
    iterations: int
    cpu_seconds: float  # perf_counter wall time of the solve, without the problem's views; not CPU time
    stop_reason: StopReason
    final_res: float

    @property
    def failed(self):
        return self.stop_reason is StopReason.ITERATION_CAP


@dataclass
class ExperimentResult:
    label: str
    methods: list[Method]
    mean_it: dict = field(default_factory=dict)
    mean_cpu: dict = field(default_factory=dict)
    it_speedup: float | None = None
    cpu_speedup: float | None = None
    trials: list[TrialRecord] = field(default_factory=list)
    failed_trials: int = 0


def build_trial_problem(entry, base_seed, trial):
    """Materialize the problem a given trial solves."""
    if entry.kind == "random":
        seed = base_seed + trial
        A = gen_gaussian(entry.rows, entry.cols, seed)
    elif entry.kind == "file":
        A = load_matrix_market(entry.path)
        seed = base_seed
    else:
        raise ValueError(f"unknown problem kind {entry.kind!r}")
    return synthesize_problem(A, seed, entry.consistent)


def run_experiment(spec, curve_path=None):
    """Run every method of the spec over ``repeats`` trials and average.

    Each trial of a random row, and once per run a file row, builds one
    problem, shared by all the solves on it, and its views (the column
    norms, A^T b, and G = A^T A when it fits, solvers.gram_fits) before
    the first solve; the randomized methods are seeded with base seed +
    trial index.  Trials that hit the iteration cap are left out of the
    averages with a warning.  Times cover each solve, not the problem or
    its views, so no solve pays the first touch of the matrix.

    With a ``curve_path``, trial 0 of the first method is solved once
    more with a trace, on the same problem and views, and its
    convergence curve is written there (emit_convergence_curve).  That
    solve is untimed and left out of the trials: with a known solution a
    trace adds an O(mn) product per step.
    """
    entry = spec.problem
    result = ExperimentResult(label=entry.label, methods=list(spec.methods))

    for t in range(spec.repeats):
        if t == 0 or entry.kind != "file":
            problem = None  # frees the last trial's problem and views first
            problem = build_trial_problem(entry, spec.base_seed, t)
            problem.column_norms_sq, problem.atb  # built here, outside the solves' times
            if gram_fits(problem.matrix):
                problem.gram
        for method in spec.methods:
            config = SolverConfig(
                method=method,
                max_iterations=spec.max_iterations,
                res_tolerance=spec.res_tolerance,
                seed=spec.base_seed + t,
            )
            report = solve(problem, config)
            result.trials.append(TrialRecord(
                trial=t,
                method=method,
                iterations=report.iterations,
                cpu_seconds=report.elapsed_seconds,
                stop_reason=report.stop_reason,
                final_res=report.final_res,
            ))
        if t == 0 and curve_path is not None:
            config = replace(config, method=spec.methods[0], record_trace=True)
            emit_convergence_curve(solve(problem, config).trace, curve_path)

    for method in spec.methods:
        ok = [rec for rec in result.trials if rec.method is method and not rec.failed]
        failed = sum(1 for rec in result.trials if rec.method is method and rec.failed)
        result.failed_trials += failed
        if failed:
            warnings.warn(
                f"{entry.label}/{method.value}: {failed} of {spec.repeats} trials hit the "
                "iteration cap and were excluded from the averages",
                stacklevel=2,
            )
        if ok:
            result.mean_it[method] = sum(rec.iterations for rec in ok) / len(ok)
            result.mean_cpu[method] = sum(rec.cpu_seconds for rec in ok) / len(ok)

    if Method.GGS in result.mean_it and Method.GRCD in result.mean_it:
        if result.mean_it[Method.GGS] > 0:
            result.it_speedup = result.mean_it[Method.GRCD] / result.mean_it[Method.GGS]
        if result.mean_cpu[Method.GGS] > 0:
            result.cpu_speedup = result.mean_cpu[Method.GRCD] / result.mean_cpu[Method.GGS]
    return result


def _fmt(value):
    return "" if value is None else f"{value:.4f}"


def _table_rows(results):
    methods = []
    for result in results:
        for method in result.methods:
            if method not in methods:
                methods.append(method)
    header = ["problem"]
    header += [f"it_{m.value}" for m in methods]
    header += ["it_speedup"]
    header += [f"cpu_{m.value}" for m in methods]
    header += ["cpu_speedup"]
    rows = []
    for result in results:
        row = [result.label]
        row += [_fmt(result.mean_it.get(m)) for m in methods]
        row += [_fmt(result.it_speedup)]
        row += [_fmt(result.mean_cpu.get(m)) for m in methods]
        row += [_fmt(result.cpu_speedup)]
        rows.append(row)
    return header, rows


def emit_table(results, fmt="csv"):
    """Render experiment results as CSV or a markdown table.

    Both formats share one value formatter (4 decimal places), so the
    numeric strings are identical.
    """
    header, rows = _table_rows(results)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def emit_convergence_curve(trace, path):
    """Write per-iteration gradient norms (and relative solution error,
    when the true solution was known) as CSV for offline plotting."""
    has_res = any(rec.res is not None for rec in trace)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,gradient_norm_sq,res\n" if has_res
                 else "iteration,gradient_norm_sq\n")
        for rec in trace:
            cells = [str(rec.iteration), f"{rec.residual_gradient_norm_sq:.17g}"]
            if has_res:
                cells.append(f"{rec.res:.17g}")
            fh.write(",".join(cells) + "\n")

"""The three benchmark workloads and the checks on their outputs.

A workload builds its inputs from the run seed (``build``, timed as set-up)
and then lists the operations of one pass (``ops``).  Every operation is a
callable the runner times, paired with a check that raises ``CheckFailed``
when the output is wrong and otherwise returns the exact counts (iterations
and the like) that must repeat whenever the same inputs are solved again.

* ``dense-large``: one 20000x250 dense Gaussian consistent problem (40 MB,
  column-major).  The gradient ``A.T @ r`` takes nearly all of a greedy
  step; ``rgs`` with a known solution never computes it, so it is the
  control that bypasses that mechanism.
* ``desk-table``: the paper's small rows (1000x50, 1000x100 consistent;
  1000x50, 2000x50 inconsistent), each built from three matrix seeds
  drawn from the run seed and solved again in every pass, plus one CLI
  solve of each.  A step costs tens of microseconds, so Python-level
  selection, validation and the stop check dominate.
* ``sparse-file``: a seeded 20000x500 CSC matrix with 90k nonzeros,
  written and read back as MatrixMarket, plus CLI calls on a narrow
  3000x100 sparse file whose Gram eigenvalues the CLI computes.

desk-table and sparse-file times are normalized by a reference loop
(reference.py), and their runs are split over four and three processes
run one after another: the machine the benchmark was tuned on slowed
such code by up to 1.6 times for minutes at a time, and each process
ran 5-10% faster or slower than the next.

Problem sizes keep every operation near a second or less, so one run
times each kind of operation several times.  Every pass repeats the same
operations on the same inputs, so each operation (one label) is timed
once per pass and its exact counts must repeat from pass to pass.
"""
import contextlib
import io
import os
import re

import numpy as np
from scipy import sparse

import greedylsq
from greedylsq import bench, cli
from greedylsq.bench import ExperimentSpec
from greedylsq.problems import RHS_SEED_OFFSET, ManifestEntry

TOL = 1e-6
METHODS = ("ggs", "ggs-random", "grcd", "rgs")
TABLE_METHODS = ("ggs", "grcd")
OK_STOPS = ("res_reached", "gradient_reached")
# From one solver seed to the next, rgs takes 10-20% more or fewer steps
# and the greedy methods 1-2%, so rgs is solved with this many seeds.
RGS_SEEDS = 10

# Relative slack when a fit's gradient stopping rule is re-checked from a
# freshly computed residual: the solver's residual is updated
# incrementally and may differ in the last digits.
FRESH_RESIDUAL_SLACK = 1e-3


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_solve(report, problem):
    _require(report.stop_reason.value in OK_STOPS, f"stopped by {report.stop_reason.value}")
    x_true = problem.known_solution
    d = report.solution - x_true
    rel_sq = float(d @ d) / float(x_true @ x_true)
    _require(rel_sq <= TOL, f"squared relative error {rel_sq:.3e} above {TOL:.0e}")
    return {"iterations": report.iterations}


def condition_sq(A):
    """lambda_max / lambda_min of A^T A, computed with numpy only."""
    G = A.T @ A
    G = G.toarray() if sparse.issparse(G) else G
    eigs = np.linalg.eigvalsh(G)
    return float(eigs[-1] / eigs[0])


def check_fit(model, problem, cond_sq):
    """A fit stops on ||A^T r||^2 <= tol ||A^T b||^2; from that rule,
    ||x - x_ls|| / ||x_ls|| <= sqrt(tol) * cond(A)^2."""
    _require(model.stop_reason_.value in OK_STOPS, f"stopped by {model.stop_reason_.value}")
    A, b, x_ls = problem.matrix, problem.rhs, problem.known_solution
    grad = A.T @ (b - A @ model.coef_)
    grad0 = A.T @ b
    ratio = float(grad @ grad) / float(grad0 @ grad0)
    _require(ratio <= TOL * (1.0 + FRESH_RESIDUAL_SLACK),
             f"fresh gradient ratio {ratio:.3e} above {TOL:.0e}")
    rel = float(np.linalg.norm(model.coef_ - x_ls) / np.linalg.norm(x_ls))
    bound = np.sqrt(TOL) * cond_sq
    _require(rel <= bound, f"relative error {rel:.3e} above {bound:.3e}")
    return {"iterations": model.n_iter_}


def check_table(results, methods):
    counts = {}
    for result in results:
        _require(result.failed_trials == 0, f"{result.label}: {result.failed_trials} failed trials")
        _require(len(result.trials) == len(methods), f"{result.label}: missing trials")
        for rec in result.trials:
            _require(rec.stop_reason.value in OK_STOPS,
                     f"{result.label}/{rec.method.value} stopped by {rec.stop_reason.value}")
            _require(rec.final_res <= TOL, f"{result.label}/{rec.method.value} res {rec.final_res:.3e}")
            counts[f"{result.label}/{rec.method.value}/iterations"] = rec.iterations
    return counts


def _field(text, key):
    match = re.search(rf"^{re.escape(key)}: (\S+)$", text, re.MULTILINE)
    if match is None:
        raise CheckFailed(f"CLI output has no {key!r} line")
    return match.group(1)


def check_cli_solve(out):
    code, text = out
    _require(code == 0, f"solve exited {code}")
    _require(_field(text, "stop_reason") in OK_STOPS, "solve did not converge")
    _require(float(_field(text, "final_res")) <= TOL, "solve final_res above tolerance")
    return {"iterations": int(_field(text, "iterations"))}


def check_cli_verify(out):
    code, text = out
    _require(code == 0, f"verify-bounds exited {code}")
    _require(_field(text, "per_step_violations") == "0", "per-step bound violated")
    _require(_field(text, "cumulative_violations") == "0", "cumulative bound violated")
    return {"iterations": int(_field(text, "iterations"))}


def check_cli_info(out):
    code, text = out
    _require(code == 0, f"info exited {code}")
    cond = float(_field(text, "cond"))
    _require(np.isfinite(cond) and cond >= 1.0, f"bad condition number {cond}")
    return {"nnz": int(_field(text, "nnz"))}


def cli_solve_argv(rows, cols, seed, consistent):
    return ["solve", "--random", str(rows), str(cols), str(seed),
            "--consistent" if consistent else "--inconsistent", "--method", "ggs", "--tol", str(TOL)]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Operations shared by the workloads
# ---------------------------------------------------------------------------

class Op:
    """One timed operation: ``kind`` names the metric it feeds.  Solves
    marked ``pooled`` also feed the per-solve latency and throughput."""

    def __init__(self, kind, label, run, check, pooled=False):
        self.kind, self.label, self.run, self.check = kind, label, run, check
        self.pooled = pooled


def solve_ops(problems, seed):
    """One solve per problem and method, and for rgs RGS_SEEDS solves with
    consecutive solver seeds, of which only the first is pooled."""
    ops = []
    for label, problem in problems:
        for method in METHODS:
            for k in range(RGS_SEEDS if method == "rgs" else 1):
                config = greedylsq.SolverConfig(method=method, res_tolerance=TOL, seed=seed + k)
                ops.append(Op(f"solve.{method}", f"solve/{method}/{label}/seed+{k}",
                              lambda p=problem, c=config: greedylsq.solve(p, c),
                              lambda rep, p=problem: check_solve(rep, p), pooled=k == 0))
    return ops


FIT_CLASSES = (greedylsq.GreedyGaussSeidel, greedylsq.GreedyRandomizedCoordinateDescent)


def fit_ops(problems, fit_inputs, cond_sq, seed):
    ops = []
    for label, problem in problems:
        X = fit_inputs[label]
        for cls in FIT_CLASSES:
            kwargs = {"tol": TOL} if cls is greedylsq.GreedyGaussSeidel else {"tol": TOL, "seed": seed}
            ops.append(Op("fit", f"fit/{cls.__name__}/{label}",
                          lambda c=cls, X=X, p=problem, kw=kwargs: c(**kw).fit(X, p.rhs),
                          lambda model, p=problem, lab=label: check_fit(model, p, cond_sq[lab])))
    return ops


def table_op(entry, seed):
    """One ``run_experiment`` row: GGS against GRCD, one trial."""
    spec = ExperimentSpec(problem=entry, methods=list(TABLE_METHODS), repeats=1, base_seed=seed,
                          res_tolerance=TOL)
    return Op("table", f"table/{entry.label}", lambda: [bench.run_experiment(spec)],
              lambda results: check_table(results, TABLE_METHODS))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """``build`` makes the inputs every pass uses; ``not_traced`` lists the
    traced names the workload never calls; ``normalized`` workloads report
    times divided by the speed of a reference loop (reference.py), and
    ``workers`` is the number of processes a run is split over."""

    not_traced = frozenset()
    normalized = False
    workers = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    @property
    def label(self):
        return f"{self.rows}x{self.cols}c"

    def check_build(self, state):
        pass


class DenseLarge(Workload):
    name = "dense-large"
    rows, cols = 20000, 250
    not_traced = {
        "linalg.energy_error_sq", "validation.as_csc_matrix", "problems.make_inconsistent",
        "problems.assert_full_column_rank", "problems.load_matrix_market",
        "problems.save_matrix_market", "analysis.gram_matrix", "analysis.jacobi_eigenvalues",
        "analysis.lambda_min_pos", "analysis.verify_trace", "analysis.grcd_expected_factor",
        "analysis.ggs_first_step_factor", "analysis.ggs_per_step_factor",
        "analysis.ggs_cumulative_bound", "cli.cmd_verify_bounds", "cli.cmd_info",
    }

    def matrix_bytes(self):
        return self.rows * self.cols * 8

    def build(self):
        A = greedylsq.gen_gaussian(self.rows, self.cols, self.seed)
        return {"problems": [(self.label, greedylsq.make_consistent(A, self.seed + RHS_SEED_OFFSET))]}

    def ops(self, state):
        problems = state["problems"]
        if "fit_inputs" not in state:
            state["fit_inputs"] = {lab: np.ascontiguousarray(p.matrix) for lab, p in problems}
            state["cond_sq"] = {lab: condition_sq(p.matrix) for lab, p in problems}
        entry = ManifestEntry(label=self.label, kind="random", rows=self.rows, cols=self.cols,
                              consistent=True)
        argv = cli_solve_argv(self.rows, self.cols, self.seed, True)
        return (solve_ops(problems, self.seed)
                + fit_ops(problems, state["fit_inputs"], state["cond_sq"], self.seed)
                + [table_op(entry, self.seed),
                   Op("cli.solve", "cli/solve", lambda: run_cli(argv), check_cli_solve)])


class DeskTable(Workload):
    name = "desk-table"
    # label, rows, cols, consistent: the paper's desk-scale rows.
    ROWS = (("1000x50c", 1000, 50, True), ("1000x100c", 1000, 100, True),
            ("1000x50i", 1000, 50, False), ("2000x50i", 2000, 50, False))
    # From one matrix seed to the next, a greedy solve takes 8-12% more
    # or fewer steps; over this many seeds per row (and RGS_SEEDS solver
    # seeds for rgs) the summed steps of a run spread by 2-4% between runs.
    SEEDS_PER_ROW = 3
    normalized = True
    workers = 4
    not_traced = {
        "validation.as_csc_matrix", "problems.assert_full_column_rank",
        "problems.load_matrix_market", "problems.save_matrix_market", "linalg.energy_error_sq",
        "analysis.jacobi_eigenvalues", "analysis.lambda_min_pos", "analysis.verify_trace",
        "analysis.grcd_expected_factor", "analysis.ggs_first_step_factor",
        "analysis.ggs_per_step_factor", "analysis.ggs_cumulative_bound",
        "cli.cmd_verify_bounds", "cli.cmd_info",
    }

    def matrix_bytes(self):
        return self.SEEDS_PER_ROW * sum(m * n * 8 for _, m, n, _ in self.ROWS)

    def _matrix_seed(self, k, row):
        return (self.seed * 1_000_003 + k * 10 + row) % (2 ** 63)

    def _rows(self):
        """(label, matrix seed, rows, cols, consistent) of every problem."""
        return [(f"{label}#{k}", self._matrix_seed(k, row), m, n, consistent)
                for k in range(self.SEEDS_PER_ROW)
                for row, (label, m, n, consistent) in enumerate(self.ROWS)]

    def build(self):
        problems = []
        for label, seed, m, n, consistent in self._rows():
            A = greedylsq.gen_gaussian(m, n, seed)
            make = greedylsq.make_consistent if consistent else greedylsq.make_inconsistent
            problems.append((label, make(A, seed + RHS_SEED_OFFSET)))
        return {"problems": problems}

    def ops(self, state):
        """Each problem's operations together, so that every kind of
        operation is spread over the whole pass: a stretch in which the
        machine runs slow then touches a few operations of each kind, not
        every operation of one kind."""
        problems = state["problems"]
        if "fit_inputs" not in state:
            state["fit_inputs"] = {lab: np.ascontiguousarray(p.matrix) for lab, p in problems}
            state["cond_sq"] = {lab: condition_sq(p.matrix) for lab, p in problems}
        ops = []
        for (label, seed, m, n, consistent), pair in zip(self._rows(), problems):
            entry = ManifestEntry(label=label, kind="random", rows=m, cols=n, consistent=consistent)
            ops += (solve_ops([pair], self.seed)
                    + fit_ops([pair], state["fit_inputs"], state["cond_sq"], self.seed)
                    + [table_op(entry, seed),
                       Op("cli.solve", f"cli/solve/{label}",
                          lambda argv=cli_solve_argv(m, n, seed, consistent): run_cli(argv),
                          check_cli_solve)])
        return ops


class SparseFile(Workload):
    name = "sparse-file"
    rows, cols, nnz = 20000, 500, 90_000
    narrow_rows, narrow_cols, narrow_density = 3000, 100, 0.05
    normalized = True
    workers = 3
    not_traced = {
        "problems.gen_gaussian", "problems.make_inconsistent", "validation.as_dense_matrix",
        "cli.cmd_solve",
    }

    def __init__(self, seed, workdir):
        """Untimed: generate both matrices and write the narrow CLI input."""
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.wide = self._random_csc(rng, self.rows, self.cols, self.nnz / (self.rows * self.cols))
        self.path = os.path.join(workdir, "wide.mtx")
        self.narrow_path = os.path.join(workdir, "narrow.mtx")
        narrow = self._random_csc(rng, self.narrow_rows, self.narrow_cols, self.narrow_density)
        greedylsq.save_matrix_market(narrow, self.narrow_path)

    @staticmethod
    def _random_csc(rng, m, n, density):
        M = sparse.random_array((m, n), density=density, format="csc", rng=rng,
                                data_sampler=rng.standard_normal)
        M.sort_indices()
        return M

    def matrix_bytes(self):
        return self.wide.data.nbytes + self.wide.indices.nbytes + self.wide.indptr.nbytes

    def build(self):
        greedylsq.save_matrix_market(self.wide, self.path)
        A = greedylsq.load_matrix_market(self.path)
        return {"problems": [(self.label, greedylsq.make_consistent(A, self.seed + RHS_SEED_OFFSET))]}

    def check_build(self, state):
        A, W = state["problems"][0][1].matrix, self.wide
        _require(A.shape == W.shape and np.array_equal(A.indptr, W.indptr)
                 and np.array_equal(A.indices, W.indices) and np.array_equal(A.data, W.data),
                 "MatrixMarket round trip changed the matrix")

    def ops(self, state):
        problems = state["problems"]
        if "fit_inputs" not in state:
            # CSR is the sparse counterpart of C order: the estimators coerce it.
            state["fit_inputs"] = {lab: p.matrix.tocsr() for lab, p in problems}
            state["cond_sq"] = {lab: condition_sq(p.matrix) for lab, p in problems}
        entry = ManifestEntry(label=self.label, kind="file", path=self.path, consistent=True)
        return (solve_ops(problems, self.seed)
                + fit_ops(problems, state["fit_inputs"], state["cond_sq"], self.seed)
                + [table_op(entry, self.seed),
                   Op("cli.verify-bounds", "cli/verify-bounds",
                      lambda: run_cli(["verify-bounds", self.narrow_path, "--tol", str(TOL)]),
                      check_cli_verify),
                   Op("cli.info", "cli/info", lambda: run_cli(["info", self.narrow_path]),
                      check_cli_info)])


WORKLOADS = {w.name: w for w in (DenseLarge, DeskTable, SparseFile)}

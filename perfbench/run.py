"""Benchmark of the greedylsq solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-large --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py).
The run repeats whole passes over the workload's operations until
``--seconds`` have gone by, checks every output, and prints a table of
metrics followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  Every pass repeats the same operations on the same inputs, so
each operation is timed once per pass and reduced to one time over its
passes (see ``end_to_end_metrics``); the time of a kind of operation is
the mean over its operations, and ``table_s`` their sum.  Set-up is the
median of ``SETUP_REPEATS`` builds.  The per-solve median and throughput
are taken over one solve per problem and method.  A workload may split
its run over several worker processes run one after another
(``run_workers``): each reports its own metrics and the run gives their
mean, which evens out how fast one process happens to be; the peak
resident memory is the largest of them.  ``--trace 1``
runs one pass untraced, then repeats it with every traced function
wrapped (tracer.py), and reports the per-layer metrics: counts from the
first traced pass, times as medians over traced passes, and
``tracing.overhead_frac``, the traced pass time over the untraced one,
minus one.

Exact counts (iterations per solve, calls per layer) are recorded under a
key naming the operation.  A key seen twice must repeat its value: from
pass to pass, across the untraced and traced passes, and across runs of
the same code with the same workload and seed, which share a counts file
under ``.perfbench_out/``.  A mismatch makes ``correct`` false.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the run exits with status 2 before printing a result.
"""
import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS threads are fixed here, before numpy loads, because the setting
# halves GGS time on dense-large.  One thread: with two on a two-core
# machine, GGS solve times on a 20000x500 problem spread by 10-15%
# between runs, with one by 2-5%.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated this often per run, so setup_s is a median.
SETUP_REPEATS = 3
# A worker process that runs this long is killed (run_workers).
WORKER_TIMEOUT_S = 120
# p95 is reported only with at least ten samples above it.
P95_MIN_SAMPLES = 200

TRACED = (
    "solvers.solve", "solvers.step", "solvers.ggs_select", "solvers.ggs_randomized_select",
    "solvers.grcd_select", "solvers.rgs_select",
    "linalg.column_norms_sq", "linalg.matvec", "linalg.transpose_matvec", "linalg.column_dot",
    "linalg.axpy_column", "linalg.energy_error_sq",
    "validation.is_sparse", "validation.as_vector", "validation.check_column_index",
    "validation.as_matrix", "validation.as_dense_matrix", "validation.as_csc_matrix",
    "problems.gen_gaussian", "problems.make_consistent", "problems.make_inconsistent",
    "problems.matrix_density", "problems.assert_full_column_rank",
    "problems.load_matrix_market", "problems.save_matrix_market",
    "analysis.gram_matrix", "analysis.jacobi_eigenvalues", "analysis.lambda_min_pos",
    "analysis.verify_trace", "analysis.grcd_expected_factor", "analysis.ggs_first_step_factor",
    "analysis.ggs_per_step_factor", "analysis.ggs_cumulative_bound",
    "cli.main", "cli.cmd_solve", "cli.cmd_verify_bounds", "cli.cmd_info",
    "bench.run_experiment", "bench.build_trial_problem",
    "estimators.BaseCoordinateDescent.fit",
)
METHODS = ("ggs", "ggs-random", "grcd", "rgs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the parent run in each of its worker processes (run_workers).
    p.add_argument("--worker-out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import greedylsq from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "greedylsq", "__init__.py")):
        print(f"perfbench: no greedylsq package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import greedylsq
    if os.path.dirname(os.path.dirname(os.path.abspath(greedylsq.__file__))) != SRC:
        print(f"perfbench: imported greedylsq from {greedylsq.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return greedylsq


def code_hash():
    """Hash of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "greedylsq"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(np, scipy, workload):
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    llc = ""
    with contextlib.suppress(OSError), open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                                            encoding="ascii") as fh:
        llc = fh.read().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_size": llc,
        "matrix_bytes_computed": workload.matrix_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
    }


class Runner:
    """Times operations, checks their outputs and keeps exact counts."""

    def __init__(self, tracer=None):
        self.samples = {}  # kind -> label -> seconds of each pass
        self.mids = {}  # the same layout: midpoint of each timed call
        self.pooled = set()  # labels of the solves pooled for latency
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.mismatches = []
        self.tracer = tracer
        self.reference = None  # a SpeedReference timed between operations
        self.processes = []  # state() of each process that measured

    @contextlib.contextmanager
    def untraced(self):
        was = self.tracer is not None and self.tracer.enabled
        if was:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if was:
                self.tracer.enabled = True

    def state(self, passes):
        """What a worker process hands back to its parent (run_workers)."""
        ref = self.reference
        return {"passes": passes, "samples": self.samples, "mids": self.mids,
                "pooled": sorted(self.pooled),
                "attempted": self.attempted, "failed": self.failed, "counts": self.counts,
                "mismatches": self.mismatches,
                "reference_s": ref.samples if ref else None, "reference_at": ref.at if ref else None,
                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def merge(self, state):
        for kind, by_label in state["samples"].items():
            for label, values in by_label.items():
                self.samples.setdefault(kind, {}).setdefault(label, []).extend(values)
        self.pooled.update(state["pooled"])
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.mismatches += state["mismatches"]
        for key, value in state["counts"].items():
            self.record_count(key, value)
        self.processes.append(state)

    def record_count(self, key, value):
        old = self.counts.setdefault(key, value)
        if old != value:
            self.mismatches.append(f"{key}: {old} then {value}")

    def attempt(self, kind, label, run, check, pooled=False):
        """Time ``run()``, check its output untimed and untraced.

        A failed operation is counted, reported on stderr and never
        timed: the benchmark keeps running so every later operation is
        still attempted.  Returns (seconds, output) or None.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = run()
            seconds = time.perf_counter() - t0
            with self.untraced():
                counts = check(out) or {}
        except Exception:  # noqa: BLE001 - every failure is counted in failed_frac
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.samples.setdefault(kind, {}).setdefault(label, []).append(seconds)
        self.mids.setdefault(kind, {}).setdefault(label, []).append(t0 + seconds / 2)
        if pooled:
            self.pooled.add(label)
        for key, value in counts.items():
            self.record_count(f"{label}/{key}", value)
        return seconds, out

    def setup(self, workload):
        if self.reference is not None:
            self.reference.maybe_run()
        done = self.attempt("setup", "setup", workload.build, workload.check_build)
        return (None, None) if done is None else (done[1], done[0])

    def run_pass(self, workload, state, deadline=None):
        """Every operation of one pass; returns their summed seconds, or
        None if the deadline cut the pass short."""
        total = 0.0
        for op in workload.ops(state):
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            if self.reference is not None:
                self.reference.maybe_run()
            done = self.attempt(op.kind, op.label, op.run, op.check, op.pooled)
            if done is not None:
                total += done[0]
        return total


def warm_up(greedylsq, np):
    """Load lazily imported code and touch the BLAS library before timing."""
    from scipy import sparse
    rng = np.random.default_rng(0)
    dense = greedylsq.make_consistent(greedylsq.gen_gaussian(400, 20, 0), 1)
    sp = greedylsq.make_consistent(sparse.random_array((400, 20), density=0.3, format="csc", rng=rng), 1)
    for problem in (dense, sp):
        for method in METHODS:
            greedylsq.solve(problem, greedylsq.SolverConfig(method=method, max_iterations=50))


def run_untraced(runner, workload, seconds):
    """Whole passes until the time is up; the first pass always completes,
    a later one stops at the first operation due after the deadline."""
    deadline = time.perf_counter() + seconds
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        state, _ = runner.setup(workload)
    passes = 0
    while state is not None:
        done = runner.run_pass(workload, state, deadline if passes else None)
        passes += 1
        if done is None or time.perf_counter() >= deadline:
            break
    return passes


def run_workers(args, workers, runner):
    """Untraced passes in ``workers`` processes, one after another, each
    for an equal share of the time; their samples and counts are merged
    into ``runner``.  Returns the number of passes."""
    passes = 0
    for i in range(workers):
        # Outside OUT/work, which each worker empties when it ends.
        out = os.path.join(OUT, f"worker-{args.workload}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / workers),
               "--trace", "0", "--worker-out", out]
        # subprocess.run kills the worker and waits for it on a timeout.
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"worker {i} exited with status {done.returncode}")
        with open(out, encoding="utf-8") as fh:
            state = json.load(fh)
        os.remove(out)
        runner.merge(state)
        passes += state["passes"]
    return passes


def run_traced(runner, workload, tracer, seconds):
    """One pass untraced, then traced passes until the time is up.

    Returns (per-pass layer metrics, untraced pass seconds)."""
    deadline = time.perf_counter() + seconds
    state, setup_s = runner.setup(workload)
    if state is None:
        return [], None
    untraced_s = setup_s + runner.run_pass(workload, state)
    state = None
    per_pass = []
    tracer.install()
    try:
        while True:
            tracer.reset()
            tracer.enabled = True
            state, setup_s = runner.setup(workload)
            if state is None:
                break
            pass_s = setup_s + runner.run_pass(workload, state)
            tracer.enabled = False
            state = None
            per_pass.append((layer_metrics(tracer), pass_s))
            # Counts must not depend on timing, so traced passes are whole
            # and run only while another one fits before the deadline.
            if time.perf_counter() + pass_s > deadline:
                break
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return per_pass, untraced_s


# ---------------------------------------------------------------------------
# Counters taken from arguments and results of traced calls
# ---------------------------------------------------------------------------

def _solve_hook(c, args, report, seconds):
    method = args[1].method.value
    c[f"iterations.{method}"] += report.iterations
    c[f"seconds.{method}"] += seconds
    c["iterations"] += report.iterations
    c["max_drift_rel"] = max(c["max_drift_rel"], report.max_drift_rel)
    if report.trace is not None:
        c["trace_records"] += len(report.trace)


def _candidates_hook(c, args, result, seconds):
    c["candidates"] += len(result[1])
    c["selections"] += 1


def _transpose_matvec_hook(c, args, result, seconds):
    A = args[0]
    matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes if hasattr(A, "indptr") else A.nbytes
    c["transpose_matvec.bytes"] += matrix + 8 * (A.shape[0] + A.shape[1])


def _load_hook(c, args, result, seconds):
    c["load_matrix_market.bytes"] += os.path.getsize(args[0])


def _verify_hook(c, args, report, seconds):
    c["steps_checked"] += len(report.per_step_factors) + (report.first_step_factor is not None)
    c["violations"] += len(report.violations)


HOOKS = {
    "solvers.solve": _solve_hook,
    "solvers.ggs_select": _candidates_hook,
    "solvers.ggs_randomized_select": _candidates_hook,
    "solvers.grcd_select": _candidates_hook,
    "linalg.transpose_matvec": _transpose_matvec_hook,
    "problems.load_matrix_market": _load_hook,
    "analysis.verify_trace": _verify_hook,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: (counts, times)."""
    s, c = tracer.summary(), tracer.counters
    tm = s["linalg.transpose_matvec"]
    counts = {
        "linalg.transpose_matvec.calls": tm["calls"],
        "linalg.transpose_matvec.bytes_computed": c["transpose_matvec.bytes"],
        "solvers.step.calls": s["solvers.step"]["calls"],
        "linalg.matvec.calls": s["linalg.matvec"]["calls"],
        "solvers.drift_refreshes": tracer.calls_under("linalg.matvec", "solvers.solve", direct=True),
        "analysis.jacobi_eigenvalues.calls": s["analysis.jacobi_eigenvalues"]["calls"],
        "linalg.energy_error_sq.calls": s["linalg.energy_error_sq"]["calls"],
        "solvers.trace_records": c["trace_records"],
        "analysis.steps_checked": c["steps_checked"],
        "analysis.violations": c["violations"],
        "bench.solve.calls": tracer.calls_under("solvers.solve", "bench.run_experiment", direct=True),
        "validation.as_vector.calls_in_solve": tracer.calls_under("validation.as_vector", "solvers.solve"),
        "validation.check_column_index.calls_in_solve":
            tracer.calls_under("validation.check_column_index", "solvers.solve"),
        "solvers.iterations": c["iterations"],
        "solvers.select.candidates": c["candidates"],
        "solvers.select.calls": c["selections"],
    }
    for method in METHODS:
        counts[f"solvers.iterations.{method}"] = c[f"iterations.{method}"]
    times = {
        "linalg.transpose_matvec.s": tm["s"],
        "linalg.transpose_matvec.gb_per_s_computed": _ratio(c["transpose_matvec.bytes"], tm["s"]) / 1e9,
        "solvers.solve.self_s": s["solvers.solve"]["self_s"],
        "solvers.step.s": s["solvers.step"]["s"],
        "linalg.matvec.s": s["linalg.matvec"]["s"],
        "linalg.column_norms_sq.s": s["linalg.column_norms_sq"]["s"],
        "problems.load_matrix_market.mb_per_s":
            _ratio(c["load_matrix_market.bytes"], s["problems.load_matrix_market"]["s"]) / 1e6,
        "linalg.energy_error_sq.s": s["linalg.energy_error_sq"]["s"],
        "analysis.verify_trace.s": s["analysis.verify_trace"]["s"],
        "cli.verify_bounds.self_s": s["cli.cmd_verify_bounds"]["self_s"],
        "bench.run_experiment.self_s": s["bench.run_experiment"]["self_s"],
        "estimators.fit.self_s": s["estimators.BaseCoordinateDescent.fit"]["self_s"],
        "solvers.max_drift_rel": c["max_drift_rel"],
    }
    for name in ("solvers.ggs_select", "solvers.ggs_randomized_select", "solvers.grcd_select",
                 "solvers.rgs_select", "problems.save_matrix_market", "problems.load_matrix_market",
                 "problems.gen_gaussian", "problems.make_consistent", "problems.make_inconsistent",
                 "analysis.lambda_min_pos", "problems.assert_full_column_rank"):
        times[f"{name}.s"] = s[name]["s"]
    for method in METHODS:
        times[f"solvers.us_per_iter.{method}"] = 1e6 * _ratio(c[f"seconds.{method}"],
                                                              c[f"iterations.{method}"])
    fired = {name for name, row in s.items() if row["calls"]}
    return counts, times, fired


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def _kind(samples, kind, stat):
    """Mean over the operations of one kind of ``stat`` of each one's
    passes."""
    by_label = samples.get(kind)
    if not by_label:
        return None
    return statistics.fmean(stat(v) for v in by_label.values())


def _timed(samples, kind):
    return sum(len(v) for v in samples.get(kind, {}).values())


def process_metrics(smp, pooled, stat):
    """End-to-end times of one process's samples; ``stat`` reduces the
    passes of one operation to one time."""
    solves = {label: v for kind, by_label in smp.items() if kind.startswith("solve.")
              for label, v in by_label.items() if label in pooled}
    fastest = [stat(v) for v in solves.values()]
    cli_kinds = sorted(k for k in smp if k.startswith("cli."))
    metrics = {
        "setup_s": _median(smp.get("setup", {}).get("setup", [])),
        "solve_p50_s": _median(fastest),
        "solves_per_s": len(fastest) / sum(fastest) if fastest else None,
        "fit_s": _kind(smp, "fit", stat),
        "table_s": _kind(smp, "table", stat) * len(smp["table"]) if "table" in smp else None,
        "cli_s": sum(_kind(smp, k, stat) for k in cli_kinds) if cli_kinds else None,
        # Printed, not in BENCHMARK.json, where every end-to-end metric is
        # reported by every workload: these exist on sparse-file only.
        "verify_s": _kind(smp, "cli.verify-bounds", stat),
        "info_s": _kind(smp, "cli.info", stat),
    }
    for m in METHODS:
        metrics[f"solve_s.{m}"] = _kind(smp, f"solve.{m}", stat)
    return metrics


def end_to_end_metrics(runner, normalized):
    """Each process's metrics, then their mean over processes; returns the
    metrics and their sample counts.

    Measured times: an operation's time is its fastest pass.  On the
    2-core Xeon virtual machine the benchmark was tuned on, stretches of
    5-20 s ran up to 1.5 times slower than others, so a median over a run
    moved with the share of slow stretches it caught.  ``normalized`` times
    (reference.py) are already divided by the machine's speed around each
    operation, so there an operation's time is the median of its passes;
    the measured times are printed beside them, as medians too."""
    from reference import normalize

    per_process = []
    for state in runner.processes:
        pooled = set(state["pooled"])
        if normalized:
            norm = normalize(state["samples"], state["mids"], state["reference_s"],
                             state["reference_at"])
            m = process_metrics(norm, pooled, statistics.median)
            measured = process_metrics(state["samples"], pooled, statistics.median)
            m.update({f"measured.{k}": v for k, v in measured.items()})
            m["reference.median_s"] = statistics.median(state["reference_s"])
        else:
            m = process_metrics(state["samples"], pooled, min)
        per_process.append(m)
    metrics = {k: None if None in (v := [m[k] for m in per_process]) else statistics.fmean(v)
               for k in per_process[0]}
    smp = runner.samples
    solves = [t for kind, by_label in smp.items() if kind.startswith("solve.")
              for label, v in by_label.items() if label in runner.pooled for t in v]
    cli_kinds = [k for k in smp if k.startswith("cli.")]
    # p95 is over every pooled solve of every pass, slow stretches included,
    # as measured.
    metrics["solve_p95_s"] = (statistics.quantiles(solves, n=20)[-1]
                              if len(solves) >= P95_MIN_SAMPLES else None)
    metrics["peak_rss_mb"] = max(state["maxrss_mb"] for state in runner.processes)
    metrics["failed_frac"] = runner.failed / max(runner.attempted, 1)
    samples = {"setup_s": _timed(smp, "setup"), "solve_p95_s": len(solves),
               "solve_p50_s": len(runner.pooled), "solves_per_s": len(runner.pooled),
               "fit_s": _timed(smp, "fit"), "table_s": _timed(smp, "table"),
               "cli_s": sum(_timed(smp, k) for k in cli_kinds),
               "verify_s": _timed(smp, "cli.verify-bounds"), "info_s": _timed(smp, "cli.info"),
               "failed_frac": runner.attempted, "processes": len(runner.processes)}
    for m in METHODS:
        samples[f"solve_s.{m}"] = _timed(smp, f"solve.{m}")
    if normalized:
        samples["reference.median_s"] = sum(len(state["reference_s"]) for state in runner.processes)
    return metrics, samples


def _is_time(name):
    return name.endswith("_s") or name.startswith("solve_s.")


def per_layer_metrics(per_pass, untraced_s, runner, expected):
    """Counts from the first traced pass (later passes must repeat them),
    times as medians over traced passes."""
    fired = set()
    for pass_counts, _, pass_fired in (p[0] for p in per_pass):
        fired |= pass_fired
        for key, value in pass_counts.items():
            runner.record_count(f"traced/{key}", value)
    silent = sorted(expected - fired)
    if silent:
        raise RuntimeError(f"traced names never fired: {', '.join(silent)}")
    counts = per_pass[0][0][0]
    metrics = dict(counts)
    for key in per_pass[0][0][1]:
        metrics[key] = statistics.median(p[0][1][key] for p in per_pass)
    metrics["solvers.select.candidates_mean"] = _ratio(counts["solvers.select.candidates"],
                                                       counts["solvers.select.calls"])
    for name in ("validation.as_vector", "validation.check_column_index"):
        metrics[f"{name}.calls_per_iter"] = _ratio(counts[f"{name}.calls_in_solve"],
                                                   counts["solvers.iterations"])
    traced_s = statistics.median(p[1] for p in per_pass)
    metrics["tracing.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics


def compare_with_earlier_runs(runner, path, code):
    """Exact counts of earlier runs of the same code, workload and seed
    must match this run's; the union is written back."""
    earlier = {}
    with contextlib.suppress(FileNotFoundError), open(path, encoding="utf-8") as fh:
        saved = json.load(fh)
        if saved.get("code") == code:
            earlier = saved["counts"]
    for key, value in earlier.items():
        if key in runner.counts and runner.counts[key] != value:
            runner.mismatches.append(f"{key}: {value} in an earlier run, {runner.counts[key]} now")
    merged = {**earlier, **runner.counts}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "counts": merged}, fh, indent=0, sort_keys=True)
    return len(set(earlier) & set(runner.counts))


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which then kills the
    # running worker process and waits for it.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    greedylsq = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 64
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 64

    workdir = os.path.join(OUT, "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, greedylsq, workloads.WORKLOADS[args.workload], workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))


def run(args, greedylsq, workload_class, workdir):
    import numpy as np
    import scipy

    import tracer as tracing
    from reference import SpeedReference

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = workload_class(args.seed, workdir)
    warm_up(greedylsq, np)

    t_start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer(greedylsq, TRACED, HOOKS)
        runner = Runner(tracer)
        per_pass, untraced_s = run_traced(runner, workload, tracer, args.seconds)
        passes = len(per_pass)
        expected = set(TRACED) - workload.not_traced
        metrics = per_layer_metrics(per_pass, untraced_s, runner, expected) if per_pass else {}
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        wanted, samples = spec["per_layer"], {}
    else:
        runner = Runner()
        if args.worker_out or workload.workers == 1:
            if workload.normalized:
                runner.reference = SpeedReference()
            passes = run_untraced(runner, workload, args.seconds)
            if args.worker_out:
                with open(args.worker_out, "w", encoding="utf-8") as fh:
                    json.dump(runner.state(passes), fh)
                return 0
            runner.processes.append(runner.state(passes))
        else:
            passes = run_workers(args, workload.workers, runner)
        metrics, samples = end_to_end_metrics(runner, workload.normalized)
        wanted = spec["end_to_end"]
    wall = time.perf_counter() - t_start

    code = code_hash()
    repeated = compare_with_earlier_runs(
        runner, os.path.join(OUT, f"counts-{args.workload}-seed{args.seed}.json"), code)
    env = environment(np, scipy, workload)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} passes in {wall:.1f} s; {runner.attempted} operations, {runner.failed} failed; "
          f"{len(runner.counts)} exact counts, {repeated} compared with earlier runs, "
          f"{len(runner.mismatches)} mismatches")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for problem in runner.mismatches:
        print(f"count mismatch {problem}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in list(units) + [k for k in metrics if k not in units]:
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        base = name.removeprefix("measured.")
        unit = units.get(base) or ("fraction" if base.endswith("_frac")
                                   else "MB" if base == "peak_rss_mb"
                                   else "s" if _is_time(base) else "count")
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:48s} {shown:>14s} {unit}{count}")

    result = {
        "correct": runner.failed == 0 and not runner.mismatches and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "samples": samples, "env": env, "code": code,
                   "all_metrics": metrics, "processes": runner.processes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

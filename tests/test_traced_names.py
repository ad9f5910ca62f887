"""The functions the benchmark traces must exist and be called through
their module attributes.

``perfbench/run.py`` lists in ``TRACED`` the dotted names its tracer
wraps, and the tracer fails if one is missing or never called.  The list
is read with ``ast``, because importing ``run.py`` sets BLAS environment
variables for the whole process.
"""
import ast
import importlib
import importlib.util
import math
import os

import pytest
from scipy import sparse

import greedylsq
from greedylsq import bench, cli, estimators, problems, solvers
from greedylsq.problems import gen_gaussian, make_consistent

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
RUN_PY = os.path.join(PERFBENCH, "run.py")


def traced_names():
    with open(RUN_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {RUN_PY}")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"greedylsq.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{name}: {obj!r} has no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj), name


@pytest.mark.parametrize("method, select_name", [
    (solvers.Method.GGS, "ggs_select"),
    (solvers.Method.GGS_RANDOMIZED, "ggs_randomized_select"),
    (solvers.Method.GRCD, "grcd_select"),
    (solvers.Method.RGS, "rgs_select"),
])
def test_solve_calls_select_through_the_module_attribute(monkeypatch, method, select_name):
    original = getattr(solvers, select_name)
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solvers, select_name, counted)
    problem = make_consistent(gen_gaussian(40, 5, seed=3), seed=4)
    report = solvers.solve(problem, solvers.SolverConfig(method=method, seed=1))
    assert report.iterations > 0
    # rgs draws its columns RGS_BLOCK at a time, one call per block.
    expected = report.iterations
    if method is solvers.Method.RGS:
        expected = math.ceil(report.iterations / solvers.RGS_BLOCK)
    assert len(calls) == expected


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_every_traced_name_fires_in_one_small_pass(tmp_path):
    """One small pass over the package calls every traced name, so a call
    path the benchmark's tracer would miss fails here."""
    tracer = load_tracer_class()(greedylsq, traced_names())
    tracer.install()
    try:
        tracer.enabled = True
        A = problems.gen_gaussian(30, 4, seed=3)
        for matrix in (A, sparse.csc_array(A)):
            problem = problems.make_consistent(matrix, seed=4)
            for method in solvers.Method:
                solvers.solve(problem, solvers.SolverConfig(method=method, seed=1))
        problems.make_inconsistent(A, seed=5)
        estimators.GreedyGaussSeidel().fit(A, A.sum(axis=1))
        entry = problems.ManifestEntry(label="row", kind="random", rows=30, cols=4)
        bench.run_experiment(bench.ExperimentSpec(problem=entry, methods=["ggs"], repeats=1))
        path = str(tmp_path / "A.mtx")
        problems.save_matrix_market(sparse.csc_array(A), path)
        for argv in (["solve", path, "--consistent"], ["verify-bounds", path], ["info", path]):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert [name for name, row in tracer.summary().items() if not row["calls"]] == []

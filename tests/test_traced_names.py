"""The functions the benchmark traces must exist and be called through
their module attributes.

``perfbench/run.py`` lists in ``TRACED`` the dotted names its tracer
wraps, and the tracer fails if one is missing or never called.  The list
is read with ``ast``, because importing ``run.py`` sets BLAS environment
variables for the whole process.
"""
import ast
import importlib
import os

import pytest

from greedylsq import solvers
from greedylsq.problems import gen_gaussian, make_consistent

RUN_PY = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")


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
    assert len(calls) == report.iterations

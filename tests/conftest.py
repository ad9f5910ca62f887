import dataclasses
import hashlib
import importlib
import os
import pkgutil

import numpy as np
import pytest
from hypothesis import settings
from scipy import sparse

import greedylsq

# Property-test depth: 40 examples per test by default, 1,500 with
# ``pytest --hypothesis-profile=thorough``.
settings.register_profile("default", max_examples=40)
settings.register_profile("thorough", max_examples=1_500)
settings.load_profile("default")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def report_digest(report):
    """A SHA-256 prefix of every bit of a SolveReport but its time: the
    solution, iterations, stop reason, final_res, max_drift_rel and each
    trace record."""
    digest = hashlib.sha256(report.solution.tobytes())
    digest.update(repr((report.iterations, report.stop_reason.value, report.final_res.hex(),
                        report.max_drift_rel.hex())).encode())
    for record in report.trace or ():
        digest.update(repr(dataclasses.astuple(record)).encode())
    return digest.hexdigest()[:16]


def read_outcome(read, path):
    """The bytes of what ``read`` returns, or its exception's type, line number and message."""
    try:
        M = read(path)
    except Exception as exc:  # noqa: BLE001 - any outcome is compared
        return type(exc), getattr(exc, "line_number", None), str(exc)
    if sparse.issparse(M):
        return M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()
    return M.dtype, M.tobytes()


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` wraps the greedylsq function ``name`` at every
    module attribute that holds it, as perfbench/tracer.py wraps a traced
    name, and returns a list that grows by one entry per call: its
    positional arguments."""
    modules = [greedylsq] + [importlib.import_module(f"greedylsq.{info.name}")
                             for info in pkgutil.iter_modules(greedylsq.__path__)
                             if info.name != "__main__"]

    def count(name):
        # The module that defines the function holds the original.
        original = next(getattr(m, name) for m in modules
                        if getattr(getattr(m, name, None), "__module__", None) == m.__name__)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    return count


@pytest.fixture
def worked_dense():
    """The hand-checkable 3x2 system: GGS solves it in exactly 2 steps."""
    return np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], order="F")


@pytest.fixture
def worked_csc(worked_dense):
    return sparse.csc_array(worked_dense)


@pytest.fixture
def worked_rhs():
    return np.array([1.0, 2.0, 3.0])

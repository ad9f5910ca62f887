import dataclasses
import hashlib
import os

import numpy as np
import pytest
from hypothesis import settings
from scipy import sparse

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

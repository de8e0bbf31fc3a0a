"""The names the benchmark harness in perfbench/ wraps or unpacks keep resolving.

`Tracer.add_point` skips a missing attribute without an error, so renaming a
wrapped function would silently zero its per-layer metric; these tests make
such a rename fail here instead.
"""

import inspect
import os
import sys
from pathlib import Path

import pytest

from pue_forecast import rfecv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_MODULES = ("run", "tracer", "workloads", "kernels")


@pytest.fixture
def harness():
    """perfbench's `run` and `tracer` modules. Importing `run` pins the BLAS
    thread variables in os.environ, so the environment, sys.path and the
    imported harness modules are restored afterwards."""
    env, path = dict(os.environ), list(sys.path)
    saved = {name: sys.modules.pop(name) for name in HARNESS_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracer

        yield run, tracer
    finally:
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(env)


def test_every_instrumented_point_registers(harness):
    run, tracer = harness
    t = tracer.Tracer("t")
    run.instrument(t)
    assert len(t.wrapped) == 35, t.wrapped


def test_fit_core_leads_with_the_arguments_fit_record_unpacks():
    params = list(inspect.signature(rfecv._fit_core).parameters)
    assert params[:6] == ["X", "y", "n_estimators", "learning_rate", "max_depth", "reg_lambda"]

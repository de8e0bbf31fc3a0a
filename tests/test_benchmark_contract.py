"""The names the benchmark harness in perfbench/ wraps or unpacks keep resolving.

`Tracer.add_point` skips a missing attribute without an error, so renaming a
wrapped function would silently zero its per-layer metric; these tests make
such a rename fail here instead.
"""

import inspect
import logging
import os
import re
import sys
from pathlib import Path

import pytest

from pue_forecast import rfecv
from pue_forecast.dataset import generate_synthetic

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


def test_fit_record_reads_the_real_fit_calls(harness, monkeypatch, caplog):
    """fit_record unpacks the `_fit_core` calls of a small rfecv_grid run:
    each grows its group's largest tree count on the stacked rows of its
    roots and the columns that survive at its count, and together they grow
    every tree round the run logs."""
    import workloads

    records, jobs = [], []
    fit_core, rfecv_group = rfecv._fit_core, rfecv._rfecv_group

    def logged_fit(*args):
        records.append(workloads.fit_record(args))
        return fit_core(*args)

    def logged_group(ds, configs, step, folds):
        jobs.append(rfecv_group(ds, configs, step, folds))
        return jobs[-1]

    monkeypatch.setattr(rfecv, "_fit_core", logged_fit)
    monkeypatch.setattr(rfecv, "_rfecv_group", logged_group)
    ds = generate_synthetic(48, 3, 3, seed=3)
    folds = 4
    with caplog.at_level(logging.INFO, logger="pue_forecast.rfecv"):
        rfecv.rfecv_grid(ds, lr_grid=(0.3, 0.01), n_estimators_grid=(2, 5),
                         max_depth_grid=(2,), step=2, folds=folds, workers=1)

    # every group of every visited count, in the order the job fits them
    train_rows = sum(len(tr) for tr, _ in rfecv.make_folds(ds.n_samples, folds))
    expected = []
    for results in jobs:
        for count in sorted(results[0].cv_mse_by_count, reverse=True):
            trees: dict[frozenset, list[int]] = {}
            for r in results:
                dropped = r.elimination_order[: ds.n_features - count]
                active = frozenset(range(ds.n_features)) - set(dropped)
                trees.setdefault(active, []).append(r.estimator_config.n_estimators)
            rows = train_rows + (ds.n_samples if count > 1 else 0)
            lr = results[0].estimator_config.learning_rate
            expected += [(lr, max(t), [rows, count]) for t in trees.values()]
    got = [(r["fit_key"][0], r["n_estimators"], r["fit_key"][3]) for r in records]
    assert got and got[0] == expected[0]
    remaining = iter(expected)  # a reused group makes no call
    assert all(call in remaining for call in got), (got, expected)
    grown = [int(m) for m in re.findall(r"grew (\d+) tree rounds", caplog.text)]
    assert len(grown) == len(jobs) and sum(grown) == sum(n for _, n, _ in got)

"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -v -s`). The heavier criteria
time themselves against their wall-clock budgets.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    best_stump,
    hand_cell,
    leaf_closed_form_worst_err,
    loop_metrics,
    random_config_check,
    scalar_trace,
)
from pue_forecast.dataset import (
    fit_normalizer,
    generate_synthetic,
    load_csv,
    normalize,
    split_chronological,
    window,
)
from pue_forecast.gbt import gbt_fit, gbt_predict
from pue_forecast.metrics import evaluate
from pue_forecast.rfecv import GbtConfig, rfecv_run
from pue_forecast.rnn import BiGruLayer, gru_cell, gru_forward, bigru_forward, init_params
from pue_forecast.tuning import Checkpoint, TrainConfig, grid_search, train
from pue_forecast.dataset import WindowedSet


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


SINGLE_THREAD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        worst = max(worst, random_config_check(
            seed, max_features=4, max_hidden=4, max_layers=2, max_window=5,
            mode="bigru", eps=1e-5,
        ))
    elapsed = time.monotonic() - t0
    _report(
        1, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.3g} over 100 configs in {elapsed:.1f}s",
    )


def test_criterion_2_cell_equation_fidelity():
    p = hand_cell()
    h_prev = [0.1, -0.2]
    x = 0.5
    r, z, c, h = scalar_trace(p, h_prev, x)
    got_h, cache = gru_cell(p, np.array(h_prev), np.array([x]))
    trace_err = max(
        np.max(np.abs(cache.r - r)),
        np.max(np.abs(cache.z - z)),
        np.max(np.abs(cache.cand - c)),
        np.max(np.abs(got_h - h)),
    )

    layer = BiGruLayer(
        forward=init_params(3, 4, 1, "gru", seed=5).layers[0],
        backward=init_params(3, 4, 1, "gru", seed=6).layers[0],
    )
    X = np.random.default_rng(7).standard_normal((5, 3))
    out = bigru_forward(layer, X)
    hf = gru_forward(layer.forward, X)
    hb = gru_forward(layer.backward, X[::-1])[::-1]
    decomposition_exact = np.array_equal(out, hf + hb)

    _report(
        2, "cell-equation fidelity",
        trace_err < 1e-12 and decomposition_exact,
        f"hand-trace err {trace_err:.3g}, sum decomposition exact={decomposition_exact}",
    )


def test_criterion_3_end_to_end_learning(tmp_path):
    data = tmp_path / "telemetry.csv"
    outdir = tmp_path / "tune"
    t0 = time.monotonic()
    for argv in (
        ["generate", "--samples", "3000", "--informative", "8", "--noise", "24",
         "--seed", "11", "-o", str(data)],
        ["tune", "-i", str(data), "--mode", "bigru", "--layers", "1",
         "--hidden", "25", "--lr", "0.01", "--window", "6",
         "--max-epochs", "1500", "--eval-every", "300", "--seed", "3",
         "-o", str(outdir)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "pue_forecast.cli", *argv],
            env=SINGLE_THREAD_ENV, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
    elapsed = time.monotonic() - t0

    header, row = (outdir / "tune_report.csv").read_text().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    model_mse = float(cells["mse"])
    r2 = float(cells["r2"])

    ds = load_csv(data)
    tr, te = split_chronological(ds, 0.8)
    norm = fit_normalizer(tr)
    ws_tr = window(normalize(tr, norm), 6)
    ws_te = window(normalize(te, norm), 6)
    baseline_mse = float(np.mean((ws_te.targets - ws_tr.targets.mean()) ** 2))
    ratio = baseline_mse / model_mse

    _report(
        3, "end-to-end learning",
        r2 >= 0.90 and ratio >= 10.0 and elapsed < 600.0,
        f"held-out r2 {r2:.4f}, baseline/model mse ratio {ratio:.1f}x, "
        f"wall {elapsed:.0f}s, one BLAS thread",
    )


def _recovery_one_seed(seed):
    ds = generate_synthetic(360, 5, 15, seed=seed)
    nds = normalize(ds, fit_normalizer(ds))
    res = rfecv_run(nds, GbtConfig(0.1, 100, 6), step=1, folds=5, seed=seed)
    return set(ds.feature_names[:5]).issubset(set(res.selected_features))


def test_criterion_4_feature_selection_recovery():
    t0 = time.monotonic()
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        outcomes = list(pool.map(_recovery_one_seed, range(20)))
    elapsed = time.monotonic() - t0
    hits = sum(outcomes)
    _report(
        4, "feature-selection recovery",
        hits >= 18 and elapsed < 300.0,
        f"{hits}/20 seeds recovered all planted features, wall {elapsed:.0f}s",
    )


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        t = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        p = t + rng.normal(scale=rng.uniform(0.01, 2.0), size=n)
        rep = evaluate(t, p)
        mse, mae, r2 = loop_metrics(t.tolist(), p.tolist())
        worst = max(
            worst, abs(rep.mse - mse), abs(rep.mae - mae), abs(rep.r2 - r2)
        )

    hand = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    hand_exact = (
        hand.mse == 4.0 / 3.0 and hand.mae == 2.0 / 3.0 and hand.r2 == -1.0
    )

    jensen_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        t = rng.normal(size=n)
        p = t + rng.normal(scale=rng.uniform(0.001, 3.0), size=n)
        rep = evaluate(t, p)
        if rep.mae**2 > rep.mse:
            jensen_ok = False
            break

    _report(
        5, "metric oracles",
        worst < 1e-12 and hand_exact and jensen_ok,
        f"loop-oracle worst abs err {worst:.3g}, hand case exact={hand_exact}, "
        f"mae^2<=mse over 1e4 cases={jensen_ok}",
    )


def test_criterion_6_gbt_correctness():
    rng = np.random.default_rng(123)
    monotone = True
    for k in range(20):
        n = int(rng.integers(20, 80))
        f = int(rng.integers(2, 6))
        X = rng.normal(size=(n, f))
        beta = rng.normal(size=f)
        y = X @ beta + 0.2 * rng.normal(size=n)
        m = gbt_fit(X, y, n_estimators=25, learning_rate=0.3, max_depth=3,
                    seed=k)
        if not np.all(np.diff(m.train_losses) <= 1e-15):
            monotone = False

    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.5, -0.5, 0.0]) + 0.1 * rng.normal(size=60)
    m = gbt_fit(X, y, n_estimators=8, learning_rate=0.4, max_depth=3)
    leaf_err = leaf_closed_form_worst_err(m, X, y)

    Xs = np.array([[0.0], [1.0], [10.0], [11.0]])
    ys = np.array([0.0, 0.0, 1.0, 1.0])
    stump = gbt_fit(Xs, ys, 1, 1.0, 1, reg_lambda=0.0)
    _, c_ref, thr_ref = best_stump(Xs, ys)
    stump_mse = float(np.mean((gbt_predict(stump, Xs) - ys) ** 2))
    stump_ok = (
        stump_mse < 1e-12
        and stump.trees[0].feature[0] == c_ref
        and stump.trees[0].threshold[0] == thr_ref
    )

    _report(
        6, "gbt correctness",
        monotone and leaf_err < 1e-9 and stump_ok,
        f"loss monotone over 20 datasets={monotone}, leaf closed-form worst "
        f"err {leaf_err:.3g}, perfect-stump mse {stump_mse:.3g}",
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    ds = generate_synthetic(300, 4, 2, seed=21)
    kwargs = dict(
        mode="bigru", layers_grid=(1,), hidden_grid=(3, 5), lr_grid=(0.02, 0.05),
        window_length=4, train_fraction=0.8, max_epochs=30, eval_every=10,
        seed=17,
    )
    solo = grid_search(ds, [list(ds.feature_names)], workers=1, **kwargs)
    quad = grid_search(ds, [list(ds.feature_names)], workers=4, **kwargs)
    records_equal = solo.records == quad.records
    ckpt_equal = all(
        np.array_equal(solo.checkpoints[k].params, quad.checkpoints[k].params)
        for k in solo.checkpoints
    )
    p1, p4 = tmp_path / "r1.csv", tmp_path / "r4.csv"
    solo.to_csv(p1)
    quad.to_csv(p4)
    csv_equal = p1.read_bytes() == p4.read_bytes()

    ckpt = solo.checkpoints[0]
    path = tmp_path / "ckpt.json"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    windows = np.random.default_rng(31).uniform(0.0, 1.0, size=(100, 4, 6))
    roundtrip_bitwise = np.array_equal(ckpt.predict(windows), loaded.predict(windows))

    _report(
        7, "determinism & persistence",
        records_equal and ckpt_equal and csv_equal and roundtrip_bitwise,
        f"reports identical across 1 vs 4 workers={records_equal and csv_equal}, "
        f"checkpoint round-trip bitwise={roundtrip_bitwise}",
    )


def _run_cli(argv, timeout=600):
    proc = subprocess.run(
        [sys.executable, "-m", "pue_forecast.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, f"{argv}: {proc.stderr}"


def test_criterion_8_pipeline_parity(tmp_path):
    table_header = "selected_features,layers,hidden,lr,epochs,mse,mae,r2"
    wins = 0
    outcomes = []
    for seed in range(5):
        base = tmp_path / f"seed{seed}"
        base.mkdir()
        data = base / "telemetry.csv"
        _run_cli(["generate", "--samples", "600", "--informative", "4",
                  "--noise", "4", "--seed", str(seed + 1), "-o", str(data)])
        sel = base / "sel"
        _run_cli(["select-features", "-i", str(data), "-o", str(sel),
                  "--top-k", "6", "--lr", "0.1", "0.05", "--trees", "40",
                  "--depth", "3", "--seed", str(seed)])
        best: dict[str, float] = {}
        for mode in ("gru", "bigru"):
            outdir = base / f"tune_{mode}"
            _run_cli(["tune", "-i", str(data),
                      "-f", str(sel / "feature_sets.json"), "--mode", mode,
                      "--layers", "1", "--hidden", "10", "--lr", "0.02", "0.05",
                      "--window", "6", "--max-epochs", "300",
                      "--eval-every", "100", "--seed", str(seed), "-o",
                      str(outdir)])
            lines = (outdir / "tune_report.csv").read_text().strip().split("\n")
            assert lines[0] == table_header
            sets = json.loads((sel / "feature_sets.json").read_text())
            assert len(lines) == 1 + len(sets)
            best[mode] = min(float(r.split(",")[5]) for r in lines[1:])
        outcomes.append((seed, best["bigru"], best["gru"]))
        if best["bigru"] <= best["gru"]:
            wins += 1
    detail = "; ".join(
        f"seed{me}: bigru {b:.3g} vs gru {g:.3g}" for me, b, g in outcomes
    )
    _report(
        8, "pipeline parity",
        wins >= 3,
        f"bigru best mse <= gru best mse in {wins}/5 seeds ({detail})",
    )

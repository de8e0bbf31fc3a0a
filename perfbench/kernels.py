"""Kernel microbenchmarks through the public gbt_fit and forward/backward/predict_batch.

Shapes follow the ROADMAP baseline table, whose figures (2 cores, Python
3.11.7, numpy 2.4.6, one BLAS thread) are kept here for comparison. Each
kernel returns its per-rep samples; the caller reports the median and flags a
baseline that lies outside the samples' spread.
"""

from __future__ import annotations

import time

import numpy as np

import pue_forecast.dataset as pf_dataset
import pue_forecast.gbt as pf_gbt
import pue_forecast.rnn as pf_rnn

BASELINE = {
    "gbt.ms_per_tree.n288_f20_d6": 2.95,
    "gbt.ms_per_tree.n3200_f32_d3": 12.7,
    "rnn.fwd_ms.gru_l1_h10": 18.0,
    "rnn.bwd_ms.gru_l1_h10": 13.0,
    "rnn.fwd_ms.bigru_l1_h50": 190.0,
    "rnn.bwd_ms.bigru_l1_h50": 187.0,
    "rnn.fwd_ms.bigru_l3_h100": 1683.0,
    "rnn.bwd_ms.bigru_l3_h100": 1637.0,
    "rnn.exact_ms.bigru_l3_h100": 4600.0,
}

GBT_TREES = 20


def _normalized(ds):
    return pf_dataset.normalize(ds, pf_dataset.fit_normalizer(ds))


def gbt_kernels(seed: int, reps: int = 3) -> dict[str, list[float]]:
    """ms per tree of gbt_fit on one RFECV training fold at both workload shapes."""
    small = _normalized(pf_dataset.generate_synthetic(360, 5, 15, seed))
    train, _ = pf_dataset.split_chronological(pf_dataset.generate_synthetic(5000, 8, 24, seed), 0.8)
    large = _normalized(train)
    shapes = {
        # fold 0 of 5 holds out the first fifth: 288 and 3200 training rows
        "gbt.ms_per_tree.n288_f20_d6": (small.X[72:], small.y[72:], 6),
        "gbt.ms_per_tree.n3200_f32_d3": (large.X[800:], large.y[800:], 3),
    }
    out = {}
    for name, (X, y, depth) in shapes.items():
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            pf_gbt.gbt_fit(X, y, n_estimators=GBT_TREES, learning_rate=0.1, max_depth=depth)
            samples.append((time.perf_counter() - t0) * 1000.0 / GBT_TREES)
        out[name] = samples
    return out


# held-out windows of a 5000-row telemetry file at the default 0.8 split: the
# baseline's exact-path figure is one evaluation of that set
EXACT_WINDOWS = 995


def rnn_kernels(seed: int) -> dict[str, list[float]]:
    """Full-batch forward (fast path) and backward ms on 3995 windows of W=6 and
    8 features, plus one exact-path evaluation of 995 windows at the largest shape."""
    ds = pf_dataset.generate_synthetic(4000, 8, 0, seed)
    ws = pf_dataset.window(_normalized(ds), 6)
    X, y = ws.windows, ws.targets
    B = X.shape[0]
    out: dict[str, list[float]] = {}
    for tag, mode, layers, hidden, reps in (
        ("gru_l1_h10", "gru", 1, 10, 3),
        ("bigru_l1_h50", "bigru", 1, 50, 3),
        ("bigru_l3_h100", "bigru", 3, 100, 2),
    ):
        model = pf_rnn.init_params(8, hidden, layers, mode, seed)
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            pred, cache = pf_rnn.forward_batch(model, X, exact=False)
            t1 = time.perf_counter()
            pf_rnn.backward_batch(model, cache, 2.0 * (pred - y) / B)
            t2 = time.perf_counter()
            fwd.append((t1 - t0) * 1000.0)
            bwd.append((t2 - t1) * 1000.0)
        out[f"rnn.fwd_ms.{tag}"] = fwd
        out[f"rnn.bwd_ms.{tag}"] = bwd
    t0 = time.perf_counter()
    pf_rnn.predict_batch(model, X[-EXACT_WINDOWS:])
    out["rnn.exact_ms.bigru_l3_h100"] = [(time.perf_counter() - t0) * 1000.0]
    return out


def compare(samples: dict[str, list[float]]) -> list[dict]:
    """One row per kernel: median, spread (max - min over reps), baseline, and a
    discrepancy flag when median and baseline differ by more than the spread."""
    rows = []
    for name, vals in samples.items():
        med, spread = float(np.median(vals)), max(vals) - min(vals)
        base = BASELINE[name]
        rows.append({
            "kernel": name, "median": med, "spread": spread, "reps": len(vals),
            "baseline": base, "ratio": med / base, "discrepancy": abs(med - base) > spread,
        })
    return rows

"""The three benchmark workloads: inputs from the seed, one timed unit, checks.

A workload runs `setup()` (input generation and preparation) before each timed
unit. Every set-up makes the same inputs; the in-process units keep using the
first set-up's, so a later set-up's arrays are freed at once instead of
sitting between a unit's allocations, where they grew the peak RSS with the
number of units. Every unit of one run works on the same inputs, so its
outputs must be bitwise equal to the first unit's. Each unit returns a dict with its wall
time, stage times, exact counts, quality figures, fingerprints and a list of
operations `(name, ok, detail)`; the operations feed `attempted`/`failed`.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import pue_forecast.cli as pf_cli
import pue_forecast.dataset as pf_dataset
import pue_forecast.rfecv as pf_rfecv
import pue_forecast.tuning as pf_tuning

# Relative tolerance on held-out MSE against the reference table: training
# may change in the last bits (fused kernels), not in its result.
HELDOUT_RTOL = 1e-6


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def fits_per_config(visited_counts: int, folds: int) -> int:
    """Estimator fits of one rfecv_run, from the feature counts it scored:
    `folds` per count plus one importance fit per count above 1."""
    return folds * visited_counts + visited_counts - 1


def fit_record(args) -> dict:
    """Tree count and identity of one `_fit_core(X, y, n_estimators, lr, depth,
    reg_lambda, ...)` call. Fits with the same identity differ only in
    n_estimators, so they grow the same leading trees."""
    X, y, n_estimators, lr, depth, reg_lambda = args[:6]
    data = hashlib.sha256(np.ascontiguousarray(X).tobytes() + np.ascontiguousarray(y).tobytes())
    return {"n_estimators": int(n_estimators),
            "fit_key": [lr, depth, reg_lambda, list(X.shape), data.hexdigest()[:16]]}


def tree_counts(records: list[dict]) -> dict[str, int]:
    """Fits and trees built, and the trees needed if fits of one identity
    shared their leading trees."""
    need: dict[str, int] = {}
    for r in records:
        key = json.dumps(r["fit_key"])
        need[key] = max(need.get(key, 0), r["n_estimators"])
    return {"fits": len(records), "built": sum(r["n_estimators"] for r in records),
            "needed": sum(need.values())}


def log_fits_in_worker(path: str) -> None:
    """Pool initializer: append a fit record of every `_fit_core` call in this
    spawned worker to `path`, one JSON line each."""
    real = pf_rfecv._fit_core

    def logged(*args):
        line = json.dumps(fit_record(args)) + "\n"
        out = real(*args)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
        return out

    pf_rfecv._fit_core = logged


def rfecv_fingerprint(results) -> str:
    doc = [
        {
            "config": [r.estimator_config.learning_rate, r.estimator_config.n_estimators,
                       r.estimator_config.max_depth, r.estimator_config.reg_lambda],
            "elimination_order": list(r.elimination_order),
            "cv_mse_by_count": {str(k): repr(v) for k, v in sorted(r.cv_mse_by_count.items())},
            "selected": list(r.selected_features),
        }
        for r in results
    ]
    return sha256_bytes(json.dumps(doc, sort_keys=True).encode())


def rfecv_structure_ok(results, n_features: int) -> tuple[bool, str]:
    """Properties any correct RFECV result has, independent of the data."""
    for r in results:
        order = r.elimination_order
        if len(order) != n_features - 1 or len(set(order)) != len(order):
            return False, f"elimination order {order} is not n-1 distinct features"
        mses = r.cv_mse_by_count
        if not all(math.isfinite(v) and v >= 0 for v in mses.values()):
            return False, "non-finite CV MSE"
        if r.best_count != min(mses, key=lambda c: (mses[c], c)):
            return False, "best count is not the CV-MSE argmin"
        if len(r.selected_features) != r.best_count:
            return False, "selected set size differs from best count"
    return True, ""


def planted_share(selected: list[str], planted: list[str]) -> float:
    return len(set(selected) & set(planted)) / len(planted)


class Workload:
    name = ""
    # end-to-end metrics this workload reports, besides wall_s, setup_s and peak_rss_mb
    metrics: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: Path, reference: dict):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference.get(self.name, {}).get(str(seed))

    def run_checks(self, units: list[dict]) -> list[tuple[str, bool, str]]:
        """Run-level checks: determinism across units and the reference table."""
        first = units[0]
        ops = []
        for i, u in enumerate(units[1:], start=1):
            same = u["fingerprints"] == first["fingerprints"]
            ops.append((f"unit{i}_bitwise_equal_unit0", same,
                        "" if same else f"{u['fingerprints']} != {first['fingerprints']}"))
        if self.reference is None:
            return ops
        for key, want in self.reference.items():
            got = first["reference_values"].get(key)
            if isinstance(want, float):
                ok = got is not None and abs(got - want) <= HELDOUT_RTOL * abs(want)
            else:
                ok = got == want
            ops.append((f"reference_{key}", ok, "" if ok else f"got {got!r}, want {want!r}"))
        return ops


class SelectSmall(Workload):
    name = "select_small"
    metrics = ("trees_per_s", "recovered_frac", "cv_mse")
    TREES = (5, 10)
    FOLDS = 5
    STEP = 1

    nds = None

    def setup(self) -> None:
        ds = pf_dataset.generate_synthetic(360, 5, 15, self.seed)
        nds = pf_dataset.normalize(ds, pf_dataset.fit_normalizer(ds))
        if self.nds is None:
            self.planted, self.nds = list(ds.feature_names[:5]), nds

    def unit(self, index: int, mode: str) -> dict:
        nds = self.nds
        t0 = time.perf_counter()
        results = pf_rfecv.rfecv_grid(
            nds, lr_grid=(0.1,), n_estimators_grid=self.TREES, max_depth_grid=(6,),
            step=self.STEP, folds=self.FOLDS, seed=self.seed, workers=1,
        )
        wall = time.perf_counter() - t0
        fits = fits_per_config(len(results[0].cv_mse_by_count), self.FOLDS)
        trees = fits * sum(self.TREES)
        ok, detail = rfecv_structure_ok(results, nds.n_features)
        fp = rfecv_fingerprint(results)
        best = results[0]
        return {
            "wall_s": wall,
            "counts": {"gbt.logical_trees": trees, "rfecv.logical_fits": fits * len(self.TREES),
                       "rfecv.configs": len(self.TREES)},
            "quality": {"recovered_frac": planted_share(best.selected_features, self.planted),
                        "cv_mse": best.best_mse},
            "rates": {"trees_per_s": trees / wall},
            "fingerprints": {"rfecv": fp},
            "reference_values": {"rfecv_fingerprint": fp},
            "ops": [(f"config_{n}_trees", True, "") for n in self.TREES]
                   + [("rfecv_structure", ok, detail)],
            "worker_fits": [],
        }


class TrainBigru(Workload):
    name = "train_bigru"
    metrics = ("epochs_per_s", "heldout_mse", "heldout_r2")
    LAYERS = (1, 2)
    EPOCHS = 6
    EVAL_EVERY = 2
    WINDOW = 6
    SAMPLES = 3000
    TRAIN_FRACTION = 0.8

    ds = None

    def setup(self) -> None:
        """Generation only: grid_search splits, normalises and windows itself."""
        ds = pf_dataset.generate_synthetic(self.SAMPLES, 8, 24, self.seed)
        names = list(ds.feature_names[:8])
        selected = ds.select(names)
        if self.ds is None:
            self.names, self.ds = names, selected

    def unit(self, index: int, mode: str) -> dict:
        t0 = time.perf_counter()
        report = pf_tuning.grid_search(
            self.ds, [self.names], mode="bigru", layers_grid=self.LAYERS,
            hidden_grid=(50,), lr_grid=(0.01,), window_length=self.WINDOW,
            max_epochs=self.EPOCHS, eval_every=self.EVAL_EVERY, seed=self.seed, workers=1,
            train_fraction=self.TRAIN_FRACTION,
        )
        wall = time.perf_counter() - t0
        ok_points = [r for r in report.records if not r.failed]
        epochs = self.EPOCHS * len(ok_points)
        best = report.best
        records = [[r.layers, r.hidden_dim, r.best_epoch, repr(r.mse), repr(r.mae), repr(r.r2),
                    r.failed] for r in report.records]
        params = b"".join(c.params.tobytes() for _, c in sorted(report.checkpoints.items()))
        fp = sha256_bytes(json.dumps(records).encode() + params)
        n_train = math.floor(self.TRAIN_FRACTION * self.SAMPLES)
        return {
            "wall_s": wall,
            "counts": {"tuning.epochs": epochs, "tuning.grid_points": len(report.records),
                       "tuning.failed_points": len(report.records) - len(ok_points),
                       "dataset.train_windows": n_train - self.WINDOW + 1,
                       "dataset.eval_windows": self.SAMPLES - n_train - self.WINDOW + 1},
            "quality": {"heldout_mse": best.mse, "heldout_r2": best.r2},
            "rates": {"epochs_per_s": epochs / wall},
            "fingerprints": {"tune": fp},
            "reference_values": {"heldout_mse": best.mse},
            "ops": [(f"grid_point_L{r.layers}", not r.failed, r.error or "")
                    for r in report.records],
            "worker_fits": [],
        }


class PipelineCli(Workload):
    name = "pipeline_cli"
    metrics = ("trees_per_s", "epochs_per_s", "predict_windows_per_s", "recovered_frac",
               "cv_mse", "heldout_mse", "heldout_r2")
    SAMPLES, INFORMATIVE, NOISE = 5000, 8, 24
    # At lr 0.001 the ten trees barely differ and rank features unlike lr 0.1's
    # (lr 0.05 picked the same 8 features as lr 0.1). On seeds 1-10 the two
    # sets differed, so both tune workers have work.
    SELECT_LR = ("0.1", "0.001")
    TREES, DEPTH, STEP, FOLDS = 10, 3, 4, 5
    EPOCHS, EVAL_EVERY, WINDOW = 6, 2, 6

    def __init__(self, seed: int, work_dir: Path, reference: dict):
        super().__init__(seed, work_dir, reference)
        self.python = [sys.executable]
        self.env = dict(os.environ)
        self.csv = work_dir / "telemetry.csv"
        self.predict_checked = False

    def _command(self, argv: list[str], mode: str) -> tuple[float, int, str]:
        """Run one CLI command; return (seconds, exit code, stderr tail)."""
        t0 = time.perf_counter()
        if mode == "plain":
            proc = subprocess.run(self.python + ["-m", "pue_forecast.cli"] + argv,
                                  env=self.env, capture_output=True, text=True, timeout=170)
            code, err = proc.returncode, proc.stderr[-500:]
        else:
            code, err = pf_cli.main(argv), ""
        return time.perf_counter() - t0, code, err

    def setup(self, mode: str = "plain") -> tuple[float, int, str]:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return self._command(
            ["generate", "--samples", str(self.SAMPLES), "--informative", str(self.INFORMATIVE),
             "--noise", str(self.NOISE), "--seed", str(self.seed), "-o", str(self.csv)], mode)

    def unit(self, index: int, mode: str) -> dict:
        d = self.work_dir / f"unit{index}"
        sel, tune, pred = d / "select", d / "tune", d / "predictions.csv"
        d.mkdir(parents=True, exist_ok=True)
        ops = []
        stages = {}
        fit_log = d / "worker_fits.jsonl"
        if mode == "traced":
            # selection fits run in spawned pool workers, which the tracer does not
            # reach; they log their fit records instead
            pf_rfecv.ProcessPoolExecutor = functools.partial(
                ProcessPoolExecutor, initializer=log_fits_in_worker, initargs=(str(fit_log),))
        t0 = time.perf_counter()
        steps = [
            ("select_s", ["select-features", "-i", str(self.csv), "-o", str(sel),
                          "--lr", *self.SELECT_LR, "--trees", str(self.TREES),
                          "--depth", str(self.DEPTH), "--step", str(self.STEP),
                          "--folds", str(self.FOLDS), "--workers", "2"]),
            ("tune_s", ["tune", "-i", str(self.csv), "-f", str(sel / "feature_sets.json"),
                        "--mode", "bigru", "--layers", "1", "--hidden", "25", "--lr", "0.01",
                        "--max-epochs", str(self.EPOCHS), "--eval-every", str(self.EVAL_EVERY),
                        "--window", str(self.WINDOW), "--workers", "2", "-o", str(tune)]),
            ("predict_s", None),
        ]
        try:
            for stage, argv in steps:
                if argv is None:
                    argv = ["predict", "-c", str(self._winner_checkpoint(tune)),
                            "-i", str(self.csv), "-o", str(pred)]
                secs, code, err = self._command(argv, mode)
                stages[stage] = secs
                ops.append((f"cli_{argv[0]}_exit0", code == 0, err))
                if code != 0:
                    raise RuntimeError(f"pue-forecast {argv[0]} exited {code}: {err}")
        finally:
            pf_rfecv.ProcessPoolExecutor = ProcessPoolExecutor
        wall = time.perf_counter() - t0
        worker_fits = ([json.loads(line) for line in fit_log.read_text(encoding="utf-8").splitlines()]
                       if fit_log.exists() else [])

        sets = json.loads((sel / "feature_sets.json").read_text(encoding="utf-8"))
        with (tune / "tune_records.csv").open(newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        ok_records = [r for r in records if r["failed"] == "0"]
        winner = min(ok_records, key=lambda r: float(r["mse"]))
        n_windows = self.SAMPLES - self.WINDOW + 1
        fits = fits_per_config(len(sets[0]["cv_mse_by_count"]), self.FOLDS)
        configs = len(self.SELECT_LR)
        trees = configs * fits * self.TREES
        epochs = self.EPOCHS * len(ok_records)
        planted = [f for f in sets[0]["selected_features"]
                   if f in self._planted_names()]
        fingerprints = {
            "feature_sets.json": sha256_file(sel / "feature_sets.json"),
            "tune_report.csv": sha256_file(tune / "tune_report.csv"),
            "predictions.csv": sha256_file(pred),
        }
        ops += [(f"grid_point_{r['feature_set']}", r["failed"] == "0", r["error"])
                for r in records]
        if not self.predict_checked:
            ops.append(self._check_predictions(tune, pred))
            self.predict_checked = True
        unit = {
            "wall_s": wall,
            "stages": stages,
            "counts": {"gbt.logical_trees": trees, "rfecv.logical_fits": configs * fits,
                       "rfecv.configs": configs, "tuning.epochs": epochs,
                       "tuning.grid_points": len(records),
                       "tuning.failed_points": len(records) - len(ok_records),
                       "tuning.feature_sets": len(sets),
                       "dataset.load_csv_cells": 3 * self.SAMPLES * (self.INFORMATIVE + self.NOISE + 2),
                       "predict.windows": n_windows},
            "quality": {"recovered_frac": len(planted) / self.INFORMATIVE,
                        "cv_mse": float(sets[0]["cv_mse"]),
                        "heldout_mse": float(winner["mse"]), "heldout_r2": float(winner["r2"])},
            "rates": {"trees_per_s": trees / stages["select_s"],
                      "epochs_per_s": epochs / stages["tune_s"],
                      "predict_windows_per_s": n_windows / stages["predict_s"]},
            "fingerprints": fingerprints,
            "reference_values": {"feature_sets_sha256": fingerprints["feature_sets.json"],
                                 "heldout_mse": float(winner["mse"])},
            "ops": [(f"config_lr{lr}", True, "") for lr in self.SELECT_LR] + ops,
            "worker_fits": worker_fits,
        }
        shutil.rmtree(d)
        return unit

    def _planted_names(self) -> list[str]:
        with self.csv.open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        return header[1 : 1 + self.INFORMATIVE]

    @staticmethod
    def _winner_checkpoint(tune: Path) -> Path:
        with (tune / "tune_records.csv").open(newline="", encoding="utf-8") as fh:
            ok = [r for r in csv.DictReader(fh) if r["failed"] == "0"]
        if not ok:
            raise RuntimeError("tune produced no successful grid point")
        best = min(ok, key=lambda r: (float(r["mse"]), int(r["n_params"])))
        return tune / f"checkpoint_{best['feature_set']}.json"

    def _check_predictions(self, tune: Path, pred: Path) -> tuple[str, bool, str]:
        """The predict command equals an in-process Checkpoint.load(...).predict."""
        ckpt = pf_tuning.Checkpoint.load(self._winner_checkpoint(tune))
        ds = pf_dataset.load_csv(self.csv).select(ckpt.feature_names)
        ws = pf_dataset.window(pf_dataset.normalize(ds, ckpt.normalization), ckpt.config.window)
        want = pf_dataset.denormalize_target(ckpt.predict(ws.windows), ckpt.normalization)
        with pred.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[1]) for r in rows])
        ok = got.shape == want.shape and np.array_equal(got, want)
        return "predict_equals_inprocess_checkpoint", ok, "" if ok else "predictions differ"


WORKLOADS = {w.name: w for w in (SelectSmall, TrainBigru, PipelineCli)}


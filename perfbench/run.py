"""Benchmark of the pue-forecast pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload select_small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`. With
`--trace 0` it measures the end-to-end metrics with tracing off; with
`--trace 1` it measures untraced and traced units in turn, derives the
per-layer metrics from the spans and runs the kernel microbenchmarks. Either
way it checks the outputs, prints a table, a `detail` line (environment,
exact counts, fingerprints, checks) and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Any failed check makes the exit code 1.
Results and spans are also written under `.bench_out/`; scratch files go to
`.bench_work/` and are removed at exit. The measuring process runs as a child
of `supervise.py`, which ends and reaps every process the run leaves behind.
"""

from __future__ import annotations

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# pinned before numpy loads, and inherited by every child process
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("select_small", "train_bigru", "pipeline_cli")
# set-ups before each unit; setup_s is the median of the run's set-ups
SETUP_PER_UNIT = 2

# (name, unit, better) of every end-to-end metric; the first three are
# reported on every workload, the rest where the workload produces them.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("trees_per_s", "1/s", "higher"),
    ("epochs_per_s", "1/s", "higher"),
    ("predict_windows_per_s", "1/s", "higher"),
    ("recovered_frac", "fraction", "higher"),
    ("cv_mse", "norm_mse", "lower"),
    ("heldout_mse", "norm_mse", "lower"),
    ("heldout_r2", "r2", "higher"),
    ("failed_frac", "fraction", "lower"),
]
ALWAYS = ("wall_s", "setup_s", "peak_rss_mb")

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("dataset.generate_s", "s", "lower", "setup_s on all"),
    ("dataset.write_csv_s", "s", "lower", "setup_s on pipeline_cli"),
    ("dataset.load_csv_s", "s", "lower", "wall_s, predict_windows_per_s on pipeline_cli"),
    ("dataset.load_csv_cells_per_s", "1/s", "higher", "wall_s, predict_windows_per_s on pipeline_cli"),
    ("dataset.load_csv_cells", "count", "lower", "exact count"),
    ("dataset.prepare_s", "s", "lower", "setup_s on select_small; wall_s on train_bigru"),
    ("gbt.trees_built", "count", "lower", "exact count of trees fitted; trees_per_s counts logical trees"),
    ("gbt.ms_per_tree.n288_f20_d6", "ms", "lower", "trees_per_s on select_small"),
    ("gbt.ms_per_tree.n3200_f32_d3", "ms", "lower", "trees_per_s on pipeline_cli"),
    ("gbt.predict_s", "s", "lower", "wall_s on select_small"),
    ("rfecv.config_s.p50", "s", "lower", "trees_per_s on select_small"),
    ("rfecv.config_s.max", "s", "lower", "trees_per_s on select_small"),
    ("rfecv.fits", "count", "lower", "exact count of fits"),
    ("rfecv.fit_self_s", "s", "lower", "trees_per_s on select_small"),
    ("rfecv.useful_tree_frac", "fraction", "higher", "trees_per_s on select_small (1 on pipeline_cli)"),
    ("rnn.forward_ms", "ms", "lower", "epochs_per_s on train_bigru"),
    ("rnn.backward_ms", "ms", "lower", "epochs_per_s on train_bigru"),
    ("rnn.fwd_gflops", "GFLOP/s", "higher", "epochs_per_s on train_bigru (computed flops)"),
    ("rnn.bwd_gflops", "GFLOP/s", "higher", "epochs_per_s on train_bigru (computed flops)"),
    ("rnn.exact_ms_per_kwindow", "ms", "lower", "predict_windows_per_s on pipeline_cli"),
    ("rnn.fwd_ms.gru_l1_h10", "ms", "lower", "epochs_per_s (kernel, train_bigru run)"),
    ("rnn.bwd_ms.gru_l1_h10", "ms", "lower", "epochs_per_s (kernel, train_bigru run)"),
    ("rnn.fwd_ms.bigru_l1_h50", "ms", "lower", "epochs_per_s on train_bigru (kernel)"),
    ("rnn.bwd_ms.bigru_l1_h50", "ms", "lower", "epochs_per_s on train_bigru (kernel)"),
    ("rnn.fwd_ms.bigru_l3_h100", "ms", "lower", "epochs_per_s (kernel, train_bigru run)"),
    ("rnn.bwd_ms.bigru_l3_h100", "ms", "lower", "epochs_per_s (kernel, train_bigru run)"),
    ("rnn.exact_ms.bigru_l3_h100", "ms", "lower", "predict_windows_per_s (kernel, 995 windows, train_bigru run)"),
    ("tuning.adam_ms", "ms", "lower", "epochs_per_s on train_bigru"),
    ("tuning.loop_self_frac", "fraction", "lower", "epochs_per_s on train_bigru"),
    ("tuning.train_s.p50", "s", "lower", "wall_s on train_bigru"),
    ("tuning.train_s.max", "s", "lower", "wall_s on train_bigru"),
    ("tuning.eval_s", "s", "lower", "wall_s on train_bigru"),
    ("tuning.checkpoint_save_ms", "ms", "lower", "wall_s, predict_windows_per_s on pipeline_cli"),
    ("tuning.checkpoint_load_ms", "ms", "lower", "wall_s, predict_windows_per_s on pipeline_cli"),
    ("tuning.checkpoint_bytes", "bytes", "lower", "wall_s, predict_windows_per_s on pipeline_cli"),
    ("tuning.epochs", "count", "higher", "exact count; feeds failed_frac"),
    ("tuning.grid_points", "count", "higher", "exact count; feeds failed_frac"),
    ("tuning.failed_points", "count", "lower", "exact count; feeds failed_frac"),
    ("cli.startup_s", "s", "lower", "setup_s, predict_windows_per_s on pipeline_cli"),
    ("cli.generate_s", "s", "lower", "setup_s on pipeline_cli"),
    ("cli.select_features_s", "s", "lower", "wall_s on pipeline_cli"),
    ("cli.tune_s", "s", "lower", "wall_s on pipeline_cli"),
    ("cli.predict_s", "s", "lower", "wall_s on pipeline_cli"),
    ("cli.self_s", "s", "lower", "wall_s on pipeline_cli"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced unit wall"),
]
LAYERS = ("dataset", "gbt", "rfecv", "rnn", "tuning", "metrics", "cli")
CLI_COMMANDS = ("cli.generate", "cli.select_features", "cli.tune", "cli.predict")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10, cwd=ROOT).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "pue_forecast").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def gru_flops(model, windows: int, steps: int) -> int:
    """Matmul flops of one forward pass: 3 gates x (input + recurrent) per step."""
    dirs = 2 if model.mode == "bigru" else 1
    return sum(dirs * 2 * windows * steps * 3 * layer.hidden_dim
               * (layer.input_dim + layer.hidden_dim) for layer in model.layers)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def instrument(tracer) -> None:
    """Register the public names each layer calls, at the module that calls them."""
    import workloads

    import pue_forecast.cli as cli
    import pue_forecast.dataset as dataset
    import pue_forecast.rfecv as rfecv
    import pue_forecast.tuning as tuning

    last = {"steps": 0}

    def fwd(args, kwargs, out):
        model, X = args[0], _arg(args, kwargs, 1, "X")
        last["steps"] = X.shape[1]
        return {"exact": bool(_arg(args, kwargs, 2, "exact", True)), "windows": X.shape[0],
                "flops": gru_flops(model, X.shape[0], X.shape[1])}

    def bwd(args, kwargs, out):
        n = len(_arg(args, kwargs, 2, "d_pred"))
        return {"windows": n, "flops": 2 * gru_flops(args[0], n, last["steps"])}

    def windows(args, kwargs, out):
        return {"windows": len(_arg(args, kwargs, 1, "X"))}

    def cells(args, kwargs, out):
        return {"cells": out.n_samples * (out.n_features + 2)}

    def size(args, kwargs, out):
        return {"bytes": Path(_arg(args, kwargs, 1, "path")).stat().st_size}

    def fit(args, kwargs, out):
        return workloads.fit_record(args)

    points = [
        (cli, "cmd_generate", "cli.generate", None),
        (cli, "cmd_select_features", "cli.select_features", None),
        (cli, "cmd_tune", "cli.tune", None),
        (cli, "cmd_predict", "cli.predict", None),
        (cli, "generate_synthetic", "dataset.generate", None),
        (dataset, "generate_synthetic", "dataset.generate", None),
        (cli, "write_csv", "dataset.write_csv", None),
        (cli, "load_csv", "dataset.load_csv", cells),
        (cli, "grid_search", "tuning.grid_search", None),
        (cli, "rfecv_grid", "rfecv.rfecv_grid", None),
        (rfecv, "rfecv_grid", "rfecv.rfecv_grid", None),
        (rfecv, "rfecv_run", "rfecv.rfecv_run", None),
        (rfecv, "_fit_core", "gbt.fit", fit),
        (rfecv, "gbt_predict", "gbt.predict", None),
        (tuning, "grid_search", "tuning.grid_search", None),
        (tuning, "train", "tuning.train", None),
        (tuning, "adam_step", "tuning.adam_step", None),
        (tuning, "forward_batch", "rnn.forward_batch", fwd),
        (tuning, "backward_batch", "rnn.backward_batch", bwd),
        (tuning, "predict_batch", "rnn.predict_batch", windows),
        (tuning, "evaluate", "metrics.evaluate", None),
        (tuning.Checkpoint, "save", "tuning.checkpoint_save", size),
        (tuning.Checkpoint, "load", "tuning.checkpoint_load", None),
    ]
    for module in (cli, tuning, dataset):
        for fn in ("split_chronological", "fit_normalizer", "normalize", "window"):
            points.append((module, fn, f"dataset.prepare.{fn}", None))
    for owner, attr, name, attrs_fn in points:
        tracer.add_point(owner, attr, name, attrs_fn)


class Run:
    def __init__(self, args):
        import tracer
        import workloads

        self.args = args
        self.work_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        ref_path = HERE / "reference.json"
        reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
        self.wl = workloads.WORKLOADS[args.workload](args.seed, self.work_dir, reference)
        self.tracer = tracer.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        self.ops: list[tuple[str, bool, str]] = []
        self.units: list[dict] = []
        self.setup_times: list[float] = []
        self.tree_counts: dict[str, int] = {}

    # -- phases ------------------------------------------------------------
    def _timed_subprocess(self, argv: list[str]) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=170)
        secs = time.perf_counter() - t0
        self.ops.append((f"subprocess_{argv[-1]}_exit0", proc.returncode == 0, proc.stderr[-500:]))
        return secs

    def setup(self, traced: bool) -> None:
        """Set up SETUP_PER_UNIT times. The in-process workloads add interpreter
        start and package import, timed in a child. Every set-up makes the same
        inputs; the workload keeps the first set-up's."""
        for _ in range(SETUP_PER_UNIT):
            i = len(self.setup_times)
            with self.tracer.installed() if traced else nullcontext():
                with self.tracer.span("bench.setup") if traced else nullcontext():
                    if self.args.workload == "pipeline_cli":
                        secs, code, err = self.wl.setup("traced" if traced else "plain")
                        self.ops.append((f"setup{i}_cli_generate_exit0", code == 0, err))
                        if code != 0:
                            raise RuntimeError(f"pue-forecast generate exited {code}: {err}")
                    else:
                        secs = self._timed_subprocess(["-c", "import pue_forecast"])
                        t0 = time.perf_counter()
                        self.wl.setup()
                        secs += time.perf_counter() - t0
            self.setup_times.append(secs)

    def measure(self, trace: bool, seconds: float) -> None:
        """Set up, then run a unit, until the next round, if as slow as the
        slowest so far, would end after `seconds`. Set-ups are spread over the
        run like the units, so both see the same stretches of a machine whose
        speed drifts. With tracing, set-ups are traced and units
        alternate untraced/traced, both in-process, and at least three run: the
        first unit is often slower, so the overhead skips it."""
        t0 = time.perf_counter()
        slowest = 0.0
        while True:
            start = time.perf_counter()
            self.setup(trace)
            index = len(self.units)
            traced = trace and index % 2 == 1
            mode = "traced" if traced else ("inproc" if trace else "plain")
            with self.tracer.installed() if traced else nullcontext():
                with self.tracer.span("bench.unit", index=index) if traced else nullcontext():
                    unit = self.wl.unit(index, mode)
            unit["traced"] = traced
            self.units.append(unit)
            self.ops.extend(unit["ops"])
            slowest = max(slowest, time.perf_counter() - start)
            enough = len(self.units) >= (3 if trace else 1)
            if enough and time.perf_counter() - t0 + slowest > seconds:
                break

    # -- results -------------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        """Times and rates are medians over the run's units and set-ups. On a
        shared machine whose speed drifts, the median was steadier from run to
        run than the fastest sample, which follows rare fast stretches."""
        us = self.units
        # Linux gives a child, at exec, the peak RSS of the process that started
        # it, so the start-up probes of the in-process workloads would report
        # this process's peak again; only pipeline_cli's children do its work
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.args.workload == "pipeline_cli":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out = {
            "wall_s": median(u["wall_s"] for u in us),
            "setup_s": median(self.setup_times),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        for name in self.wl.metrics:
            if us and name in us[0]["rates"]:
                out[name] = median(u["rates"][name] for u in us)
            elif us:
                out[name] = us[0]["quality"][name]
        return out

    def count_trees(self) -> None:
        """Fits and trees of the first traced unit, from its gbt.fit spans and its
        pool workers' fit logs, checked against the unit's logical count: sharing
        tree prefixes may lower the trees built to the trees needed, no further."""
        from tracer import subtree
        from workloads import tree_counts

        traced = [u for u in self.units if u["traced"]]
        roots = [s for s in self.tracer.spans if s["name"] == "bench.unit"]
        if not traced or not roots:
            return
        records = [s["attrs"] for s in subtree(self.tracer.spans, roots[0])
                   if s["name"] == "gbt.fit"] + traced[0]["worker_fits"]
        self.tree_counts = tree_counts(records)
        logical = traced[0]["counts"].get("gbt.logical_trees", 0)
        c = self.tree_counts
        ok = c["needed"] <= c["built"] <= logical
        self.ops.append(("trees_built_between_needed_and_logical", ok,
                         "" if ok else f"{c} against {logical} logical trees"))

    def per_layer(self, kernel_samples: dict, startup: list[float]) -> dict[str, float]:
        from tracer import duration, self_times, subtree

        spans = self.tracer.spans
        selfs = self_times(spans)
        byid = {s["id"]: s for s in spans}
        roots: dict[str, list] = {"bench.setup": [], "bench.unit": []}
        for s in spans:
            if s["parent"] is None:
                roots.setdefault(s["name"], []).append(s)
        groups = {k: [subtree(spans, r) for r in v] for k, v in roots.items()}
        unit_spans = [s for g in groups["bench.unit"] for s in g]

        def self_of(s):
            return selfs[s["id"]]

        def med_sum(kind, pred, f=duration):
            return median(sum(f(s) for s in g if pred(s)) for g in groups[kind])

        def both(pred, f=duration):
            return med_sum("bench.setup", pred, f) + med_sum("bench.unit", pred, f)

        def named(*names):
            return lambda s: s["name"] in names

        def per_unit_stat(name, stat):
            vals = [[duration(s) for s in g if s["name"] == name] for g in groups["bench.unit"]]
            return median(stat(v) for v in vals if v)

        def under_train(s):
            while s["parent"] is not None:
                s = byid[s["parent"]]
                if s["name"] == "tuning.train":
                    return True
            return False

        fast_fwd = [s for s in unit_spans if s["name"] == "rnn.forward_batch" and not s["attrs"]["exact"]]
        bwd = [s for s in unit_spans if s["name"] == "rnn.backward_batch"]
        preds = [s for s in unit_spans if s["name"] == "rnn.predict_batch"]
        trains = [s for s in unit_spans if s["name"] == "tuning.train"]
        traced_units = [u for u in self.units if u["traced"]]
        plain_units = [u for u in self.units[1:] if not u["traced"]]
        counts = self.units[0]["counts"] if self.units else {}

        def gflops(group):
            secs = sum(duration(s) for s in group)
            return sum(s["attrs"]["flops"] for s in group) / secs / 1e9 if secs else 0.0

        load_s = both(named("dataset.load_csv"))
        cells = both(named("dataset.load_csv"), lambda s: s["attrs"]["cells"])
        m = {
            "dataset.generate_s": both(named("dataset.generate")),
            "dataset.write_csv_s": both(named("dataset.write_csv")),
            "dataset.load_csv_s": load_s,
            "dataset.load_csv_cells_per_s": cells / load_s if load_s else 0.0,
            "dataset.load_csv_cells": cells,
            "dataset.prepare_s": both(lambda s: s["name"].startswith("dataset.prepare.")),
            "gbt.trees_built": self.tree_counts.get("built", 0),
            "gbt.predict_s": med_sum("bench.unit", named("gbt.predict")),
            "rfecv.config_s.p50": per_unit_stat("rfecv.rfecv_run", statistics.median),
            "rfecv.config_s.max": per_unit_stat("rfecv.rfecv_run", max),
            "rfecv.fits": self.tree_counts.get("fits", 0),
            "rfecv.fit_self_s": med_sum("bench.unit", named("rfecv.rfecv_run"), self_of),
            "rfecv.useful_tree_frac": (self.tree_counts["needed"] / self.tree_counts["built"]
                                       if self.tree_counts.get("built") else 0.0),
            "rnn.forward_ms": 1000.0 * median(duration(s) for s in fast_fwd),
            "rnn.backward_ms": 1000.0 * median(duration(s) for s in bwd),
            "rnn.fwd_gflops": gflops(fast_fwd),
            "rnn.bwd_gflops": gflops(bwd),
            "rnn.exact_ms_per_kwindow": (1e6 * sum(duration(s) for s in preds)
                                         / sum(s["attrs"]["windows"] for s in preds)) if preds else 0.0,
            "tuning.adam_ms": 1000.0 * median(duration(s) for s in unit_spans
                                              if s["name"] == "tuning.adam_step"),
            "tuning.loop_self_frac": (sum(self_of(s) for s in trains)
                                      / sum(duration(s) for s in trains)) if trains else 0.0,
            "tuning.train_s.p50": per_unit_stat("tuning.train", statistics.median),
            "tuning.train_s.max": per_unit_stat("tuning.train", max),
            "tuning.eval_s": med_sum("bench.unit", lambda s: s["name"] in (
                "rnn.predict_batch", "metrics.evaluate") and under_train(s)),
            "tuning.checkpoint_save_ms": 1000.0 * median(
                duration(s) for s in spans if s["name"] == "tuning.checkpoint_save"),
            "tuning.checkpoint_load_ms": 1000.0 * median(
                duration(s) for s in spans if s["name"] == "tuning.checkpoint_load"),
            "tuning.checkpoint_bytes": median(
                s["attrs"]["bytes"] for s in spans if s["name"] == "tuning.checkpoint_save"),
            "tuning.epochs": counts.get("tuning.epochs", 0),
            "tuning.grid_points": counts.get("tuning.grid_points", 0),
            "tuning.failed_points": counts.get("tuning.failed_points", 0),
            "cli.startup_s": median(startup),
            "cli.generate_s": med_sum("bench.setup", named("cli.generate")),
            "cli.select_features_s": med_sum("bench.unit", named("cli.select_features")),
            "cli.tune_s": med_sum("bench.unit", named("cli.tune")),
            "cli.predict_s": med_sum("bench.unit", named("cli.predict")),
            "cli.self_s": both(named(*CLI_COMMANDS), self_of),
            "trace.overhead_s": (median(u["wall_s"] for u in traced_units)
                                 - median(u["wall_s"] for u in plain_units)),
        }
        for name, samples in kernel_samples.items():
            m[name] = median(samples)
        for name, _, _, _ in PER_LAYER:
            m.setdefault(name, 0.0)
        return {name: float(m[name]) for name, _, _, _ in PER_LAYER}

    def layer_self_s(self) -> dict[str, float]:
        """Median over traced units of each layer's self time."""
        from tracer import self_times, subtree

        spans = self.tracer.spans
        selfs = self_times(spans)
        per_unit = []
        for root in (s for s in spans if s["name"] == "bench.unit"):
            totals = dict.fromkeys(LAYERS, 0.0)
            for s in subtree(spans, root):
                layer = s["name"].split(".", 1)[0]
                totals[layer] = totals.get(layer, 0.0) + selfs[s["id"]]
            per_unit.append(totals)
        return {k: median(t[k] for t in per_unit) for k in LAYERS}


def use_checkout() -> bool:
    """Import the package from the checkout's `src/`, in this process and its children."""
    if not (SRC / "pue_forecast" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'pue_forecast'}; run from a checkout root",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    os.environ.setdefault("PUE_FORECAST_LOG", "warning")
    return True


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    import kernels

    env = environment(args.seed)
    run = Run(args)
    kernel_samples: dict[str, list[float]] = {}
    startup: list[float] = []
    try:
        if args.trace:
            instrument(run.tracer)
        budget = args.seconds
        if args.trace:
            # kernels count against --seconds, so a traced run lasts as long as an untraced one
            t0 = time.perf_counter()
            startup = [run._timed_subprocess(["-m", "pue_forecast.cli", "--version"])
                       for _ in range(3)]
            if args.workload == "train_bigru":
                kernel_samples = kernels.rnn_kernels(args.seed)
            else:
                kernel_samples = kernels.gbt_kernels(args.seed)
            budget -= time.perf_counter() - t0
        run.measure(bool(args.trace), budget)
        run.ops.extend(run.wl.run_checks(run.units))
        if args.trace:
            run.count_trees()
    except Exception:  # the run stops; the failure is counted and reported
        run.ops.append(("run_completed", False, traceback.format_exc()[-2000:]))
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = len(run.ops)
    failed = sum(1 for _, ok, _ in run.ops if not ok)
    correct = failed == 0 and bool(run.units)
    e2e = run.end_to_end()
    e2e["failed_frac"] = failed / attempted if attempted else 1.0
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "environment": env,
        "units": len(run.units),
        "unit_wall_s": [u["wall_s"] for u in run.units],
        "setup_s_samples": run.setup_times,
        "counts": run.units[0]["counts"] if run.units else {},
        "tree_counts": run.tree_counts,
        "quality": run.units[0]["quality"] if run.units else {},
        "fingerprints": run.units[0]["fingerprints"] if run.units else {},
        "reference": "seed in table" if run.wl.reference else "seed not in reference table",
        "failed_checks": [(n, d) for n, ok, d in run.ops if not ok],
        "end_to_end": e2e,
    }

    print(f"{args.workload} seed={args.seed} units={len(run.units)} trace={args.trace}")
    if args.trace:
        metrics = run.per_layer(kernel_samples, startup)
        detail["per_layer"] = metrics
        detail["layer_self_s"] = run.layer_self_s()
        detail["wrapped"] = run.tracer.wrapped
        detail["kernels_vs_baseline"] = kernels.compare(kernel_samples)
        for name, unit, _, moves in PER_LAYER:
            print(f"  {name:32s} {fmt(metrics[name]):>14s} {unit:9s} moves {moves}")
        print("  layer self time (s, median traced unit): "
              + ", ".join(f"{k}={v:.4g}" for k, v in detail["layer_self_s"].items()))
        print(f"  tracing overhead: {metrics['trace.overhead_s']:.4g} s per unit "
              "(traced minus untraced, both in-process); work inside --workers 2 "
              "children is untraced, and only their gbt fits are counted")
        for row in detail["kernels_vs_baseline"]:
            flag = "DISCREPANCY" if row["discrepancy"] else "within spread"
            print(f"  kernel {row['kernel']}: {row['median']:.4g} ms (spread {row['spread']:.3g}, "
                  f"{row['reps']} reps) vs baseline {row['baseline']:.4g} ms, "
                  f"ratio {row['ratio']:.3f}: {flag}")
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        run.tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = {k: e2e[k] for k in ALWAYS}
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, unit, better in END_TO_END:
            value = fmt(e2e[name]) if name in e2e else "n/a on this workload"
            print(f"  {name:24s} {value:>22s} {unit:9s} ({better} is better)")
    if not correct:
        print("  FAILED: " + "; ".join(n for n, _ in detail["failed_checks"]))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str),
                                            encoding="utf-8")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    from supervise import CHILD_ENV, supervise

    if os.environ.get(CHILD_ENV) == "1":
        sys.exit(main())
    sys.exit(supervise(__file__, sys.argv[1:]))

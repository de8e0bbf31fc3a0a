"""Command-line pipeline: generate -> select-features -> tune -> predict.

Every command writes a JSON manifest alongside its outputs recording the
resolved flags, seeds, paths and wall-clock duration; re-running a command
with the manifest's flags reproduces the data outputs bitwise. All randomness
flows from explicit --seed flags. The PUE_FORECAST_LOG environment variable
(debug / info / warning / error) controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .dataset import (
    LOG_FORMAT,
    TARGET_COLUMN,
    TIMESTAMP_COLUMN,
    Dataset,
    denormalize_target,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    normalize,
    split_chronological,
    window,
    write_csv,
    write_rows,
)
from .rfecv import (
    DEFAULT_LR_GRID,
    DEFAULT_MAX_DEPTH_GRID,
    DEFAULT_N_ESTIMATORS_GRID,
    load_feature_sets,
    rfecv_grid,
    write_mse_curve_csv,
    write_results_json,
)
from .tuning import (
    DEFAULT_HIDDEN_GRID,
    DEFAULT_LAYERS_GRID,
    DEFAULT_LR_GRID as DEFAULT_TUNE_LR_GRID,
    Checkpoint,
    grid_search,
)

log = logging.getLogger(__name__)


def _ranged(convert, ok, reason: str):
    """An argparse type: `convert` the flag's text, then reject a value that
    fails `ok` as "<text> <reason>", which argparse prefixes with the flag."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} {reason}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


_positive_int = _ranged(int, lambda v: v >= 1, "is not a positive integer")
_non_negative_int = _ranged(int, lambda v: v >= 0, "is negative")
_fold_count = _ranged(int, lambda v: v >= 2, "is fewer than 2 folds")
_fraction = _ranged(float, lambda v: 0.0 < v < 1.0, "is not in (0, 1)")
_channel_count = _ranged(int, lambda v: v >= 3, "is fewer than the 3 channels of IT "
                         "power, cooling power and outdoor temperature")
_boost_lr = _ranged(float, lambda v: math.isfinite(v) and v > 0,
                    "is not a finite learning rate above 0")
_adam_lr = _ranged(float, lambda v: math.isfinite(v) and v >= 0,
                   "is not a finite learning rate of at least 0")
_clip_norm = _ranged(float, lambda v: v > 0, "is not above 0")  # inf: never clip; nan fails


def _setup_logging() -> None:
    name = os.environ.get("PUE_FORECAST_LOG", "warning").strip().lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(name, logging.WARNING)
    logging.basicConfig(level=level, format=LOG_FORMAT)


Manifest = tuple[Path, list[str], list[str]]  # (manifest path, inputs, outputs)


def cmd_generate(args: argparse.Namespace) -> Manifest:
    ds = generate_synthetic(args.samples, args.informative, args.noise, args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out)
    log.info("wrote %d samples x %d features to %s", ds.n_samples, ds.n_features, out)
    return Path(str(out) + ".manifest.json"), [], [str(out)]


def cmd_select_features(args: argparse.Namespace) -> Manifest:
    ds = load_csv(args.input)
    if ds.n_features < 2:
        raise ValueError(f"{args.input}: {ds.n_features} feature column(s); "
                         "select-features needs at least 2")
    train_ds, _test_ds = split_chronological(ds, args.split)
    if args.folds > train_ds.n_samples:
        raise ValueError(
            f"--folds {args.folds} exceeds the {train_ds.n_samples} training rows "
            f"that --split {args.split} leaves of {ds.n_samples} rows"
        )
    norm = fit_normalizer(ds if args.fit_on_all else train_ds)
    nds = normalize(train_ds, norm)
    results = rfecv_grid(
        nds,
        lr_grid=tuple(args.lr),
        n_estimators_grid=tuple(args.trees),
        max_depth_grid=tuple(args.depth),
        top_k=args.top_k,
        step=args.step,
        folds=args.folds,
        seed=args.seed,
        workers=args.workers,
    )
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    sets_path = outdir / "feature_sets.json"
    curve_path = outdir / "mse_by_count.csv"
    write_results_json(results, sets_path)
    write_mse_curve_csv(results, curve_path)
    log.info("kept %d feature sets in %s", len(results), sets_path)
    return outdir / "manifest.json", [args.input], [str(sets_path), str(curve_path)]


def _require_columns(ds: Dataset, path: str, names: list[str], user: str) -> None:
    """Fail naming the CSV at `path` and `user` when `ds` lacks a column of `names`."""
    missing = [c for c in names if c not in ds.feature_names]
    if missing:
        raise ValueError(f"{path}: missing feature column(s) required by {user}: {missing}")


def cmd_tune(args: argparse.Namespace) -> Manifest:
    if args.eval_every > args.max_epochs:
        raise ValueError(f"--eval-every {args.eval_every} exceeds --max-epochs {args.max_epochs}")
    ds = load_csv(args.input)
    if ds.n_features < 1:
        raise ValueError(f"{args.input}: no feature column; tune needs at least 1")
    # training needs one window; the held-out metrics need two
    parts = zip(("training", "held-out"), split_chronological(ds, args.split), (1, 2))
    for part, rows, need in parts:
        most = rows.n_samples - need + 1
        if most < 1:
            raise ValueError(
                f"--split {args.split} leaves the {part} partition {rows.n_samples} of "
                f"{ds.n_samples} rows, too few to cut {need} windows of any --window length"
            )
        if args.window > most:
            raise ValueError(
                f"--window {args.window} exceeds {most}, the longest that cuts {need} "
                f"window(s) from the {rows.n_samples} rows of the {part} partition that "
                f"--split {args.split} leaves of {ds.n_samples} rows"
            )
    if args.features:
        feature_sets = load_feature_sets(args.features)
        for i, names in enumerate(feature_sets):
            _require_columns(ds, args.input, names, f"{args.features} entry {i}")
    else:
        feature_sets = [list(ds.feature_names)]
    report = grid_search(
        ds,
        feature_sets,
        mode=args.mode,
        layers_grid=tuple(args.layers),
        hidden_grid=tuple(args.hidden),
        lr_grid=tuple(args.lr),
        window_length=args.window,
        train_fraction=args.split,
        max_epochs=args.max_epochs,
        eval_every=args.eval_every,
        seed=args.seed,
        workers=args.workers,
        fit_on_all=args.fit_on_all,
        pue_units=args.pue_units,
        checkpoint_on_train_loss=args.checkpoint_on_train_loss,
        grad_clip=args.grad_clip,
    )
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "tune_report.csv"
    records_path = outdir / "tune_records.csv"
    report.to_csv(report_path)
    report.to_records_csv(records_path)
    outputs = [str(report_path), str(records_path)]
    for w in report.winners():
        ckpt_path = outdir / f"checkpoint_{w.feature_set_label}.json"
        report.checkpoints[w.feature_set_index].save(ckpt_path)
        outputs.append(str(ckpt_path))
    n_failed = sum(1 for r in report.records if r.failed)
    if n_failed == len(report.records):
        raise RuntimeError(
            f"all {n_failed} configs failed, no checkpoint written; "
            f"first error: {report.records[0].error}"
        )
    if n_failed:
        log.warning("%d of %d configs failed", n_failed, len(report.records))
    inputs = [args.input] + ([args.features] if args.features else [])
    return outdir / "manifest.json", inputs, outputs


def cmd_predict(args: argparse.Namespace) -> Manifest:
    ckpt = Checkpoint.load(args.checkpoint)
    ds = load_csv(args.input)
    _require_columns(ds, args.input, ckpt.feature_names, "the checkpoint")
    sub = ds.select(ckpt.feature_names)
    nds = normalize(sub, ckpt.normalization)
    W = ckpt.config.window
    if nds.n_samples < W:
        raise ValueError(
            f"{args.input}: {nds.n_samples} rows is shorter than the "
            f"checkpoint window length {W}"
        )
    ws = window(nds, W)
    preds = denormalize_target(ckpt.predict(ws.windows), ckpt.normalization)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = [TIMESTAMP_COLUMN, f"predicted_{TARGET_COLUMN}"]
    write_rows(out, header, zip(nds.timestamps[W - 1 :], preds.tolist()))
    log.info("wrote %d predictions to %s", ws.n_windows, out)
    return Path(str(out) + ".manifest.json"), [args.checkpoint, args.input], [str(out)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pue-forecast",
        description="PUE prediction pipeline: synthetic telemetry, RFECV feature "
        "selection, GRU/BiGRU training and prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic telemetry CSV")
    p.add_argument("--samples", "-n", type=_positive_int, default=5000)
    p.add_argument("--informative", type=_channel_count, default=8)
    p.add_argument("--noise", type=_non_negative_int, default=24)
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "select-features", help="rank feature subsets with RFECV over the estimator grid"
    )
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output-dir", "-o", default="rfecv_out")
    p.add_argument("--top-k", type=_positive_int, default=6)
    p.add_argument("--step", type=_positive_int, default=1)
    p.add_argument("--folds", type=_fold_count, default=5)
    p.add_argument("--split", type=_fraction, default=0.8)
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="recorded in the manifest; selection is deterministic and "
                   "does not use it")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--fit-on-all", action="store_true",
                   help="fit the normalizer on all rows instead of the training split")
    p.add_argument("--lr", type=_boost_lr, nargs="+", default=list(DEFAULT_LR_GRID))
    p.add_argument("--trees", type=_positive_int, nargs="+",
                   default=list(DEFAULT_N_ESTIMATORS_GRID))
    p.add_argument("--depth", type=_positive_int, nargs="+",
                   default=list(DEFAULT_MAX_DEPTH_GRID))
    p.set_defaults(func=cmd_select_features)

    p = sub.add_parser("tune", help="grid-search GRU/BiGRU over selected feature sets")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--features", "-f", default=None,
                   help="feature_sets.json from select-features; default: all columns")
    p.add_argument("--mode", choices=("gru", "bigru"), default="bigru")
    p.add_argument("--layers", type=_positive_int, nargs="+",
                   default=list(DEFAULT_LAYERS_GRID))
    p.add_argument("--hidden", type=_positive_int, nargs="+",
                   default=list(DEFAULT_HIDDEN_GRID))
    p.add_argument("--lr", type=_adam_lr, nargs="+", default=list(DEFAULT_TUNE_LR_GRID))
    p.add_argument("--window", type=_positive_int, default=6)
    p.add_argument("--split", type=_fraction, default=0.8)
    p.add_argument("--max-epochs", type=_positive_int, default=4000)
    p.add_argument("--eval-every", type=_positive_int, default=500)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--fit-on-all", action="store_true")
    p.add_argument("--pue-units", action="store_true",
                   help="report MSE/MAE in PUE units instead of normalized units")
    p.add_argument("--checkpoint-on-train-loss", action="store_true",
                   help="checkpoint on training loss improvements (per epoch) "
                   "instead of held-out MSE at evaluation points")
    p.add_argument("--grad-clip", type=_clip_norm, default=None,
                   help="global L2 gradient clipping threshold")
    p.add_argument("--output-dir", "-o", default="tune_out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="predict PUE from a checkpoint and telemetry CSV")
    p.add_argument("--checkpoint", "-c", required=True)
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, then write its manifest; a failed command writes none."""
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        path, inputs, outputs = args.func(args)
        doc = {
            "command": args.command,
            "toolkit_version": __version__,
            "flags": {k: v for k, v in vars(args).items() if k != "func"},
            "seeds": [args.seed] if hasattr(args, "seed") else [],
            "inputs": inputs,
            "outputs": outputs,
            "duration_seconds": time.monotonic() - started,
        }
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    except Exception as exc:
        print(f"pue-forecast {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

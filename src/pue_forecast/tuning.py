"""Hyperparameter grid search: Adam-trained GRU/BiGRU runs with best-model checkpoints.

Training is full-batch: every epoch applies one Adam step with the gradient of
the mean squared error over all training windows, which rnn.TileRunner forms
window tile by window tile; the held-out evaluations run in the same runner's
workspaces. Held-out metrics are computed on a fixed cadence and the
checkpoint keeps the parameters of the best evaluation seen, never the final
epoch's weights.
"""

from __future__ import annotations

import base64
import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    NormalizationParams,
    WindowedSet,
    fit_normalizer,
    is_finite_number,
    normalize,
    read_json,
    require_fields,
    split_chronological,
    window,
    write_rows,
)
from .metrics import MetricsReport, evaluate
from .rnn import Model, TileRunner, backward_batch, forward_batch, init_params, predict_batch

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1
_CHECKPOINT_FIELDS = (
    "format_version", "config", "n_features", "shapes", "params_b64", "best_epoch",
    "best_loss", "metrics", "feature_names", "normalization",
)
_NORMALIZATION_FIELDS = (
    "feature_names", "feature_min", "feature_max", "target_min", "target_max",
)

DEFAULT_LAYERS_GRID = (1, 2, 3)
DEFAULT_HIDDEN_GRID = (10, 25, 50, 75, 100)
DEFAULT_LR_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss leaves the finite range."""

    def __init__(self, epoch: int, last_finite_loss: float):
        super().__init__(
            f"training loss became non-finite at epoch {epoch}; "
            f"last finite loss {last_finite_loss!r}"
        )
        self.epoch = epoch
        self.last_finite_loss = last_finite_loss


@dataclass(frozen=True)
class TrainConfig:
    """One grid point plus the loop constants."""

    layers: int
    hidden_dim: int
    learning_rate: float
    max_epochs: int = 4000
    eval_every: int = 500
    mode: str = "bigru"
    seed: int = 0
    window: int = 6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None
    checkpoint_on_train_loss: bool = False

    def __post_init__(self):
        if self.layers < 1 or self.hidden_dim < 1 or self.window < 1:
            raise ValueError("layers, hidden_dim and window must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate!r}"
            )
        if self.max_epochs < 1 or self.eval_every < 1:
            raise ValueError("max_epochs and eval_every must be positive")
        if self.eval_every > self.max_epochs:
            raise ValueError("eval_every must not exceed max_epochs")
        if self.mode not in ("gru", "bigru"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip!r}")


@dataclass(frozen=True)
class EvalRecord:
    epoch: int
    mse: float
    mae: float
    r2: float | None


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    moments: tuple[list[np.ndarray], list[np.ndarray]],
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list[np.ndarray], tuple[list[np.ndarray], list[np.ndarray]]]:
    """One bias-corrected Adam update, applied elementwise in place.

    `moments` is the pair (first, second) of running-moment arrays matching
    `params`; `t` is the 1-based step count.
    """
    if t < 1:
        raise ValueError("step count t must be >= 1")
    m, v = moments
    if not (len(params) == len(grads) == len(m) == len(v)):
        raise ValueError("params, grads and moments must have matching lengths")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, mi, vi in zip(params, grads, m, v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * (g * g)
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return params, (m, v)


@dataclass
class Checkpoint:
    """Serialized best model plus everything needed to reproduce its predictions."""

    config: TrainConfig
    n_features: int
    params: np.ndarray  # flat float64, row-major per shape manifest
    best_epoch: int
    best_loss: float
    metrics: dict
    feature_names: list[str] | None = None
    normalization: NormalizationParams | None = None

    @property
    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of each parameter array in payload order, from the config."""
        return [(n, a.shape) for n, a in _skeleton(self.config, self.n_features).param_items()]

    def to_model(self) -> Model:
        model = _skeleton(self.config, self.n_features)
        offset = 0
        for arr in model.param_arrays():
            arr[...] = self.params[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size
        if offset != self.params.size:
            raise ValueError(
                f"parameter payload has {self.params.size} values, expected {offset}"
            )
        return model

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return predict_batch(self.to_model(), windows)

    def save(self, path: str | Path) -> None:
        payload = np.ascontiguousarray(self.params, dtype="<f8").tobytes()
        doc = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": asdict(self.config),
            "n_features": self.n_features,
            "shapes": [[n, list(s)] for n, s in self.shapes],
            "params_b64": base64.b64encode(payload).decode("ascii"),
            "best_epoch": self.best_epoch,
            "best_loss": self.best_loss,
            "metrics": self.metrics,
            "feature_names": self.feature_names,
            "normalization": None if self.normalization is None else self.normalization.to_json(),
        }
        Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        """Read a checkpoint written by save; a malformed file raises ValueError
        naming the file and the field."""
        doc = read_json(path)
        require_fields(path, doc, _CHECKPOINT_FIELDS)
        if doc["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint format version {doc['format_version']!r}"
            )
        norm, metrics = doc["normalization"], doc["metrics"]
        if norm is not None:
            require_fields(path, norm, _NORMALIZATION_FIELDS, "normalization")
        require_fields(path, metrics, ("mse", "mae", "r2"), "field 'metrics'")
        config = _construct(path, "config", TrainConfig, doc["config"])
        n_features, epoch, loss = doc["n_features"], doc["best_epoch"], doc["best_loss"]
        mse, mae, r2 = metrics["mse"], metrics["mae"], metrics["r2"]
        checks = [
            ("n_features", n_features, type(n_features) is int and n_features > 0,
             "a positive int"),
            ("best_epoch", epoch, type(epoch) is int, "an int"),
            ("best_loss", loss, is_finite_number(loss), "a finite number"),
            ("metrics.mse", mse, is_finite_number(mse), "a finite number"),
            ("metrics.mae", mae, is_finite_number(mae), "a finite number"),
            ("metrics.r2", r2, r2 is None or is_finite_number(r2), "a finite number or null"),
        ]
        names = doc["feature_names"]
        lists = [] if names is None else [("feature_names", names)]
        if norm is not None:
            lists += [(f"normalization.{f}", norm[f])
                      for f in ("feature_names", "feature_min", "feature_max")]
        for f, v in lists:
            if f.endswith("feature_names"):
                ok = (isinstance(v, list) and all(isinstance(n, str) for n in v)
                      and len(set(v)) == len(v) == n_features)
                checks.append((f, v, ok, f"a list of {n_features} distinct strings"))
            else:
                checks.append((f, v, isinstance(v, list) and len(v) == n_features,
                               f"a list of {n_features} entries"))
        for name, value, ok, want in checks:
            if not ok:
                raise ValueError(f"{path}: field {name!r} must be {want}, got {value!r}")
        if norm is not None and names is not None and norm["feature_names"] != names:
            raise ValueError(
                f"{path}: field 'normalization.feature_names' {norm['feature_names']!r} "
                f"differs from field 'feature_names' {names!r}"
            )
        skeleton = _skeleton(config, n_features)
        want = [[n, list(a.shape)] for n, a in skeleton.param_items()]
        got = doc["shapes"] if isinstance(doc["shapes"], list) else [doc["shapes"]]
        if got != want:  # a missing entry reads as None
            i, g, w = next((i, g, w) for i, (g, w) in
                           enumerate(itertools.zip_longest(got, want)) if g != w)
            raise ValueError(f"{path}: field 'shapes' entry {i} is {g!r}; fields "
                             f"'config' and 'n_features' give {w!r}")
        try:
            payload = base64.b64decode(doc["params_b64"], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"{path}: field 'params_b64' is not base64: {exc}") from None
        expected = skeleton.n_params()
        if len(payload) != 8 * expected:
            raise ValueError(
                f"{path}: field 'params_b64' holds {len(payload)} bytes; the "
                f"shape manifest needs {expected} float64 values ({8 * expected} bytes)"
            )
        params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.isfinite(params).all():
            raise ValueError(f"{path}: field 'params_b64' contains non-finite values")
        normalization = None if norm is None else _construct(
            path, "normalization", NormalizationParams, {f: norm[f] for f in _NORMALIZATION_FIELDS})
        return Checkpoint(
            config=config,
            n_features=n_features,
            params=params,
            best_epoch=epoch,
            best_loss=loss,
            metrics=metrics,
            feature_names=names,
            normalization=normalization,
        )


def _construct(path: str | Path, field: str, cls: type, fields: dict):
    """cls(**fields) for a field of the checkpoint at `path`; a bad value raises
    ValueError naming the file and the field."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {field!r}: {exc}") from None


def _skeleton(config: TrainConfig, n_features: int) -> Model:
    """A model laid out as `config` gives for `n_features` inputs."""
    return init_params(n_features, config.hidden_dim, config.layers, config.mode, seed=0)


def _flat_params(model: Model) -> np.ndarray:
    return np.concatenate([a.ravel() for a in model.param_arrays()])


def train(
    ws_train: WindowedSet,
    ws_eval: WindowedSet,
    cfg: TrainConfig,
    feature_names: list[str] | None = None,
    normalization: NormalizationParams | None = None,
) -> tuple[Checkpoint, TrainHistory]:
    """Run one full-batch Adam training loop and return the best checkpoint.

    Held-out metrics are computed whenever the epoch is a multiple of
    cfg.eval_every; the checkpoint updates when the held-out MSE improves
    (or, with cfg.checkpoint_on_train_loss, whenever the training loss does).
    A non-finite loss raises TrainingDiverged.
    """
    if ws_train.n_windows < 1:
        raise ValueError("training set is empty")
    if ws_eval.n_windows < 2:
        raise ValueError("evaluation set needs at least two windows")
    if ws_train.window_length != cfg.window or ws_eval.window_length != cfg.window:
        raise ValueError(
            f"window length mismatch: config {cfg.window}, "
            f"train {ws_train.window_length}, eval {ws_eval.window_length}"
        )
    n_features = ws_train.windows.shape[2]
    model = init_params(n_features, cfg.hidden_dim, cfg.layers, cfg.mode, cfg.seed)
    params = model.param_arrays()
    m1 = [np.zeros_like(a) for a in params]
    m2 = [np.zeros_like(a) for a in params]

    X = ws_train.windows
    y = ws_train.targets
    B = ws_train.n_windows
    runner = TileRunner(model, cfg.window,
                        [(B, cfg.learning_rate > 0.0), (ws_eval.n_windows, False)])
    pred = np.empty(B)

    def tile(workspace, a: int, b: int) -> list[np.ndarray] | None:
        """Forward windows [a, b) and backpropagate their share of the loss
        while their caches are warm; returns their gradient arrays, or None
        without a learning rate or when their loss is not finite, which the
        epoch's loss check reports."""
        pred[a:b], cache = forward_batch(model, X[a:b], exact=False, workspace=workspace)
        err = pred[a:b] - y[a:b]
        with np.errstate(over="ignore", invalid="ignore"):  # the error state is per thread
            finite = math.isfinite(float(np.sum(err * err)))
        if cfg.learning_rate == 0.0 or not finite:
            return None
        return backward_batch(model, cache, 2.0 * err / B).param_arrays()

    history = TrainHistory()
    best_loss = np.inf
    best_epoch = -1
    best_params: np.ndarray | None = None
    best_metrics: MetricsReport | None = None
    last_finite = np.nan

    for epoch in range(1, cfg.max_epochs + 1):
        garrs = runner.run(B, tile)
        err = pred - y
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
            loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, last_finite)
        last_finite = loss
        history.train_loss.append(loss)
        if cfg.checkpoint_on_train_loss and loss < best_loss:  # the params that gave `loss`
            best_loss = loss
            best_epoch = epoch
            best_params = _flat_params(model)

        if garrs is not None:
            if cfg.grad_clip is not None:
                norm = float(np.sqrt(sum(float((g * g).sum()) for g in garrs)))
                if norm > cfg.grad_clip:
                    scale = cfg.grad_clip / norm
                    for g in garrs:
                        g *= scale
            adam_step(
                params, garrs, (m1, m2), t=epoch, lr=cfg.learning_rate,
                beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
            )

        if epoch % cfg.eval_every == 0:
            ev_pred = predict_batch(model, ws_eval.windows, runner)
            rep = evaluate(ws_eval.targets, ev_pred)
            history.evals.append(EvalRecord(epoch, rep.mse, rep.mae, rep.r2))
            log.debug(
                "epoch %d train_loss=%.6g eval_mse=%.6g", epoch, loss, rep.mse
            )
            if not cfg.checkpoint_on_train_loss and rep.mse < best_loss:
                best_loss = rep.mse
                best_epoch = epoch
                best_params = _flat_params(model)
                best_metrics = rep

    assert best_params is not None  # eval_every <= max_epochs guarantees one eval
    checkpoint = Checkpoint(
        config=cfg,
        n_features=n_features,
        params=best_params,
        best_epoch=best_epoch,
        best_loss=best_loss,
        metrics={},
        feature_names=feature_names,
        normalization=normalization,
    )
    if best_metrics is None:  # checkpointed on training loss: score the kept params
        best_metrics = evaluate(
            ws_eval.targets, predict_batch(checkpoint.to_model(), ws_eval.windows, runner))
    checkpoint.metrics = {
        "mse": best_metrics.mse, "mae": best_metrics.mae, "r2": best_metrics.r2
    }
    return checkpoint, history


@dataclass
class TuneRecord:
    """Outcome of one (feature set, grid point) training run."""

    feature_set_index: int
    feature_set_label: str
    n_features: int
    layers: int
    hidden_dim: int
    learning_rate: float
    n_params: int
    best_epoch: int | None = None
    mse: float | None = None
    mae: float | None = None
    r2: float | None = None
    failed: bool = False
    error: str | None = None


_REPORT_COLUMNS = "selected_features,layers,hidden,lr,epochs,mse,mae,r2".split(",")


def _rank(r: TuneRecord) -> tuple:
    return (r.mse, r.n_params)


def _report_cells(r: TuneRecord) -> list:
    return [r.n_features, r.layers, r.hidden_dim, r.learning_rate, r.best_epoch,
            r.mse, r.mae, "nan" if r.r2 is None else r.r2]


@dataclass
class TuneReport:
    """All grid records, in grid order, plus the winner checkpoint per feature set."""

    records: list[TuneRecord]
    checkpoints: dict[int, Checkpoint]

    def winners(self) -> list[TuneRecord]:
        """Best non-failed record per feature set, in set order: lowest MSE,
        ties to fewer parameters, then to the earlier grid point."""
        out: list[TuneRecord] = []
        for si in sorted({r.feature_set_index for r in self.records}):
            ok = [r for r in self.records if r.feature_set_index == si and not r.failed]
            if ok:
                out.append(min(ok, key=_rank))
        return out

    @property
    def best(self) -> TuneRecord | None:
        return min(self.winners(), key=_rank, default=None)

    def to_csv(self, path: str | Path) -> None:
        """One row per feature set: its winner."""
        write_rows(path, _REPORT_COLUMNS, [_report_cells(r) for r in self.winners()])

    def to_records_csv(self, path: str | Path) -> None:
        """One row per grid point, failed ones with their error message."""
        write_rows(
            path,
            ["feature_set"] + _REPORT_COLUMNS + ["n_params", "failed", "error"],
            [[r.feature_set_label, *_report_cells(r), r.n_params, int(r.failed), r.error]
             for r in self.records],
        )


@dataclass
class _Job:
    si: int
    label: str
    feature_names: list[str]
    ws_train: WindowedSet
    ws_eval: WindowedSet
    cfg: TrainConfig
    normalization: NormalizationParams
    pue_units: bool


def _run_job(job: _Job) -> tuple[TuneRecord, Checkpoint | None]:
    cfg = job.cfg
    n_feat = len(job.feature_names)
    rec = TuneRecord(
        feature_set_index=job.si,
        feature_set_label=job.label,
        n_features=n_feat,
        layers=cfg.layers,
        hidden_dim=cfg.hidden_dim,
        learning_rate=cfg.learning_rate,
        n_params=_skeleton(cfg, n_feat).n_params(),
    )
    try:
        ckpt, _history = train(
            job.ws_train,
            job.ws_eval,
            cfg,
            feature_names=job.feature_names,
            normalization=job.normalization,
        )
    except Exception as exc:  # a failed grid point is recorded, not fatal
        rec.failed = True
        if isinstance(exc, TrainingDiverged):
            rec.error = str(exc)
            if math.isfinite(exc.last_finite_loss):
                rec.mse = exc.last_finite_loss
        else:
            rec.error = f"{type(exc).__name__}: {exc}"
        return rec, None

    norm = job.normalization
    scale = norm.target_max - norm.target_min if job.pue_units else 1.0
    rec.best_epoch = ckpt.best_epoch
    rec.mse = ckpt.metrics["mse"] * scale * scale
    rec.mae = ckpt.metrics["mae"] * scale
    rec.r2 = ckpt.metrics["r2"]
    return rec, ckpt


def grid_search(
    ds: Dataset,
    feature_sets: list[list[str]],
    *,
    mode: str = "bigru",
    layers_grid: tuple[int, ...] = DEFAULT_LAYERS_GRID,
    hidden_grid: tuple[int, ...] = DEFAULT_HIDDEN_GRID,
    lr_grid: tuple[float, ...] = DEFAULT_LR_GRID,
    window_length: int = 6,
    train_fraction: float = 0.8,
    max_epochs: int = 4000,
    eval_every: int = 500,
    seed: int = 0,
    workers: int = 1,
    fit_on_all: bool = False,
    pue_units: bool = False,
    checkpoint_on_train_loss: bool = False,
    grad_clip: float | None = None,
) -> TuneReport:
    """Train every feature set x grid point and report the winners.

    Per feature set: project the dataset onto the set, split chronologically,
    fit the normalizer (training rows unless fit_on_all), normalize, window,
    then train one model per (layers, hidden, lr) grid point. Failed runs are
    recorded, not fatal. Results are assembled in grid order, so the report is
    identical for any worker count.
    """
    if not feature_sets:
        raise ValueError("need at least one feature set")
    if not (layers_grid and hidden_grid and lr_grid):
        raise ValueError("grids must be non-empty")

    jobs: list[_Job] = []
    for si, names in enumerate(feature_sets):
        sub = ds.select(list(names))
        train_ds, test_ds = split_chronological(sub, train_fraction)
        norm = fit_normalizer(sub if fit_on_all else train_ds)
        ws_tr = window(normalize(train_ds, norm), window_length)
        ws_te = window(normalize(test_ds, norm), window_length)
        label = f"set{si:02d}_n{len(names)}"
        grid = itertools.product(layers_grid, hidden_grid, lr_grid)
        for ci, (layers, hidden, lr) in enumerate(grid):
            cfg = TrainConfig(
                layers=layers,
                hidden_dim=hidden,
                learning_rate=lr,
                max_epochs=max_epochs,
                eval_every=eval_every,
                mode=mode,
                seed=seed + 1000 * si + ci,
                window=window_length,
                grad_clip=grad_clip,
                checkpoint_on_train_loss=checkpoint_on_train_loss,
            )
            jobs.append(
                _Job(si, label, list(names), ws_tr, ws_te, cfg, norm, pue_units)
            )

    if workers <= 1:
        outcomes = [_run_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            outcomes = list(pool.map(_run_job, jobs))

    report = TuneReport([rec for rec, _ in outcomes], {})
    ckpt_of = {id(rec): ckpt for rec, ckpt in outcomes}
    report.checkpoints = {w.feature_set_index: ckpt_of[id(w)] for w in report.winners()}
    return report

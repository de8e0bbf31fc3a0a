"""Hyperparameter grid search: Adam-trained GRU/BiGRU runs with best-model checkpoints.

Training is full-batch: every epoch applies one Adam step with the gradient of
the mean squared error over all training windows, which rnn.TileRunner forms
window tile by window tile; the held-out evaluations run in the same runner's
workspaces. Parameters, gradient and Adam moments are each one vector in
payload order, so a step is a few ufunc calls and a new best is one copy.
Held-out metrics are computed on a fixed cadence and the checkpoint keeps the
parameters of the best evaluation seen, never the final epoch's weights.
"""

from __future__ import annotations

import base64
import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    NormalizationParams,
    WindowedSet,
    fit_normalizer,
    is_finite_number,
    logging_at,
    normalize,
    read_json,
    require_fields,
    split_chronological,
    window,
    write_rows,
)
from .metrics import MetricsReport, evaluate
from .rnn import (Model, TileRunner, backward_batch, forward_batch, init_params, param_shapes,
                  predict_batch)

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
        for name in ("layers", "hidden_dim", "max_epochs", "eval_every", "seed", "window"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.layers < 1 or self.hidden_dim < 1 or self.window < 1:
            raise ValueError("layers, hidden_dim and window must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (is_finite_number(value) and 0 <= value < 1):
                raise ValueError(f"{name} must be a number in [0, 1), got {value!r}")
        if not (is_finite_number(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")
        if not (is_finite_number(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate!r}"
            )
        if self.max_epochs < 1 or self.eval_every < 1:
            raise ValueError("max_epochs and eval_every must be positive")
        if self.eval_every > self.max_epochs:
            raise ValueError("eval_every must not exceed max_epochs")
        if self.mode not in ("gru", "bigru"):
            raise ValueError(f"unknown mode {self.mode!r}")
        clip = self.grad_clip  # inf never clips; a bool is not a threshold
        if clip is not None and not (clip == math.inf or is_finite_number(clip) and clip > 0):
            raise ValueError(f"grad_clip must be None or a number above 0, got {clip!r}")
        if not isinstance(self.checkpoint_on_train_loss, bool):
            raise ValueError(
                f"checkpoint_on_train_loss must be a bool, got {self.checkpoint_on_train_loss!r}"
            )


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
    params: np.ndarray,
    grads: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One bias-corrected Adam update, applied elementwise in place.

    `moments` is the pair (first, second) of running-moment arrays shaped as
    `params`; `t` is the 1-based step count. `grads` is overwritten with the
    step subtracted from `params`, so the update allocates one temporary.
    """
    if t < 1:
        raise ValueError("step count t must be >= 1")
    m, v = moments
    if not (params.shape == grads.shape == m.shape == v.shape):
        raise ValueError(f"gradient or moment shape differs from parameter shape {params.shape}")
    tmp = np.multiply(grads, 1.0 - beta1)
    m *= beta1
    m += tmp
    np.multiply(grads, grads, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), in that rounding order
    np.divide(v, 1.0 - beta2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m, 1.0 - beta1**t, out=grads)
    grads *= lr
    grads /= tmp
    params -= grads
    return params, (m, v)


@dataclass
class Checkpoint:
    """Serialized best model plus everything needed to reproduce its predictions."""

    config: TrainConfig
    params: np.ndarray  # flat float64, row-major per shape manifest
    best_epoch: int
    best_loss: float
    metrics: dict
    normalization: NormalizationParams

    @property
    def feature_names(self) -> list[str]:
        """The model's input columns in input order."""
        return self.normalization.feature_names

    @property
    def n_features(self) -> int:
        return len(self.normalization.feature_names)

    @property
    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of each parameter array in payload order, from the config."""
        c = self.config
        return param_shapes(self.n_features, c.hidden_dim, c.layers, c.mode)

    def to_model(self) -> Model:
        """The model whose arrays view a copy of params."""
        c = self.config
        return Model(self.n_features, c.hidden_dim, c.layers, c.mode, self.params.copy())

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
            "normalization": self.normalization.to_json(),
        }
        Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        """Read a checkpoint written by save; a malformed file raises ValueError
        naming the file and the field."""
        doc = read_json(path)
        require_fields(path, doc, _CHECKPOINT_FIELDS)
        version = doc["format_version"]
        if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"{path}: field 'format_version' must be the int "
                             f"{CHECKPOINT_FORMAT_VERSION}, got {version!r}")
        norm, metrics = doc["normalization"], doc["metrics"]
        require_fields(path, norm, _NORMALIZATION_FIELDS, "field 'normalization'")
        require_fields(path, metrics, ("mse", "mae", "r2"), "field 'metrics'")
        config = _construct(path, "config", TrainConfig, doc["config"])
        normalization = _construct(path, "normalization", NormalizationParams,
                                   {f: norm[f] for f in _NORMALIZATION_FIELDS})
        names, n_features = normalization.feature_names, len(normalization.feature_names)
        count, epoch, loss = doc["n_features"], doc["best_epoch"], doc["best_loss"]
        mse, mae, r2 = metrics["mse"], metrics["mae"], metrics["r2"]
        checks = [
            ("n_features", count, type(count) is int and count == n_features,
             f"{n_features}, the length of 'normalization.feature_names'"),
            ("feature_names", doc["feature_names"], doc["feature_names"] == names,
             f"{names!r}, as in 'normalization.feature_names'"),
            ("best_epoch", epoch, type(epoch) is int, "an int"),
            ("best_loss", loss, is_finite_number(loss), "a finite number"),
            ("metrics.mse", mse, is_finite_number(mse), "a finite number"),
            ("metrics.mae", mae, is_finite_number(mae), "a finite number"),
            ("metrics.r2", r2, r2 is None or is_finite_number(r2), "a finite number or null"),
        ]
        for name, value, ok, want in checks:
            if not ok:
                raise ValueError(f"{path}: field {name!r} must be {want}, got {value!r}")
        shapes = param_shapes(n_features, config.hidden_dim, config.layers, config.mode)
        want = [[n, list(s)] for n, s in shapes]
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
        expected = sum(math.prod(s) for _, s in shapes)
        if len(payload) != 8 * expected:
            raise ValueError(
                f"{path}: field 'params_b64' holds {len(payload)} bytes; the "
                f"shape manifest needs {expected} float64 values ({8 * expected} bytes)"
            )
        params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.isfinite(params).all():
            raise ValueError(f"{path}: field 'params_b64' contains non-finite values")
        return Checkpoint(
            config=config,
            params=params,
            best_epoch=epoch,
            best_loss=loss,
            metrics=metrics,
            normalization=normalization,
        )


def _construct(path: str | Path, field: str, cls: type, fields: dict):
    """cls(**fields) for a field of the checkpoint at `path`; a bad value raises
    ValueError naming the file and the field."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field {field!r}: {exc}") from None


def train(
    ws_train: WindowedSet,
    ws_eval: WindowedSet,
    cfg: TrainConfig,
    normalization: NormalizationParams,
) -> tuple[Checkpoint, TrainHistory]:
    """Run one full-batch Adam training loop and return the best checkpoint.

    Held-out metrics are computed whenever the epoch is a multiple of
    cfg.eval_every; the checkpoint updates when the held-out MSE improves
    (or, with cfg.checkpoint_on_train_loss, whenever the training loss does).
    Both window sets must be cfg.window steps long with one feature per name
    in `normalization`. A non-finite loss raises TrainingDiverged.
    """
    if ws_train.n_windows < 1:
        raise ValueError("training set is empty")
    if ws_eval.n_windows < 2:
        raise ValueError("evaluation set needs at least two windows")
    n_features = len(normalization.feature_names)
    want = (cfg.window, n_features)
    if ws_train.windows.shape[1:] != want or ws_eval.windows.shape[1:] != want:
        raise ValueError(
            f"window shape mismatch: config and normalization give (length, features) "
            f"{want}, train {ws_train.windows.shape[1:]}, eval {ws_eval.windows.shape[1:]}"
        )
    model = init_params(n_features, cfg.hidden_dim, cfg.layers, cfg.mode, cfg.seed)
    m1, m2 = np.zeros_like(model.params), np.zeros_like(model.params)

    X = ws_train.windows
    y = ws_train.targets
    B = ws_train.n_windows
    runner = TileRunner(model, cfg.window)
    pred = np.empty(B)

    def tile(workspace, a: int, b: int) -> np.ndarray | None:
        """Forward windows [a, b) and backpropagate their share of the loss
        while their caches are warm; returns their gradient vector, or None
        without a learning rate or when their loss is not finite, which the
        epoch's loss check reports."""
        pred[a:b], cache = forward_batch(model, X[a:b], exact=False, workspace=workspace)
        err = pred[a:b] - y[a:b]
        with np.errstate(over="ignore", invalid="ignore"):  # the error state is per thread
            finite = math.isfinite(float(np.sum(err * err)))
        if cfg.learning_rate == 0.0 or not finite:
            return None
        return backward_batch(model, cache, 2.0 * err / B).params

    history = TrainHistory()
    best_loss = np.inf
    best_epoch = -1
    best_params: np.ndarray | None = None
    best_metrics: MetricsReport | None = None
    last_finite = np.nan

    for epoch in range(1, cfg.max_epochs + 1):
        grads = runner.run(B, tile)
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
            best_params = model.params.copy()

        if grads is not None:
            if cfg.grad_clip is not None:
                # per-array sums added in Python: one whole-vector sum rounds differently
                views = replace(model, params=grads).param_arrays()
                norm = float(np.sqrt(sum(float((g * g).sum()) for g in views)))
                if norm > cfg.grad_clip:
                    grads *= cfg.grad_clip / norm
            adam_step(
                model.params, grads, (m1, m2), t=epoch, lr=cfg.learning_rate,
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
                best_params = model.params.copy()
                best_metrics = rep

    assert best_params is not None  # eval_every <= max_epochs guarantees one eval
    checkpoint = Checkpoint(
        config=cfg,
        params=best_params,
        best_epoch=best_epoch,
        best_loss=best_loss,
        metrics={},
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
    ws_train: WindowedSet
    ws_eval: WindowedSet
    cfg: TrainConfig
    normalization: NormalizationParams
    pue_units: bool


def _run_job(job: _Job) -> tuple[TuneRecord, Checkpoint | None]:
    cfg = job.cfg
    n_feat = len(job.normalization.feature_names)
    rec = TuneRecord(
        feature_set_index=job.si,
        feature_set_label=job.label,
        n_features=n_feat,
        layers=cfg.layers,
        hidden_dim=cfg.hidden_dim,
        learning_rate=cfg.learning_rate,
        n_params=sum(math.prod(s) for _, s in
                     param_shapes(n_feat, cfg.hidden_dim, cfg.layers, cfg.mode)),
    )
    norm = job.normalization
    scale = norm.target_max - norm.target_min if job.pue_units else 1.0
    try:
        ckpt, _history = train(job.ws_train, job.ws_eval, cfg, norm)
    except Exception as exc:  # a failed grid point is recorded, not fatal
        rec.failed = True
        if isinstance(exc, TrainingDiverged):
            rec.error = str(exc)
            if math.isfinite(exc.last_finite_loss):
                rec.mse = exc.last_finite_loss * scale * scale
        else:
            rec.error = f"{type(exc).__name__}: {exc}"
        return rec, None

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
                _Job(si, label, ws_tr, ws_te, cfg, norm, pue_units)
            )

    if min(workers, len(jobs)) <= 1:
        outcomes = [_run_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            outcomes = list(pool.map(partial(logging_at, log.getEffectiveLevel(), _run_job),
                                     jobs))

    report = TuneReport([rec for rec, _ in outcomes], {})
    ckpt_of = {id(rec): ckpt for rec, ckpt in outcomes}
    report.checkpoints = {w.feature_set_index: ckpt_of[id(w)] for w in report.winners()}
    return report

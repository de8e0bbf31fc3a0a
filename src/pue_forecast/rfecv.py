"""Recursive feature elimination with cross-validation, scored by the GBT estimator.

Each iteration scores the surviving feature set with k-fold CV (mean held-out
MSE), refits the estimator on all rows to rank features by accumulated split
gain, and drops the `step` least important ones until a single feature
remains. The fold fits and the all-rows fit of one count are grown together
as the roots of one tree build, each bitwise equal to fitting it alone.
Folds are contiguous chronological blocks, suiting time-series rows.
Sweeping the estimator grid yields candidate feature sets ranked by their
best-count CV MSE.

The sweep runs the configs that share (learning_rate, max_depth, reg_lambda)
together, one such group per job. Boosting has no subsampling and no early
stopping, so a config with fewer trees fits exactly the leading trees of one
with more (`GbtModel.first`): at every feature count, the configs whose
surviving features agree share one build of the largest tree count, and
each scores and ranks with its own count's leading trees, bitwise equal to
separate fits. Gain importance is summed from the trees' split nodes.

Each count after the first may take the leading trees of the previous
count's fit. Exact greedy split search scores every column on its own and
the winner is the first maximum, so a column that wins no split never
changes a tree. Every fit's trees name the dataset's columns, so when the
previous fit has at least this count's largest tree count and none of
those leading trees splits on a dropped column in this count's roots (the
folds and, above one feature, all rows), they are taken as they are, and
nothing is grown; otherwise the count is fitted afresh. Results are bitwise
equal to fitting every count from scratch. It pays for shallow,
low-learning-rate groups with many unused columns, whose trees keep to the
same few columns, at any `step`; deep trees soon split on almost every
column, so there it rarely applies.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .dataset import Dataset, logging_at, read_json, require_fields, write_rows
from .gbt import GbtConfig, _fit_core, _presort, gbt_importance, gbt_predict

log = logging.getLogger(__name__)

DEFAULT_LR_GRID = (0.5, 0.75, 0.1, 0.075, 0.05)
DEFAULT_N_ESTIMATORS_GRID = (50, 100, 150, 200, 250)
DEFAULT_MAX_DEPTH_GRID = (3, 6, 9, 12)


@dataclass
class RfecvResult:
    """Elimination trace and the CV-optimal feature subset for one estimator config."""

    elimination_order: list[int]
    cv_mse_by_count: dict[int, float]
    best_count: int
    selected_features: list[str]
    estimator_config: GbtConfig

    @property
    def best_mse(self) -> float:
        return self.cv_mse_by_count[self.best_count]


def make_folds(n: int, folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous chronological blocks: disjoint, exhaustive, sizes within 1."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > n:
        raise ValueError(f"cannot build {folds} folds from {n} samples")
    blocks = np.array_split(np.arange(n), folds)  # the first n % folds one row longer
    return [(np.concatenate(blocks[:i] + blocks[i + 1 :]), val) for i, val in enumerate(blocks)]


def rfecv_run(
    ds: Dataset,
    estimator_config: GbtConfig,
    step: int = 1,
    folds: int = 5,
    seed: int = 0,
) -> RfecvResult:
    """Eliminate features one batch at a time, CV-scoring every visited count.

    Importances for elimination come from a fit on all rows of `ds` with the
    surviving features; ties eliminate the lowest feature index first. The
    best count is the CV-MSE argmin, ties resolved toward fewer features.
    `seed` is accepted for interface stability; the procedure is deterministic.
    """
    return _rfecv_group(ds, [estimator_config], step, folds)[0]


def _rfecv_group(
    ds: Dataset, configs: list[GbtConfig], step: int, folds: int
) -> list[RfecvResult]:
    """rfecv_run for configs sharing (learning_rate, max_depth, reg_lambda).

    All configs visit the same feature counts. At each count, the configs
    whose surviving features agree form one group, and one `_fit_core` call
    grows the group's largest tree count; its trees are routed once per fold
    to score every member's count, and each config then eliminates on the
    importance of its own count's leading trees. The folds' training rows and
    (above one feature) all rows are one stacked root each, held feature-major
    and presorted once; every call takes column slices of both, passing the
    values as a transposed view, and its trees' column ids are then mapped to
    the dataset's. A group may instead take the leading trees of the fit that
    scored its first member's previous count (see the module docstring), and
    one info line reports the counts visited and the tree rounds grown and
    reused.
    """
    if ds.n_features < 2:
        raise ValueError("need at least 2 features")
    if step < 1:
        raise ValueError("step must be positive")
    lr, depth, lam = configs[0].learning_rate, configs[0].max_depth, configs[0].reg_lambda
    fold_list = make_folds(ds.n_samples, folds)

    X, y = ds.X, ds.y
    roots = [tr for tr, _ in fold_list] + [np.arange(ds.n_samples)]
    sizes = [len(rows) for rows in roots]
    stacked = np.concatenate(roots)
    values, y_all = np.take(X.T, stacked, axis=1), y[stacked]  # [features, rows]
    presort = _presort(values.T, sizes)
    held_out = [(X[va], y[va]) for _, va in fold_list]

    actives = [list(range(ds.n_features)) for _ in configs]
    orders: list[list[int]] = [[] for _ in configs]
    mses: list[dict[int, float]] = [{} for _ in configs]
    # per config, the models of the fit that scored its last count
    last_fit: list[list | None] = [None] * len(configs)
    visited: list[int] = []
    grown = reused = 0
    count = ds.n_features
    while True:
        visited.append(count)
        # the last count is not ranked, so it needs no importance fit
        n_roots = folds if count == 1 else folds + 1
        m = sum(sizes[:n_roots])
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, active in enumerate(actives):
            groups.setdefault(tuple(active), []).append(i)
        for active, members in groups.items():
            ids = np.array(active + (-1,))  # feature -1 marks a leaf
            cols = ids[:-1]
            trees = [configs[i].n_estimators for i in members]
            n = max(trees)
            # take the first n trees of the fit that scored a member's last
            # count when it has them and none splits on a dropped column
            models = last_fit[members[0]]
            kept = np.zeros(ds.n_features + 1, dtype=bool)
            kept[ids] = True
            if models is not None and len(models[0].trees) >= n and all(
                kept[t.feature].all() for model in models[:n_roots] for t in model.trees[:n]
            ):
                models = [model.first(n) for model in models[:n_roots]]
                reused += n
            else:
                try:
                    models = _fit_core(
                        values[cols, :m].T, y_all[:m], n, lr, depth, lam,
                        presort[cols, :m], sizes[:n_roots],
                    )
                except Exception as exc:
                    raise RuntimeError(
                        f"estimator failed at feature count {count}: {exc}"
                    ) from exc
                for model in models:
                    model.n_features = ds.n_features
                    for t in model.trees:
                        t.feature = ids[t.feature]  # the last slot keeps leaves at -1
                grown += n
            for i in members:
                last_fit[i] = models
            fold_preds = [
                (gbt_predict(model, Xva, trees), yva)
                for model, (Xva, yva) in zip(models, held_out)
            ]
            for j, (i, n_trees) in enumerate(zip(members, trees)):
                fold_mses = [
                    float(np.mean((preds[j] - yva) ** 2)) for preds, yva in fold_preds
                ]
                mses[i][count] = float(np.mean(fold_mses))
                log.debug(
                    "count=%d cv_mse=%.6g config=%s", count, mses[i][count], configs[i]
                )
                if count == 1:
                    continue
                imp = gbt_importance(models[folds].first(n_trees))[cols]
                keep = np.ones(count, dtype=bool)
                keep[np.argsort(imp, kind="stable")[: min(step, count - 1)]] = False
                orders[i] += cols[~keep].tolist()
                actives[i] = cols[keep].tolist()
        if count == 1:
            break
        count = len(actives[0])
    log.info(
        "rfecv lr=%g depth=%d: counts %s; grew %d tree rounds, reused %d",
        lr, depth, ",".join(map(str, visited)), grown, reused,
    )

    results = []
    for cfg, order, by_count in zip(configs, orders, mses):
        best_count = min(by_count, key=lambda c: (by_count[c], c))
        eliminated = set(order[: ds.n_features - best_count])
        selected = [
            ds.feature_names[i] for i in range(ds.n_features) if i not in eliminated
        ]
        results.append(RfecvResult(
            elimination_order=order,
            cv_mse_by_count=by_count,
            best_count=best_count,
            selected_features=selected,
            estimator_config=cfg,
        ))
    return results


def expand_grid(
    lr_grid=DEFAULT_LR_GRID,
    n_estimators_grid=DEFAULT_N_ESTIMATORS_GRID,
    max_depth_grid=DEFAULT_MAX_DEPTH_GRID,
) -> list[GbtConfig]:
    """Enumerate estimator configs, learning rate outermost."""
    return [
        GbtConfig(learning_rate=lr, n_estimators=n, max_depth=d)
        for lr in lr_grid
        for n in n_estimators_grid
        for d in max_depth_grid
    ]


def rfecv_grid(
    ds: Dataset,
    lr_grid=DEFAULT_LR_GRID,
    n_estimators_grid=DEFAULT_N_ESTIMATORS_GRID,
    max_depth_grid=DEFAULT_MAX_DEPTH_GRID,
    top_k: int = 6,
    step: int = 1,
    folds: int = 5,
    seed: int = 0,
    workers: int = 1,
) -> list[RfecvResult]:
    """Run RFECV for every grid combination and keep the top_k feature sets.

    Each config's result equals its own rfecv_run bitwise; configs sharing
    (learning_rate, max_depth, reg_lambda) run as one job, so `workers`
    parallelises over those groups, not single configs. Results are ordered
    by ascending best-count CV MSE (grid order breaks ties); duplicate
    selected sets keep only their lowest-MSE config. top_k larger than the
    number of distinct sets returns everything.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    configs = expand_grid(lr_grid, n_estimators_grid, max_depth_grid)
    if not configs:
        raise ValueError("estimator grid is empty")

    # one job per (learning_rate, max_depth, reg_lambda): its configs share
    # tree prefixes while their active sets agree
    jobs: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        jobs.setdefault((cfg.learning_rate, cfg.max_depth, cfg.reg_lambda), []).append(i)
    job_configs = [[configs[i] for i in idx] for idx in jobs.values()]
    run = partial(_rfecv_group, ds, step=step, folds=folds)
    if min(workers, len(job_configs)) <= 1:
        outs = [run(group) for group in job_configs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            outs = list(pool.map(partial(logging_at, log.getEffectiveLevel(), run),
                                 job_configs))
    results: list[RfecvResult] = [None] * len(configs)  # type: ignore[list-item]
    for idx, out in zip(jobs.values(), outs):
        for i, r in zip(idx, out):
            results[i] = r

    # a stable sort: grid order breaks ties, and each set keeps its first config
    best: dict[tuple[str, ...], RfecvResult] = {}
    for r in sorted(results, key=lambda r: r.best_mse):
        best.setdefault(tuple(r.selected_features), r)
    return list(best.values())[:top_k]


def results_to_json(results: list[RfecvResult]) -> list[dict]:
    return [
        {
            "config": asdict(r.estimator_config),
            "best_count": r.best_count,
            "cv_mse": r.best_mse,
            "selected_features": list(r.selected_features),
            "cv_mse_by_count": {str(k): v for k, v in sorted(r.cv_mse_by_count.items())},
        }
        for r in results
    ]


def write_results_json(results: list[RfecvResult], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(results_to_json(results), indent=1), encoding="utf-8"
    )


def load_feature_sets(path: str | Path) -> list[list[str]]:
    """Read the selected feature-name lists back from a results JSON file.

    A malformed file raises ValueError naming the file, entry and field.
    """
    doc = read_json(path)
    if not (isinstance(doc, list) and doc):
        raise ValueError(f"{path}: expected a non-empty JSON list of feature sets")
    sets = []
    for i, entry in enumerate(doc):
        require_fields(path, entry, ("selected_features",), f"entry {i}")
        names = entry["selected_features"]
        if not (
            isinstance(names, list) and names
            and all(isinstance(n, str) for n in names) and len(set(names)) == len(names)
        ):
            raise ValueError(
                f"{path}: entry {i}: field 'selected_features' must be a non-empty "
                f"list of distinct feature names, got {names!r}"
            )
        sets.append(names)
    return sets


def write_mse_curve_csv(results: list[RfecvResult], path: str | Path) -> None:
    """Long-format (config, count, mse) rows for plotting MSE vs feature count."""
    rows = [[c.learning_rate, c.n_estimators, c.max_depth, k, r.cv_mse_by_count[k]]
            for r in results for c in [r.estimator_config]
            for k in sorted(r.cv_mse_by_count, reverse=True)]
    write_rows(path, ["learning_rate", "n_estimators", "max_depth", "count", "mse"], rows)

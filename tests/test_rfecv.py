import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rfecv_from_scratch
from pue_forecast import gbt, rfecv
from pue_forecast.dataset import Dataset, generate_synthetic
from pue_forecast.gbt import gbt_fit, gbt_importance, gbt_predict
from pue_forecast.rfecv import (
    DEFAULT_LR_GRID,
    DEFAULT_MAX_DEPTH_GRID,
    DEFAULT_N_ESTIMATORS_GRID,
    GbtConfig,
    expand_grid,
    load_feature_sets,
    make_folds,
    rfecv_grid,
    rfecv_run,
    results_to_json,
    write_mse_curve_csv,
    write_results_json,
)

FAST = GbtConfig(learning_rate=0.3, n_estimators=20, max_depth=3)


def toy_dataset(n=60, seed=0):
    """One exact linear driver plus one pure-noise column."""
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(0.0, 1.0, size=n)
    f1 = rng.normal(size=n)
    return Dataset(
        ["driver", "noise"],
        [f"t{i}" for i in range(n)],
        np.column_stack([f0, f1]),
        3.0 * f0,
    )


def _bitwise_key(r):
    return (r.estimator_config, r.elimination_order,
            {k: repr(v) for k, v in r.cv_mse_by_count.items()}, r.selected_features)


class TestFolds:
    def test_partition_properties(self):
        for n, k in [(10, 2), (11, 3), (25, 5), (7, 7)]:
            folds = make_folds(n, k)
            assert len(folds) == k
            all_val = np.concatenate([va for _, va in folds])
            assert np.array_equal(np.sort(all_val), np.arange(n))
            sizes = [len(va) for _, va in folds]
            assert max(sizes) - min(sizes) <= 1
            for tr, va in folds:
                assert set(tr) & set(va) == set()
                assert len(tr) + len(va) == n
                # contiguous chronological block
                assert np.array_equal(va, np.arange(va[0], va[-1] + 1))

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_folds(10, 1)
        with pytest.raises(ValueError, match="cannot build"):
            make_folds(3, 4)


class TestRfecvRun:
    def test_driver_beats_noise(self):
        ds = toy_dataset()
        res = rfecv_run(ds, FAST, step=1, folds=5, seed=0)
        assert res.selected_features == ["driver"]
        assert res.best_count == 1

        # brute force: score both counts directly with the same folds
        folds = make_folds(ds.n_samples, 5)

        def cv_mse(cols):
            mses = []
            for tr, va in folds:
                m = gbt_fit(ds.X[np.ix_(tr, cols)], ds.y[tr],
                            FAST.n_estimators, FAST.learning_rate, FAST.max_depth)
                mses.append(float(np.mean((gbt_predict(m, ds.X[np.ix_(va, cols)]) - ds.y[va]) ** 2)))
            return float(np.mean(mses))

        both = cv_mse([0, 1])
        only_driver = cv_mse([0])
        assert only_driver < both
        assert res.cv_mse_by_count[2] == pytest.approx(both, rel=1e-12)
        assert res.cv_mse_by_count[1] == pytest.approx(only_driver, rel=1e-12)

    def test_ragged_folds_match_per_fold_fits(self):
        # n=61 over 5 folds: training blocks of 48 and 49 rows
        ds = generate_synthetic(61, 3, 5, seed=7)
        cfg = GbtConfig(learning_rate=0.3, n_estimators=8, max_depth=3)
        res = rfecv_run(ds, cfg, step=1, folds=5, seed=0)
        folds = make_folds(ds.n_samples, 5)
        assert len({len(tr) for tr, _ in folds}) == 2

        # brute force: separate fits per fold and for the importance ranking
        def fit(rows, cols):
            return gbt_fit(ds.X[np.ix_(rows, cols)], ds.y[rows], cfg.n_estimators,
                           cfg.learning_rate, cfg.max_depth, cfg.reg_lambda)

        active = list(range(ds.n_features))
        order, mses = [], {}
        while True:
            fold_mses = [
                float(np.mean((gbt_predict(fit(tr, active), ds.X[np.ix_(va, active)])
                               - ds.y[va]) ** 2))
                for tr, va in folds
            ]
            mses[len(active)] = float(np.mean(fold_mses))
            if len(active) == 1:
                break
            imp = gbt_importance(fit(np.arange(ds.n_samples), active))
            order.append(active.pop(int(np.argsort(imp, kind="stable")[0])))
        assert res.elimination_order == order
        assert res.cv_mse_by_count == mses

    def test_count_map_keys_step_one(self):
        ds = generate_synthetic(40, 5, 0, seed=1)
        res = rfecv_run(ds, FAST, step=1, folds=4, seed=0)
        assert sorted(res.cv_mse_by_count) == [1, 2, 3, 4, 5]
        assert len(res.elimination_order) == 4
        assert len(set(res.elimination_order)) == 4

    def test_count_map_keys_larger_step(self):
        ds = generate_synthetic(40, 6, 0, seed=2)
        res = rfecv_run(ds, FAST, step=4, folds=4, seed=0)
        assert sorted(res.cv_mse_by_count) == [1, 2, 6]

    def test_selected_set_consistent_with_elimination_order(self):
        ds = generate_synthetic(50, 4, 2, seed=3)
        res = rfecv_run(ds, FAST, step=1, folds=5, seed=0)
        killed = set(res.elimination_order[: ds.n_features - res.best_count])
        expected = [
            ds.feature_names[i] for i in range(ds.n_features) if i not in killed
        ]
        assert res.selected_features == expected
        assert res.best_count == min(
            res.cv_mse_by_count, key=lambda c: (res.cv_mse_by_count[c], c)
        )

    def test_deterministic(self):
        ds = generate_synthetic(50, 4, 2, seed=4)
        a = rfecv_run(ds, FAST, step=1, folds=5, seed=11)
        b = rfecv_run(ds, FAST, step=1, folds=5, seed=11)
        assert a.elimination_order == b.elimination_order
        assert a.cv_mse_by_count == b.cv_mse_by_count

    def test_planted_recovery_smoke(self):
        # reduced-scale version of the acceptance sweep: two seeds only
        from pue_forecast.dataset import fit_normalizer, normalize

        for seed in (0, 1):
            ds = generate_synthetic(360, 5, 15, seed=seed)
            nds = normalize(ds, fit_normalizer(ds))
            res = rfecv_run(nds, GbtConfig(0.1, 100, 6), step=1, folds=5, seed=seed)
            assert set(ds.feature_names[:5]).issubset(set(res.selected_features))

    def test_validation(self):
        ds = toy_dataset()
        single = Dataset(["a"], list(ds.timestamps), ds.X[:, :1], ds.y)
        with pytest.raises(ValueError, match="2 features"):
            rfecv_run(single, FAST)
        with pytest.raises(ValueError, match="step"):
            rfecv_run(ds, FAST, step=0)
        for lr in (0.0, -0.1, float("nan"), float("inf"), "0.1", True):
            with pytest.raises(ValueError, match="learning_rate"):
                GbtConfig(lr, 3, 2)
        for lam in (-1.0, float("nan"), float("inf"), "1", False):
            with pytest.raises(ValueError, match="reg_lambda"):
                GbtConfig(0.1, 3, 2, reg_lambda=lam)
        for bad in (0, 2.5, True, "3", None):
            with pytest.raises(ValueError, match="n_estimators must be an int"):
                GbtConfig(0.1, bad, 2)
            with pytest.raises(ValueError, match="max_depth must be an int"):
                GbtConfig(0.1, 3, bad)


class TestGrid:
    def test_default_grid_has_100_combinations(self):
        configs = expand_grid()
        assert len(configs) == 100
        assert configs[0] == GbtConfig(0.5, 50, 3)
        assert configs[-1] == GbtConfig(0.05, 250, 12)
        assert len(set(configs)) == 100
        assert set(DEFAULT_LR_GRID) == {0.5, 0.75, 0.1, 0.075, 0.05}
        assert set(DEFAULT_N_ESTIMATORS_GRID) == {50, 100, 150, 200, 250}
        assert set(DEFAULT_MAX_DEPTH_GRID) == {3, 6, 9, 12}

    def test_results_sorted_and_deduplicated(self):
        ds = toy_dataset()
        # two configs that both select {driver}: deduplicated to one result
        results = rfecv_grid(
            ds, lr_grid=(0.3, 0.2), n_estimators_grid=(20,), max_depth_grid=(3,),
            top_k=6, folds=5,
        )
        assert len(results) == 1
        assert results[0].selected_features == ["driver"]

    def test_top_k_clamp(self):
        ds = toy_dataset()
        results = rfecv_grid(
            ds, lr_grid=(0.3,), n_estimators_grid=(20,), max_depth_grid=(3,),
            top_k=50, folds=5,
        )
        assert len(results) == 1

    def test_sorted_by_best_mse(self):
        ds = generate_synthetic(60, 4, 2, seed=5)
        results = rfecv_grid(
            ds, lr_grid=(0.3, 0.1), n_estimators_grid=(10, 20), max_depth_grid=(2,),
            top_k=10, folds=4,
        )
        mses = [r.best_mse for r in results]
        assert mses == sorted(mses)

    def test_ranking_breaks_ties_in_grid_order_and_cuts_after_dedup(self, monkeypatch):
        # crafted per-config (best MSE, selected set), in grid order
        crafted = {
            (0.1, 1): (0.5, ["a"]),
            (0.1, 2): (0.25, ["b"]),
            (0.1, 3): (0.25, ["a"]),  # ties (0.1, 2) with another set; beats (0.1, 1)
            (0.2, 1): (0.25, ["b"]),  # ties (0.1, 2) with the same set
            (0.2, 2): (0.125, ["c"]),
            (0.2, 3): (0.125, ["c"]),  # ties (0.2, 2) with the same set
        }

        def fake_group(ds, configs, step, folds):
            return [
                rfecv.RfecvResult([], {1: mse}, 1, names, cfg)
                for cfg in configs
                for mse, names in [crafted[cfg.learning_rate, cfg.n_estimators]]
            ]

        monkeypatch.setattr(rfecv, "_rfecv_group", fake_group)

        def ranked(top_k):
            results = rfecv_grid(toy_dataset(), lr_grid=(0.1, 0.2), n_estimators_grid=(1, 2, 3),
                                 max_depth_grid=(1,), top_k=top_k, folds=5)
            return [(r.estimator_config.learning_rate, r.estimator_config.n_estimators)
                    for r in results]

        assert ranked(10) == [(0.2, 2), (0.1, 2), (0.1, 3)]
        # a cut before deduplication would keep (0.2, 2) and its duplicate (0.2, 3)
        assert ranked(3) == [(0.2, 2), (0.1, 2), (0.1, 3)]
        assert ranked(2) == [(0.2, 2), (0.1, 2)]
        assert ranked(1) == [(0.2, 2)]

    def test_workers_deterministic(self):
        ds = generate_synthetic(50, 4, 1, seed=6)
        kwargs = dict(lr_grid=(0.3, 0.1), n_estimators_grid=(10, 3, 10),
                      max_depth_grid=(2,), top_k=10, folds=4)
        serial = rfecv_grid(ds, workers=1, **kwargs)
        parallel = rfecv_grid(ds, workers=2, **kwargs)
        assert [_bitwise_key(r) for r in serial] == [_bitwise_key(r) for r in parallel]

    @settings(deadline=None, max_examples=15)
    @given(
        trees=st.lists(st.integers(1, 12), min_size=1, max_size=4),  # unsorted, repeats
        lrs=st.lists(st.sampled_from([0.5, 0.3, 0.1]), min_size=1, max_size=2, unique=True),
        depths=st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),
        step=st.integers(1, 3),
        folds=st.integers(2, 4),
        n_noise=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_shared_prefixes_equal_per_config_runs(self, trees, lrs, depths, step, folds,
                                                   n_noise, seed):
        # the grid grows each (lr, depth, active set) once for all tree counts;
        # its ranking and deduplication of the per-config runs must come out
        ds = generate_synthetic(48, 3, n_noise, seed=seed)
        results = rfecv_grid(ds, lr_grid=lrs, n_estimators_grid=trees, max_depth_grid=depths,
                             top_k=10**6, step=step, folds=folds)
        singles = [rfecv_run(ds, cfg, step=step, folds=folds)
                   for cfg in expand_grid(lrs, trees, depths)]
        expected, seen = [], set()
        for i in sorted(range(len(singles)), key=lambda i: (singles[i].best_mse, i)):
            if tuple(singles[i].selected_features) not in seen:
                seen.add(tuple(singles[i].selected_features))
                expected.append(singles[i])
        assert [_bitwise_key(r) for r in results] == [_bitwise_key(r) for r in expected]

    def test_one_group_runs_in_process(self, monkeypatch):
        ds = generate_synthetic(50, 3, 2, seed=8)
        kwargs = dict(lr_grid=(0.3,), n_estimators_grid=(4, 9), max_depth_grid=(2,),
                      top_k=10, folds=4)
        serial = rfecv_grid(ds, workers=1, **kwargs)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-job grid started a process pool")

        monkeypatch.setattr(rfecv, "ProcessPoolExecutor", no_pool)
        parallel = rfecv_grid(ds, workers=2, **kwargs)
        assert [_bitwise_key(r) for r in serial] == [_bitwise_key(r) for r in parallel]


class TestResume:
    """Each feature count resumes from the previous count's trees that never
    split on a dropped column, bitwise equal to fitting every count afresh."""

    @staticmethod
    def _scratch_key(cfg, scratch):
        order, mses, selected = scratch
        return (cfg, order, {k: repr(v) for k, v in mses.items()}, selected)

    @settings(deadline=None, max_examples=12)
    @given(
        lrs=st.lists(st.sampled_from([0.001, 0.01, 0.1, 0.3, 0.5]), min_size=1, max_size=2,
                     unique=True),
        depth=st.integers(1, 3),
        n_noise=st.integers(4, 12),
        step=st.integers(1, 4),
        trees=st.lists(st.integers(1, 10), min_size=2, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
    )
    def test_grid_equals_fitting_every_count_from_scratch(self, lrs, depth, n_noise, step,
                                                          trees, seed):
        # configs of one (lr, depth) share fits while their active sets agree;
        # every later count resumes from a previous fit, whether the sets
        # diverge or meet again
        ds = generate_synthetic(60, 3, n_noise, seed=seed)
        results = rfecv_grid(ds, lr_grid=lrs, n_estimators_grid=trees,
                             max_depth_grid=(depth,), top_k=10**6, step=step, folds=4)
        scratch = [(cfg, rfecv_from_scratch(ds, cfg, step, 4))
                   for cfg in expand_grid(lrs, trees, (depth,))]
        expected, seen = [], set()
        for cfg, run in sorted(scratch, key=lambda s: min(s[1][1].values())):
            if tuple(run[2]) not in seen:
                seen.add(tuple(run[2]))
                expected.append(self._scratch_key(cfg, run))
        assert [_bitwise_key(r) for r in results] == expected

    def test_shallow_slow_groups_reuse_rounds(self, monkeypatch, caplog):
        grown = []
        build = gbt._TreeBuilder.build

        def spy(self, residual):
            grown.append(len(residual))
            return build(self, residual)

        monkeypatch.setattr(gbt._TreeBuilder, "build", spy)
        ds = generate_synthetic(600, 4, 12, seed=0)
        cfg = GbtConfig(learning_rate=0.001, n_estimators=10, max_depth=2)
        with caplog.at_level(logging.INFO, logger="pue_forecast.rfecv"):
            res = rfecv_run(ds, cfg, step=4, folds=5)
        rounds = len(res.cv_mse_by_count) * cfg.n_estimators
        assert 0 < len(grown) < rounds
        assert [r.getMessage() for r in caplog.records if r.name == "pue_forecast.rfecv"] == [
            f"rfecv lr=0.001 depth=2: counts 16,12,8,4,1; grew {len(grown)} tree rounds, "
            f"reused {rounds - len(grown)}"
        ]
        assert _bitwise_key(res) == self._scratch_key(cfg, rfecv_from_scratch(ds, cfg, 4, 5))


class TestMetamorphic:
    @settings(deadline=None, max_examples=10)
    @given(column=st.integers(0, 5), depth=st.integers(1, 3), step=st.integers(1, 2),
           seed=st.integers(0, 2**16))
    def test_a_column_scaled_by_a_quarter_keeps_the_run(self, column, depth, step, seed):
        """Scaling by a power of two keeps every value's order and scales each
        split threshold on the column exactly, so the elimination order and
        every count's CV MSE stay bitwise."""
        ds = generate_synthetic(48, 3, 3, seed=seed)
        X = ds.X.copy()
        X[:, column] *= 0.25
        scaled = Dataset(ds.feature_names, list(ds.timestamps), X, ds.y)
        cfg = GbtConfig(learning_rate=0.3, n_estimators=6, max_depth=depth)
        assert _bitwise_key(rfecv_run(scaled, cfg, step=step, folds=4)) == _bitwise_key(
            rfecv_run(ds, cfg, step=step, folds=4))


class TestExports:
    def test_json_roundtrip(self, tmp_path):
        ds = toy_dataset()
        results = rfecv_grid(ds, lr_grid=(0.3,), n_estimators_grid=(20,),
                             max_depth_grid=(3,), top_k=3, folds=5)
        doc = results_to_json(results)
        assert doc[0]["selected_features"] == ["driver"]
        assert doc[0]["best_count"] == 1
        assert doc[0]["config"]["learning_rate"] == 0.3
        assert set(doc[0]["cv_mse_by_count"]) == {"1", "2"}

        path = tmp_path / "sets.json"
        write_results_json(results, path)
        assert json.loads(path.read_text()) == doc
        assert load_feature_sets(path) == [["driver"]]

    def test_mse_curve_csv(self, tmp_path):
        ds = toy_dataset()
        results = rfecv_grid(ds, lr_grid=(0.3,), n_estimators_grid=(20,),
                             max_depth_grid=(3,), top_k=3, folds=5)
        path = tmp_path / "curve.csv"
        write_mse_curve_csv(results, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "learning_rate,n_estimators,max_depth,count,mse"
        assert len(lines) == 3  # counts 2 and 1 for the single config
        first = lines[1].split(",")
        assert first[0] == "0.3" and first[3] == "2"


class TestLoadFeatureSets:
    @pytest.mark.parametrize("doc, message", [
        ([{"config": {}}], "entry 0: field 'selected_features' is missing"),
        ([{"selected_features": ["a"]}, {"selected_features": "it_power_kw"}],
         "entry 1: field 'selected_features' must be"),
        ([{"selected_features": []}], "entry 0: field 'selected_features' must be"),
        ([{"selected_features": [1, 2]}], "entry 0: field 'selected_features' must be"),
        ([{"selected_features": ["a", "a"]}], "entry 0: field 'selected_features' must be"),
        ([["a"]], "entry 0: expected a JSON object"),
        ({"selected_features": ["a"]}, "expected a non-empty JSON list"),
        ([], "expected a non-empty JSON list"),
    ])
    def test_malformed_entry_names_file_entry_and_field(self, tmp_path, doc, message):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_feature_sets(path)

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text('[{"selected_features": ["a"]')
        with pytest.raises(ValueError, match=re.escape(f"{path}: not valid JSON")):
            load_feature_sets(path)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_bytes(b'[{"selected_features":\n ["caf\xe9"]}]')
        message = f"{path}: not valid JSON: line 2: byte 0xe9 is not UTF-8"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_feature_sets(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps([{"selected_features": ["a", "b"]}]), encoding="utf-8-sig")
        assert load_feature_sets(path) == [["a", "b"]]

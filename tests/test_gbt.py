from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    best_stump,
    greedy_route,
    greedy_tree,
    leaf_closed_form_worst_err,
    model_dump,
    replay_residuals,
    right_children,
    stump_sses,
    tree_depth,
    walk_predict,
)
from pue_forecast import gbt
from pue_forecast.gbt import (
    GbtModel,
    Tree,
    _fit_core,
    _presort,
    _TreeBuilder,
    gbt_fit,
    gbt_importance,
    gbt_predict,
)


class TestFit:
    def test_constant_target_predicts_mean_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = np.full(20, 7.25)
        m = gbt_fit(X, y, n_estimators=5, learning_rate=0.5, max_depth=3)
        assert np.all(gbt_predict(m, rng.normal(size=(50, 3))) == 7.25)

    def test_perfect_stump(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        m = gbt_fit(X, y, n_estimators=1, learning_rate=1.0, max_depth=1,
                    reg_lambda=0.0)
        _, c, thr = best_stump(X, y)
        assert m.trees[0].feature[0] == c
        assert m.trees[0].threshold[0] == thr
        assert np.mean((gbt_predict(m, X) - y) ** 2) < 1e-12

    def test_ties_go_to_the_lowest_feature_then_the_lowest_threshold(self):
        # columns 1 and 2 are equal, so their splits tie bitwise; column 1's
        # two outer thresholds mirror each other and tie too
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([np.zeros(4), x, x])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        tree = gbt_fit(X, y, n_estimators=1, learning_rate=1.0, max_depth=1,
                       reg_lambda=0.0).trees[0]
        assert (tree.feature[0], tree.threshold[0]) == (1, 0.5)

    @pytest.mark.parametrize("a, b", [
        (1.0, np.nextafter(1.0, 2.0)),  # the midpoint rounds down to a
        (1e308, 1.5e308),  # the midpoint overflows to inf
        (-1.5e308, -1e308),  # ... or to -inf
    ])
    def test_threshold_lies_above_the_lower_value(self, a, b):
        """A threshold cuts between the two values it was scored between, so
        the tree routes every row to the leaf whose value it counted in."""
        X = np.array([[a], [b], [a], [b], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 5.0, 6.0])
        m = gbt_fit(X, y, n_estimators=1, learning_rate=1.0, max_depth=3, reg_lambda=0.0)
        tree = m.trees[0]
        assert any(a < thr <= b for thr in tree.threshold[tree.feature >= 0])
        assert leaf_closed_form_worst_err(m, X, y) <= 1e-12
        assert m.train_losses[-1] <= 1e-24
        np.testing.assert_allclose(gbt_predict(m, X), y, rtol=0, atol=1e-12)

    def test_training_loss_monotone(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 4))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] ** 2 + 0.1 * rng.normal(size=50)
        m = gbt_fit(X, y, n_estimators=40, learning_rate=0.2, max_depth=3)
        losses = np.asarray(m.train_losses)
        assert len(losses) == 40
        assert np.all(np.diff(losses) <= 1e-15)

    def test_leaf_values_match_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] * 2.0 + rng.normal(size=60)
        lam = 1.0
        m = gbt_fit(X, y, n_estimators=10, learning_rate=0.3, max_depth=3,
                    reg_lambda=lam)
        for tree, resid in replay_residuals(m, X, y):
            # route rows independently, then check v = sum(residuals)/(count + lam)
            right = right_children(tree)
            leaves = {}
            for r in range(len(y)):
                i = 0
                while tree.feature[i] >= 0:
                    i = (
                        int(tree.left[i])
                        if X[r, tree.feature[i]] < tree.threshold[i]
                        else int(right[i])
                    )
                leaves.setdefault(i, []).append(resid[r])
            for i, rs in leaves.items():
                expected = np.sum(rs) / (len(rs) + lam)
                assert abs(tree.value[i] - expected) < 1e-9

    def test_depth_bound(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        for depth in (1, 2, 4):
            m = gbt_fit(X, y, n_estimators=8, learning_rate=0.3, max_depth=depth)
            assert all(tree_depth(t) <= depth for t in m.trees)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        a = gbt_fit(X, y, 10, 0.3, 3)
        b = gbt_fit(X, y, 10, 0.3, 3)
        assert model_dump(a) == model_dump(b)
        Xt = rng.normal(size=(20, 3))
        assert np.array_equal(gbt_predict(a, Xt), gbt_predict(b, Xt))

    def test_identical_rows_become_leaf(self):
        X = np.ones((6, 2))
        y = np.arange(6.0)
        m = gbt_fit(X, y, n_estimators=3, learning_rate=1.0, max_depth=4)
        assert all(t.n_nodes == 1 for t in m.trees)
        assert m.base_score == y.mean()

    def test_input_validation(self):
        X = np.ones((5, 2))
        y = np.ones(5)
        with pytest.raises(ValueError, match="two samples"):
            gbt_fit(np.ones((1, 2)), np.ones(1), 1, 0.1, 1)
        with pytest.raises(ValueError, match="rows"):
            gbt_fit(X, np.ones(4), 1, 0.1, 1)
        with pytest.raises(ValueError, match="finite"):
            gbt_fit(X * np.nan, y, 1, 0.1, 1)
        with pytest.raises(ValueError, match="n_estimators"):
            gbt_fit(X, y, 0, 0.1, 1)
        for lr in (0.0, float("nan"), float("inf"), "0.1", True):
            with pytest.raises(ValueError, match="learning_rate"):
                gbt_fit(X, y, 1, lr, 1)
        with pytest.raises(ValueError, match="max_depth"):
            gbt_fit(X, y, 1, 0.1, 0)
        for lam in (-1.0, float("nan"), float("inf"), "1", True):
            with pytest.raises(ValueError, match="reg_lambda"):
                gbt_fit(X, y, 1, 0.1, 1, reg_lambda=lam)
        # tree counts and depths are ints, bools excluded
        for bad in (2.0, True, "2"):
            with pytest.raises(ValueError, match="n_estimators must be an int"):
                gbt_fit(X, y, bad, 0.1, 2)
            with pytest.raises(ValueError, match="max_depth must be an int"):
                gbt_fit(X, y, 2, 0.1, bad)

    def test_zero_feature_columns_are_rejected(self):
        with pytest.raises(ValueError, match="X has no feature columns"):
            gbt_fit(np.zeros((4, 0)), np.arange(4.0), 2, 0.1, 2)


class TestPredict:
    def test_no_trees_returns_base_score(self):
        m = GbtModel(trees=[], learning_rate=0.1, base_score=3.5, reg_lambda=1.0,
                     n_features=2)
        assert np.all(gbt_predict(m, np.random.default_rng(0).normal(size=(10, 2))) == 3.5)

    def test_single_stump_by_construction(self):
        stump = Tree(
            feature=np.array([0, -1, -1]),
            threshold=np.array([2.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            value=np.array([0.0, -1.0, 4.0]),
            gain=np.array([1.0, 0.0, 0.0]),
        )
        m = GbtModel(trees=[stump], learning_rate=0.5, base_score=1.0,
                     reg_lambda=1.0, n_features=1)
        assert gbt_predict(m, np.array([[1.5]]))[0] == 1.0 + 0.5 * -1.0
        assert gbt_predict(m, np.array([[2.5]]))[0] == 1.0 + 0.5 * 4.0

    def test_matches_tree_walk_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(70, 4))
        y = X[:, 0] - 2.0 * X[:, 3] + rng.normal(size=70) * 0.2
        m = gbt_fit(X, y, n_estimators=12, learning_rate=0.25, max_depth=4)
        Xt = rng.normal(size=(100, 4))
        assert np.max(np.abs(gbt_predict(m, Xt) - walk_predict(m, Xt))) < 1e-12

    @pytest.mark.parametrize("route_cells", [gbt._ROUTE_CELLS, 16])
    def test_staged_counts_equal_prefix_models_bitwise(self, monkeypatch, route_cells):
        """Each staged row equals predicting with that tree prefix alone, also
        when the rows are routed in several blocks."""
        monkeypatch.setattr(gbt, "_ROUTE_CELLS", route_cells)
        rng = np.random.default_rng(14)
        X = rng.normal(size=(70, 4))
        y = X[:, 0] - 2.0 * X[:, 3] + rng.normal(size=70) * 0.2
        m = gbt_fit(X, y, n_estimators=12, learning_rate=0.25, max_depth=4)
        Xt = rng.normal(size=(45, 4))
        counts = (5, 12, 0, 5, 1)
        staged = gbt_predict(m, Xt, counts)
        assert staged.shape == (len(counts), 45)
        for row, t in zip(staged, counts):
            assert np.array_equal(row, gbt_predict(replace(m, trees=m.trees[:t]), Xt))
        assert np.array_equal(gbt_predict(m, Xt, [12])[0], gbt_predict(m, Xt))
        for bad in ([13], [-1]):
            with pytest.raises(ValueError, match="tree counts"):
                gbt_predict(m, Xt, bad)

    def test_dimension_mismatch(self):
        m = gbt_fit(np.ones((4, 2)) * np.arange(4)[:, None], np.arange(4.0), 1, 0.1, 1)
        with pytest.raises(ValueError, match="columns"):
            gbt_predict(m, np.ones((3, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = np.where(X[:, 2] > 0, 1.0, -1.0) + 0.1 * rng.normal(size=60)
        m = gbt_fit(X, y, n_estimators=6, learning_rate=0.4, max_depth=3)
        perm = np.array([2, 0, 3, 1])  # new column order; old index c -> position
        inv = np.argsort(perm)
        remapped = GbtModel(
            trees=[
                Tree(
                    feature=np.where(t.feature >= 0, inv[np.maximum(t.feature, 0)], -1),
                    threshold=t.threshold.copy(),
                    left=t.left.copy(),
                    value=t.value.copy(),
                    gain=t.gain.copy(),
                )
                for t in m.trees
            ],
            learning_rate=m.learning_rate,
            base_score=m.base_score,
            reg_lambda=m.reg_lambda,
            n_features=4,
        )
        Xt = rng.normal(size=(30, 4))
        assert np.array_equal(gbt_predict(m, Xt), gbt_predict(remapped, Xt[:, perm]))


class TestImportance:
    def test_single_driver_feature(self):
        rng = np.random.default_rng(2)
        n = 50
        X = np.column_stack([np.ones(n), np.ones(n) * 2.0, rng.normal(size=n)])
        y = np.where(X[:, 2] > 0.0, 2.0, -2.0)
        m = gbt_fit(X, y, n_estimators=5, learning_rate=0.5, max_depth=2)
        imp = gbt_importance(m)
        assert imp[2] > 0.0
        assert imp[0] == 0.0 and imp[1] == 0.0

    def test_no_trees_all_zero(self):
        m = GbtModel(trees=[], learning_rate=0.1, base_score=0.0, reg_lambda=1.0,
                     n_features=3)
        assert np.array_equal(gbt_importance(m), np.zeros(3))

    def test_importance_is_a_copy(self):
        m = gbt_fit(np.arange(8.0).reshape(4, 2), np.array([0.0, 0, 1, 1]), 2, 0.5, 1)
        imp = gbt_importance(m)
        imp[:] = -1
        assert np.all(gbt_importance(m) >= 0)


def _stacked_presort(X, sizes):
    """Per-block stable column argsorts (block-local row ids)."""
    bounds = np.cumsum([0] + list(sizes))
    blocks = [X[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return np.concatenate([np.argsort(B, axis=0, kind="stable") for B in blocks]), bounds


def _same_tree(a, b):
    return np.array_equal(right_children(a), right_children(b)) and all(
        np.array_equal(getattr(a, k), getattr(b, k)) and getattr(a, k).dtype == getattr(b, k).dtype
        for k in ("feature", "threshold", "left", "value", "gain")
    )


def _assert_same_model(model, ref):
    assert model.base_score == ref.base_score
    assert len(model.trees) == len(ref.trees)
    assert all(_same_tree(t, u) for t, u in zip(model.trees, ref.trees))
    assert np.array_equal(gbt_importance(model), gbt_importance(ref))
    assert model.train_losses == ref.train_losses


def _greedy_nodes(node):
    """Every node of a greedy_tree, parents before children."""
    yield node
    if "feature" in node:
        yield from _greedy_nodes(node["left"])
        yield from _greedy_nodes(node["right"])


def _assert_same_as_greedy(tree, node, i=0):
    """Walk a fitted tree and a greedy_tree from the root together: split
    features, thresholds and shape exactly, split gains and leaf values to
    1e-9 relative, and a gain of 0 at every leaf."""
    if "feature" not in node:
        assert tree.feature[i] == -1
        assert tree.gain[i] == 0.0
        assert tree.value[i] == pytest.approx(node["value"], rel=1e-9, abs=1e-12)
        return
    assert (tree.feature[i], tree.threshold[i]) == (node["feature"], node["threshold"])
    assert tree.gain[i] == pytest.approx(node["gain"], rel=1e-9, abs=0)
    _assert_same_as_greedy(tree, node["left"], tree.left[i])
    _assert_same_as_greedy(tree, node["right"], right_children(tree)[i])


def _random_xy(rng, sizes, n_features, levels):
    n = sum(sizes)
    if levels:
        X = rng.integers(0, levels, size=(n, n_features)).astype(np.float64)
    else:
        X = rng.normal(size=(n, n_features))
    return X, rng.normal(size=n)


class TestAgainstOracles:
    """Fits on random data against the exhaustive stump search and the
    closed-form leaf values of tests/oracles.py."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 60),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 3]),  # 0: continuous; k: k distinct values (ties)
        seed=st.integers(0, 2**31 - 1),
    )
    def test_root_split_is_the_best_stump(self, n, n_features, levels, seed):
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        tree = gbt_fit(X, y, n_estimators=1, learning_rate=1.0, max_depth=1,
                       reg_lambda=0.0).trees[0]
        splits = sorted(stump_sses(X, y), key=lambda s: s[0])
        total = float(np.sum((y - y.mean()) ** 2))
        if tree.feature[0] < 0:  # no split: none lowers the SSE
            assert all(sse >= total * (1 - 1e-9) for sse, _, _ in splits)
            return
        c, thr = int(tree.feature[0]), float(tree.threshold[0])
        got = next(sse for sse, f, t in splits if (f, t) == (c, thr))
        assert got == pytest.approx(splits[0][0], rel=1e-9, abs=1e-12 * total)
        if len(splits) == 1 or splits[1][0] > splits[0][0] + 1e-6 * total:
            assert (c, thr) == splits[0][1:]

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(2, 80),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 3]),
        max_depth=st.integers(1, 5),
        n_estimators=st.integers(1, 6),
        learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
        reg_lambda=st.sampled_from([0.0, 0.5, 1.0, 10.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_leaf_values_are_closed_form(self, n, n_features, levels, max_depth,
                                         n_estimators, learning_rate, reg_lambda, seed):
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        m = gbt_fit(X, y, n_estimators=n_estimators, learning_rate=learning_rate,
                    max_depth=max_depth, reg_lambda=reg_lambda)
        assert leaf_closed_form_worst_err(m, X, y) <= 1e-12 * (1 + np.abs(y).max())

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 60),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 3]),  # 0: continuous; k: k distinct values (ties)
        max_depth=st.integers(2, 4),
        n_estimators=st.integers(1, 3),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_trees_match_the_exact_greedy_oracle(self, n, n_features, levels, max_depth,
                                                 n_estimators, reg_lambda, seed):
        """Every tree of a boosting run equals greedy_tree on the oracle's own
        residuals. Where tied candidates cut a node's rows alike (margin 0),
        either may win, so the tree is checked by the leaf value it gives
        each row. A draw with a true near-tie (a decision within 1e-6 of the
        residual sum of squares of flipping, but not tied) is not checked,
        so float rounding cannot flip it."""
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        m = gbt_fit(X, y, n_estimators, 0.5, max_depth, reg_lambda=reg_lambda)
        pred = np.full(n, y.mean())
        importance = np.zeros(n_features)
        tied = False
        for tree in m.trees:
            r = y - pred
            oracle = greedy_tree(X, r, max_depth, reg_lambda)
            nodes = list(_greedy_nodes(oracle))
            margins = [v["margin"] for v in nodes if "margin" in v]
            if any(0.0 < mg <= 1e-6 * float(r @ r) for mg in margins):
                return
            routed = np.array([greedy_route(oracle, row) for row in X])
            if 0.0 in margins:
                tied = True
                np.testing.assert_allclose(tree.predict(X), routed, rtol=0, atol=1e-12)
            else:
                _assert_same_as_greedy(tree, oracle)
            for v in nodes:
                if "feature" in v:
                    importance[v["feature"]] += v["gain"]
            pred = pred + 0.5 * routed
        if tied:  # tied splits may credit another feature with the same gain
            assert gbt_importance(m).sum() == pytest.approx(importance.sum(), rel=1e-9)
        else:
            np.testing.assert_allclose(gbt_importance(m), importance, rtol=1e-9, atol=0)


class TestMultiRoot:
    """Fits grown as roots of one stacked build equal fitting each alone, bitwise."""

    @settings(deadline=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(2, 120), min_size=1, max_size=5),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 3]),  # 0: continuous; k: k distinct values (ties)
        max_depth=st.integers(1, 6),
        n_estimators=st.integers(1, 4),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roots_match_separate_fits(self, sizes, n_features, levels, max_depth,
                                       n_estimators, reg_lambda, seed):
        rng = np.random.default_rng(seed)
        X, y = _random_xy(rng, sizes, n_features, levels)
        sort_idx, bounds = _stacked_presort(X, sizes)

        # the presort against per-block argsorts: stacked row ids in value
        # order; its feature rows and leading blocks are the presort of that
        # column subset and those blocks
        presort = _presort(X, sizes)
        shift = np.repeat(bounds[:-1], sizes)[:, None]
        assert presort.dtype == np.int32
        assert np.array_equal(presort, (sort_idx + shift).T)
        cols = np.flatnonzero(rng.random(n_features) < 0.5).tolist() or [n_features - 1]
        lead = int(rng.integers(1, len(sizes) + 1))
        m = int(bounds[lead])
        assert np.array_equal(presort[cols, :m], _presort(X[:m, cols], sizes[:lead]))

        # one build: trees (with their node gains) and per-row leaves of every root
        stacked = _TreeBuilder(X, sizes, presort, max_depth, reg_lambda)
        trees, leaf = stacked.build(y)
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            alone = _TreeBuilder(X[a:b], [b - a], _presort(X[a:b], [b - a]),
                                 max_depth, reg_lambda)
            (tree,), leaf_k = alone.build(y[a:b])
            assert _same_tree(trees[k], tree)
            assert np.array_equal(leaf[a:b], leaf_k)

        # whole boosting loops against the public single-fit entry point
        models = _fit_core(X, y, n_estimators, 0.3, max_depth, reg_lambda,
                           presort, sizes)
        assert len(models) == len(sizes)
        for model, a, b in zip(models, bounds[:-1], bounds[1:]):
            ref = gbt_fit(X[a:b], y[a:b], n_estimators, 0.3, max_depth,
                          reg_lambda=reg_lambda)
            _assert_same_model(model, ref)
            assert all(tree_depth(t) <= max_depth for t in model.trees)

    def test_more_than_255_groups_in_a_level(self):
        """Past 255 groups a level regroups on 16-bit sort keys; the stacked
        build still equals each root built alone (8-bit keys here) and routes
        every row to the greedy oracle's leaf value."""
        sizes, max_depth = [300] * 6, 8
        X, y = _random_xy(np.random.default_rng(0), sizes, 3, 0)
        trees, leaf = _TreeBuilder(X, sizes, _presort(X, sizes), max_depth, 1.0).build(y)
        # the groups of level d: every root's nodes at depth d and shallower leaves
        groups = np.zeros(max_depth + 1, dtype=int)
        for t in trees:
            depth = np.zeros(t.n_nodes, dtype=int)
            right = right_children(t)
            for i in np.flatnonzero(t.left >= 0):  # parents are numbered first
                depth[t.left[i]] = depth[right[i]] = depth[i] + 1
            for d in range(max_depth + 1):
                groups[d] += np.sum((depth == d) | ((depth < d) & (t.left < 0)))
        assert groups[:max_depth].max() > 255  # the last level is not regrouped
        bounds = np.cumsum([0] + sizes)
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            alone = _TreeBuilder(X[a:b], [b - a], _presort(X[a:b], [b - a]), max_depth, 1.0)
            (tree,), leaf_k = alone.build(y[a:b])
            assert _same_tree(trees[k], tree)
            assert np.array_equal(leaf[a:b], leaf_k)
            # ties between features that cut a node alike may pick either
            # feature, so compare what each row gets, not the split ids
            oracle = greedy_tree(X[a:b], y[a:b], max_depth, 1.0)
            routed = [greedy_route(oracle, row) for row in X[a:b]]
            np.testing.assert_allclose(tree.value[leaf_k], routed, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.lists(st.integers(2, 60), min_size=1, max_size=4),
        n_features=st.integers(1, 3),
        levels=st.sampled_from([0, 2, 3]),
        max_depth=st.integers(1, 4),
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_leading_trees_match_shorter_fits(self, sizes, n_features, levels, max_depth,
                                              counts, reg_lambda, seed):
        # unsorted and duplicated tree counts: each root's first n trees are
        # a separate fit of its block with n trees
        X, y = _random_xy(np.random.default_rng(seed), sizes, n_features, levels)
        models = _fit_core(X, y, max(counts), 0.3, max_depth, reg_lambda,
                           _presort(X, sizes), sizes)
        assert len(models) == len(sizes)
        bounds = np.cumsum([0] + sizes)
        for n_trees in counts:
            for model, a, b in zip(models, bounds[:-1], bounds[1:]):
                ref = gbt_fit(X[a:b], y[a:b], n_trees, 0.3, max_depth,
                              reg_lambda=reg_lambda)
                _assert_same_model(model.first(n_trees), ref)


class TestColumnSubsets:
    """Split search is separable by feature: dropping columns that won no
    split leaves every tree, leaf, node gain and loss bitwise unchanged."""

    @settings(deadline=None, max_examples=50)
    @given(
        sizes=st.lists(st.integers(2, 60), min_size=1, max_size=4),
        n_features=st.integers(2, 6),
        levels=st.sampled_from([0, 2, 3]),  # 0: continuous; k: k distinct values (ties)
        max_depth=st.integers(1, 4),
        n_estimators=st.integers(1, 5),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_columns_holding_every_winner_give_the_same_fit(
            self, sizes, n_features, levels, max_depth, n_estimators, reg_lambda, seed):
        rng = np.random.default_rng(seed)
        X, y = _random_xy(rng, sizes, n_features, levels)
        presort = _presort(X, sizes)

        def superset(trees):
            won = {int(c) for t in trees for c in t.feature if c >= 0}
            extra = np.flatnonzero(rng.random(n_features) < 0.5).tolist()
            return sorted(won.union(extra)) or [int(rng.integers(n_features))]

        def same_tree(sub, full, cols):
            new_id = {c: i for i, c in enumerate(cols)} | {-1: -1}
            assert sub.feature.tolist() == [new_id[c] for c in full.feature.tolist()]
            assert _same_tree(sub, replace(full, feature=sub.feature))

        # one build: trees (with their node gains) and each row's leaf
        trees, leaf = _TreeBuilder(X, sizes, presort, max_depth, reg_lambda).build(y)
        cols = superset(trees)
        sub_trees, sub_leaf = _TreeBuilder(
            X[:, cols], sizes, presort[cols], max_depth, reg_lambda).build(y)
        for sub, full in zip(sub_trees, trees):
            same_tree(sub, full, cols)
        assert np.array_equal(sub_leaf, leaf)

        # whole boosting loops of every root
        full = _fit_core(X, y, n_estimators, 0.3, max_depth, reg_lambda,
                         presort, sizes)
        cols = superset([t for m in full for t in m.trees])
        subs = _fit_core(X[:, cols], y, n_estimators, 0.3, max_depth, reg_lambda,
                         presort[cols], sizes)
        for sub, model in zip(subs, full):
            assert sub.base_score == model.base_score
            assert len(sub.trees) == len(model.trees)
            for t, u in zip(sub.trees, model.trees):
                same_tree(t, u, cols)
            assert np.array_equal(gbt_importance(sub), gbt_importance(model)[cols])
            assert sub.train_losses == model.train_losses


_INCREASING = {  # strictly increasing maps; a draw where one merges two floats is skipped
    "exp": np.exp,
    "cube": lambda x: x**3,
    "arctan": np.arctan,
    "affine": lambda x: 3.0 * x - 7.0,
    "shift": lambda x: x + 1e6,
}


class TestMetamorphic:
    """Fits on related inputs against each other, with no oracle. Split search
    reads only each column's value order (which values are equal, which is
    lower) and the tie rule reads only column order, so these input changes
    keep every tree bitwise but the thresholds set by a changed column."""

    FIT = dict(
        n=st.integers(2, 60),
        n_features=st.integers(1, 4),
        levels=st.sampled_from([0, 2, 3]),  # 0: continuous; k: k distinct values (ties)
        max_depth=st.integers(1, 4),
        n_estimators=st.integers(1, 4),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        seed=st.integers(0, 2**31 - 1),
    )

    @staticmethod
    def _fits(X, X2, y, max_depth, n_estimators, reg_lambda):
        """(the fit on X2, the reference fit on X), with the same settings."""
        kw = dict(n_estimators=n_estimators, learning_rate=0.3, max_depth=max_depth,
                  reg_lambda=reg_lambda)
        return gbt_fit(X2, y, **kw), gbt_fit(X, y, **kw)

    @staticmethod
    def _same_but_thresholds_of(model, ref, c):
        """Every tree field bitwise but the thresholds of splits on column c;
        returns the (moved, reference) thresholds of those splits."""
        assert model.base_score == ref.base_score
        assert model.train_losses == ref.train_losses
        assert len(model.trees) == len(ref.trees)
        moved, was = [], []
        for t, u in zip(model.trees, ref.trees):
            assert _same_tree(replace(t, threshold=u.threshold), u)
            on_c = t.feature == c
            assert np.array_equal(t.threshold[~on_c], u.threshold[~on_c])
            moved.append(t.threshold[on_c])
            was.append(u.threshold[on_c])
        assert np.array_equal(gbt_importance(model), gbt_importance(ref))
        return np.concatenate(moved), np.concatenate(was)

    @settings(deadline=None, max_examples=40)
    @given(**FIT, column=st.integers(0, 3), fn=st.sampled_from(sorted(_INCREASING)))
    def test_an_increasing_map_moves_only_thresholds(self, n, n_features, levels, max_depth,
                                                     n_estimators, reg_lambda, seed, column, fn):
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        c = column % n_features
        values = np.unique(X[:, c])
        with np.errstate(over="ignore"):
            assume(np.all(np.diff(_INCREASING[fn](values)) > 0))
        X2 = X.copy()
        X2[:, c] = _INCREASING[fn](X[:, c])
        model, ref = self._fits(X, X2, y, max_depth, n_estimators, reg_lambda)
        self._same_but_thresholds_of(model, ref, c)
        for t, u in zip(model.trees, ref.trees):  # the moved thresholds route alike
            assert np.array_equal(t.predict(X2), u.predict(X))

    @settings(deadline=None, max_examples=40)
    @given(**FIT, column=st.integers(0, 3), power=st.integers(-8, 8))
    def test_a_power_of_two_scales_thresholds_exactly(self, n, n_features, levels, max_depth,
                                                      n_estimators, reg_lambda, seed, column,
                                                      power):
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        c, scale = column % n_features, 2.0**power
        X2 = X.copy()
        X2[:, c] *= scale
        model, ref = self._fits(X, X2, y, max_depth, n_estimators, reg_lambda)
        moved, was = self._same_but_thresholds_of(model, ref, c)
        assert np.array_equal(moved, scale * was)

    @settings(deadline=None, max_examples=40)
    @given(**FIT, column=st.integers(0, 3), constant=st.sampled_from([0.0, -3.5, 1e300]),
           copy=st.booleans())
    def test_an_appended_constant_or_copy_changes_no_tree(self, n, n_features, levels,
                                                          max_depth, n_estimators, reg_lambda,
                                                          seed, column, constant, copy):
        X, y = _random_xy(np.random.default_rng(seed), [n], n_features, levels)
        extra = X[:, column % n_features] if copy else np.full(n, constant)
        model, ref = self._fits(X, np.column_stack([X, extra]), y, max_depth, n_estimators,
                                reg_lambda)
        assert model.base_score == ref.base_score
        assert model.train_losses == ref.train_losses
        assert all(_same_tree(t, u) for t, u in zip(model.trees, ref.trees))
        imp = gbt_importance(model)
        assert np.array_equal(imp[:n_features], gbt_importance(ref))
        assert imp[n_features] == 0.0  # a constant never splits; a copy never wins a tie

    @settings(deadline=None, max_examples=40)
    @given(**FIT)
    def test_signed_zeros_are_never_cut_apart(self, n, n_features, levels, max_depth,
                                              n_estimators, reg_lambda, seed):
        """-0.0 == 0.0, so a column holding both is never cut between them: the
        fit equals the fit with every -0.0 made 0.0, and each leaf value is
        the closed form of the rows the tree routes to it."""
        rng = np.random.default_rng(seed)
        X, y = _random_xy(rng, [n], n_features, levels)
        X[:, 0] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=n)
        X[:2, 0] = (-0.0, 0.0)  # both signs always present
        y += 5.0 * ((X[:, 0] == 0.0) & np.signbit(X[:, 0]))  # a cut between them would pay
        # -0.0 + 0.0 is 0.0
        model, ref = self._fits(X + 0.0, X, y, max_depth, n_estimators, reg_lambda)
        assert model.train_losses == ref.train_losses
        assert all(_same_tree(t, u) for t, u in zip(model.trees, ref.trees))
        assert leaf_closed_form_worst_err(model, X, y) <= 1e-12 * (1 + np.abs(y).max())

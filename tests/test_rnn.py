import mmap
import threading
import tracemalloc
import weakref
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    finite_diff_worst_rel_err,
    hand_cell,
    random_config_check,
    scalar_trace,
    serial_cells,
)
from pue_forecast import rnn
from pue_forecast.rnn import (
    BiGruLayer,
    GruParams,
    Model,
    backward_batch,
    bigru_forward,
    forward_batch,
    gru_cell,
    gru_forward,
    init_params,
    model_backward,
    model_forward,
    predict_batch,
)


class TestGruCell:
    def test_zero_parameters(self):
        p = GruParams.zeros(input_dim=3, hidden_dim=4)
        h_prev = np.array([0.4, -0.8, 0.2, 1.0])
        h, cache = gru_cell(p, h_prev, np.array([1.0, 2.0, 3.0]))
        assert np.all(cache.r == 0.5) and np.all(cache.z == 0.5)
        assert np.all(cache.cand == 0.0)
        assert np.array_equal(h, 0.5 * h_prev)

    def test_saturated_update_gate_selects_candidate(self):
        p = GruParams.zeros(input_dim=2, hidden_dim=3)
        p.b_z += 50.0
        rng = np.random.default_rng(0)
        p.U_h[...] = rng.normal(size=(3, 2))
        p.b_h[...] = rng.normal(size=3)
        x = rng.normal(size=2)
        h, cache = gru_cell(p, np.array([0.9, -0.7, 0.3]), x)
        assert np.max(np.abs(h - cache.cand)) < 1e-6

    def test_hand_computed_two_unit_trace(self):
        p = hand_cell()
        h_prev = [0.1, -0.2]
        x = 0.5
        r, z, c, h = scalar_trace(p, h_prev, x)
        got_h, cache = gru_cell(p, np.array(h_prev), np.array([x]))
        assert np.max(np.abs(cache.r - r)) < 1e-12
        assert np.max(np.abs(cache.z - z)) < 1e-12
        assert np.max(np.abs(cache.cand - c)) < 1e-12
        assert np.max(np.abs(got_h - h)) < 1e-12

    def test_gate_ranges(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            model = init_params(3, 4, 1, "gru", seed=seed)
            p = model.layers[0]
            h, cache = gru_cell(p, rng.normal(size=4), rng.normal(size=3))
            assert np.all((cache.r > 0) & (cache.r < 1))
            assert np.all((cache.z > 0) & (cache.z < 1))
            assert np.all((cache.cand > -1) & (cache.cand < 1))
            # convex combination: |h| bounded by the larger of its sources
            bound = np.maximum(np.abs(cache.h_prev), np.abs(cache.cand))
            assert np.all(np.abs(h) <= bound + 1e-15)

    def test_dimension_mismatch(self):
        p = GruParams.zeros(2, 3)
        with pytest.raises(ValueError, match="expected"):
            gru_cell(p, np.zeros(2), np.zeros(2))


class TestBiGru:
    def test_sum_decomposition_exact(self):
        layer = BiGruLayer(
            forward=init_params(3, 4, 1, "gru", seed=1).layers[0],
            backward=init_params(3, 4, 1, "gru", seed=2).layers[0],
        )
        X = np.random.default_rng(3).standard_normal((5, 3))
        out = bigru_forward(layer, X)
        hf = gru_forward(layer.forward, X)
        hb = gru_forward(layer.backward, X[::-1])[::-1]
        assert np.array_equal(out, hf + hb)

    def test_single_step_equals_doubled_cell(self):
        cell = init_params(2, 3, 1, "gru", seed=7).layers[0]
        layer = BiGruLayer(forward=cell, backward=cell)
        x = np.random.default_rng(8).standard_normal((1, 2))
        out = bigru_forward(layer, x)
        h, _ = gru_cell(cell, np.zeros(3), x[0])
        assert np.array_equal(out[0], 2.0 * h)

    def test_reversal_symmetry(self):
        fwd = init_params(3, 4, 1, "gru", seed=11).layers[0]
        bwd = init_params(3, 4, 1, "gru", seed=12).layers[0]
        X = np.random.default_rng(13).standard_normal((6, 3))
        out = bigru_forward(BiGruLayer(forward=fwd, backward=bwd), X)
        swapped = bigru_forward(
            BiGruLayer(forward=bwd, backward=fwd), np.ascontiguousarray(X[::-1])
        )
        assert np.max(np.abs(swapped[::-1] - out)) < 1e-12

    def test_dimension_checks(self):
        layer = BiGruLayer(
            forward=GruParams.zeros(2, 3), backward=GruParams.zeros(2, 3)
        )
        with pytest.raises(ValueError, match="expected"):
            bigru_forward(layer, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="dimensions differ"):
            BiGruLayer(forward=GruParams.zeros(2, 3), backward=GruParams.zeros(2, 4))


def ref_scan(p, seq):
    """Straight-line per-step reimplementation with plain matrix products."""
    h = np.zeros(p.hidden_dim)
    out = []
    for t in range(seq.shape[0]):
        x = seq[t]
        r = 1.0 / (1.0 + np.exp(-(p.W_r @ h + p.U_r @ x + p.b_r)))
        z = 1.0 / (1.0 + np.exp(-(p.W_z @ h + p.U_z @ x + p.b_z)))
        c = np.tanh(p.W_h @ (r * h) + p.U_h @ x + p.b_h)
        h = (1.0 - z) * h + z * c
        out.append(h)
    return np.stack(out)


def ref_model(model, seq):
    s = seq
    for layer in model.layers:
        if model.mode == "bigru":
            s = ref_scan(layer.forward, s) + ref_scan(layer.backward, s[::-1])[::-1]
        else:
            s = ref_scan(layer, s)
    return float(model.w_o @ s[-1] + model.b_o[0])


class TestModelForward:
    def test_zero_head_returns_bias(self):
        model = init_params(3, 4, 2, "bigru", seed=4)
        model.w_o[...] = 0.0
        model.b_o[0] = 2.75
        X = np.random.default_rng(0).standard_normal((5, 3))
        pred, _ = model_forward(model, X)
        assert pred == 2.75

    def test_single_layer_single_step_composition(self):
        model = init_params(2, 3, 1, "gru", seed=21)
        x = np.random.default_rng(22).standard_normal((1, 2))
        pred, _ = model_forward(model, x)
        h, _ = gru_cell(model.layers[0], np.zeros(3), x[0])
        manual = model.b_o[0]
        for j in range(3):
            manual += h[j] * model.w_o[j]
        assert pred == manual

    def test_matches_straight_line_reimplementation(self):
        model = init_params(2, 3, 2, "bigru", seed=31)
        X = np.random.default_rng(32).standard_normal((4, 2))
        pred, _ = model_forward(model, X)
        assert abs(pred - ref_model(model, X)) < 1e-10

    def test_gru_mode_matches_reimplementation(self):
        model = init_params(3, 4, 3, "gru", seed=33)
        X = np.random.default_rng(34).standard_normal((5, 3))
        pred, _ = model_forward(model, X)
        assert abs(pred - ref_model(model, X)) < 1e-10

    def test_batched_equals_one_at_a_time_bitwise(self):
        model = init_params(3, 5, 2, "bigru", seed=41)
        X = np.random.default_rng(42).standard_normal((23, 4, 3))
        batched = predict_batch(model, X)
        single = np.array([model_forward(model, X[i])[0] for i in range(23)])
        assert np.array_equal(batched, single)

    def test_grouping_invariance_bitwise(self):
        model = init_params(2, 4, 1, "gru", seed=51)
        X = np.random.default_rng(52).standard_normal((17, 3, 2))
        whole = predict_batch(model, X)
        parts = np.concatenate([predict_batch(model, X[:5]), predict_batch(model, X[5:])])
        assert np.array_equal(whole, parts)

    def test_fast_path_agrees_with_exact_path(self):
        model = init_params(3, 8, 2, "bigru", seed=61)
        X = np.random.default_rng(62).standard_normal((9, 6, 3))
        exact = forward_batch(model, X, exact=True)[0]
        fast = forward_batch(model, X, exact=False)[0]
        assert np.max(np.abs(exact - fast)) < 1e-12

    @settings(deadline=None, max_examples=25)
    @given(
        mode=st.sampled_from(["gru", "bigru"]),
        layers=st.integers(1, 3),
        hidden=st.integers(1, 64),
        n_features=st.integers(1, 9),
        length=st.integers(1, 7),
        batch=st.integers(1, 300),
        cuts=st.lists(st.integers(0, 300), max_size=4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_exact_path_batch_invariance(self, mode, layers, hidden, n_features,
                                         length, batch, cuts, seed):
        """Random splits, single windows and rows shifted by one float64 give the
        whole batch's predictions bitwise; the fast path agrees to 1e-12."""
        model = init_params(n_features, hidden, layers, mode, seed=seed)
        X = np.random.default_rng(seed).standard_normal((batch, length, n_features))
        whole = predict_batch(model, X)
        bounds = [0, *sorted(c % (batch + 1) for c in cuts), batch]
        parts = [predict_batch(model, X[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)
        single = np.array([model_forward(model, X[i])[0] for i in range(batch)])
        assert np.array_equal(single, whole)
        shifted = np.empty(X.size + 1)[1:].reshape(X.shape)
        shifted[...] = X
        assert np.array_equal(predict_batch(model, shifted), whole)
        fast = forward_batch(model, X, exact=False)[0]
        assert np.max(np.abs(fast - whole)) < 1e-12

    def test_input_validation(self):
        model = init_params(3, 4, 1, "gru", seed=0)
        with pytest.raises(ValueError, match="windows"):
            forward_batch(model, np.zeros((2, 4, 5)))
        with pytest.raises(ValueError, match="matrix"):
            model_forward(model, np.zeros(3))


class _Inline:
    """Stands in for ThreadPoolExecutor: runs a submitted call at once, on the
    calling thread, so slot 1 runs before slot 0 and never beside it."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except BaseException as exc:
            done.set_exception(exc)
        return done


def tiled_step(model, X, y, runner=None):
    """Loss, predictions and summed gradient arrays of the mean squared error,
    each tile forwarded and backpropagated in turn, as tuning.train does, in
    `runner` or in one made for X."""
    B = X.shape[0]
    pred = np.empty(B)

    def tile(workspace, a, b):
        pred[a:b], cache = forward_batch(model, X[a:b], exact=False, workspace=workspace)
        return backward_batch(model, cache, 2.0 * (pred[a:b] - y[a:b]) / B).param_arrays()

    if runner is None:
        runner = rnn.TileRunner(model, X.shape[1], [(B, True)])
    grads = runner.run(B, tile)
    return float(np.mean((pred - y) ** 2)), pred, grads


def close(got, want, rel):
    """Every entry within `rel` times the largest entry of want; an all-zero
    want (a W grad of one-step windows, whose state is zero) needs zeros."""
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestTileRunner:
    @settings(deadline=None, max_examples=30)
    @given(
        mode=st.sampled_from(["gru", "bigru"]),
        layers=st.integers(1, 3),
        hidden=st.integers(1, 64),
        n_features=st.integers(1, 9),
        length=st.integers(1, 7),
        batch=st.integers(1, 300),
        exact=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_kernels_equal_serial_cells_bitwise(self, mode, layers, hidden, n_features,
                                                length, batch, exact, seed):
        """forward_batch predictions and every backward_batch gradient equal the
        oracle's, which scans in fresh buffers and also forms the bottom layer's
        input gradient, with and without a workspace."""
        model = init_params(n_features, hidden, layers, mode, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((batch, length, n_features))
        d_pred = rng.standard_normal(batch)
        want_pred, want_grads = serial_cells(model, X, d_pred, exact)
        for workspace in (None, rnn.Workspace(model, length, [(batch, True)])):
            pred, cache = forward_batch(model, X, exact=exact, workspace=workspace)
            assert np.array_equal(pred, want_pred)
            grads = backward_batch(model, cache, d_pred).param_arrays()
            assert len(grads) == len(want_grads)
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))

    @settings(deadline=None, max_examples=30)
    @given(
        mode=st.sampled_from(["gru", "bigru"]),
        layers=st.integers(1, 3),
        hidden=st.integers(1, 40),
        n_features=st.integers(1, 9),
        length=st.integers(1, 6),
        rows=st.integers(1, 40),
        batch=st.integers(1, 180),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tiles_match_the_full_batch(self, mode, layers, hidden, n_features, length,
                                        rows, batch, seed):
        """With tiles of about `rows` windows (1 to 180 tiles), the tiled loss and
        predictions match one full-batch forward_batch to 1e-12 relative and the
        gradients match backward_batch to 1e-10; two threads and one give the
        same bits, and the exact path predicts the same bits tile by tile."""
        model = init_params(n_features, hidden, layers, mode, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((batch, length, n_features))
        y = rng.standard_normal(batch)
        want_pred, cache = forward_batch(model, X, exact=False)
        want_loss = float(np.mean((want_pred - y) ** 2))
        want_grads = backward_batch(model, cache, 2.0 * (want_pred - y) / batch).param_arrays()
        exact = forward_batch(model, X, exact=True)[0]
        with mock.patch.object(rnn, "_TILE_ELEMENTS", rows * hidden):
            loss, pred, grads = tiled_step(model, X, y)
            assert np.array_equal(predict_batch(model, X), exact)
            with mock.patch.object(rnn, "ThreadPoolExecutor", _Inline):
                inline = tiled_step(model, X, y)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        assert close(pred, want_pred, 1e-12)
        assert len(grads) == len(want_grads)
        assert all(close(g, w, 1e-10) for g, w in zip(grads, want_grads))
        assert inline[0] == loss and np.array_equal(inline[1], pred)
        assert all(np.array_equal(g, w) for g, w in zip(inline[2], grads))

    @settings(deadline=None, max_examples=25)
    @given(
        mode=st.sampled_from(["gru", "bigru"]),
        layers=st.integers(1, 3),
        hidden=st.integers(1, 64),
        n_features=st.integers(1, 5),
        length=st.integers(1, 6),
        n_train=st.integers(1, 700),
        n_eval=st.integers(2, 700),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(mode="bigru", layers=2, hidden=50, n_features=3, length=6, n_train=1,
             n_eval=700, seed=0)  # an evaluation tile of 234 windows, a training tile of 1
    def test_evaluation_in_a_training_runner_is_bitwise_standalone(
            self, mode, layers, hidden, n_features, length, n_train, n_eval, seed):
        """Predictions made in the workspaces of a runner that also trains, between
        its training steps, equal a standalone predict_batch bitwise, and the
        training steps equal those of a runner that only trains."""
        model = init_params(n_features, hidden, layers, mode, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_train, length, n_features))
        y = rng.standard_normal(n_train)
        X_eval = rng.standard_normal((n_eval, length, n_features))
        runner = rnn.TileRunner(model, length, [(n_train, True), (n_eval, False)])
        want_step = tiled_step(model, X, y)
        for _ in range(2):
            loss, pred, grads = tiled_step(model, X, y, runner)
            assert loss == want_step[0] and np.array_equal(pred, want_step[1])
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_step[2]))
            assert np.array_equal(predict_batch(model, X_eval, runner),
                                  predict_batch(model, X_eval))

    def test_dropping_a_runner_releases_its_mappings(self):
        """Each workspace block is a page mapping of its own, unmapped as soon
        as the runner and the arrays carved from its blocks are gone."""
        model = init_params(8, 50, 2, "bigru", seed=3)
        X = np.random.default_rng(4).standard_normal((700, 6, 8))
        runner = rnn.TileRunner(model, 6, [(2395, True), (700, False)])
        maps = [w._block.base.obj for w in runner.workspaces]
        assert len(maps) == 2 and all(isinstance(m, mmap.mmap) for m in maps)
        refs = [weakref.ref(m) for m in maps]
        predict_batch(model, X, runner)
        del maps
        assert all(r() is not None for r in refs)
        del runner
        assert all(r() is None for r in refs)

    def test_tiles_are_near_equal_and_follow_b_and_h(self):
        model = init_params(8, 50, 2, "bigru", seed=0)
        assert rnn.TileRunner(model, 6, [(328, False)]).tiles(328) == [(0, 328)]
        sizes = [b - a for a, b in rnn.TileRunner(model, 6, [(2395, False)]).tiles(2395)]
        assert sizes == [299, 299, 300, 299, 299, 300, 299, 300]
        runner = rnn.TileRunner(model, 6, [(1000, False)])
        assert [b - a for a, b in runner.tiles(1000)] == [250] * 4
        assert len(runner.workspaces) == 2

    @pytest.mark.parametrize("kernel", ["_gru_scan", "_gru_scan_backward"])
    def test_slot_error_reaches_caller(self, monkeypatch, kernel):
        """Slot 1 runs on another thread, its error reaches the caller, and no
        thread outlives a failed or a successful call."""
        monkeypatch.setattr(rnn, "_TILE_ELEMENTS", 4 * 4)
        model = init_params(3, 4, 2, "bigru", seed=7)
        X = np.random.default_rng(8).standard_normal((10, 4, 3))
        before = threading.active_count()
        caller = threading.get_ident()
        real = getattr(rnn, kernel)
        other_threads = set()
        fail = True

        def patched(*args, **kwargs):
            if threading.get_ident() != caller:
                other_threads.add(threading.get_ident())
                if fail:
                    raise FloatingPointError("slot 1 failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(rnn, kernel, patched)
        with pytest.raises(FloatingPointError, match="slot 1 failed"):
            tiled_step(model, X, np.ones(10))
        assert threading.active_count() == before
        fail = False
        tiled_step(model, X, np.ones(10))
        assert threading.active_count() == before
        assert other_threads

    def test_workspaces_allocated_on_calling_thread(self, monkeypatch):
        """Both slots' workspaces are allocated on the calling thread, and the
        tiles on both threads carve their arrays from them."""
        monkeypatch.setattr(rnn, "_TILE_ELEMENTS", 4 * 4)
        made, tile_threads = [], set()
        real_init, real_take = rnn.Workspace.__init__, rnn.Workspace.take

        def init(self, *args):
            made.append(threading.get_ident())
            real_init(self, *args)

        def take(self, shape):
            tile_threads.add(threading.get_ident())
            return real_take(self, shape)

        monkeypatch.setattr(rnn.Workspace, "__init__", init)
        monkeypatch.setattr(rnn.Workspace, "take", take)
        model = init_params(3, 4, 2, "bigru", seed=7)
        X = np.random.default_rng(8).standard_normal((10, 4, 3))
        tiled_step(model, X, np.ones(10))
        predict_batch(model, X)
        assert made == [threading.get_ident()] * 4
        assert len(tile_threads) == 2

    def test_training_step_memory_follows_the_tile_not_the_batch(self):
        """A training step allocates as many bytes at peak for 2 tiles as for
        20 tiles of the same size: the peak tracemalloc counts, which sees every
        numpy allocation but not the page-mapped workspace blocks, plus the
        bytes of those blocks. Python objects (the tile list, free lists) add a
        few KB for more tiles; one tile's gradient arrays alone are 385 KB here."""
        model = init_params(8, 50, 2, "bigru", seed=3)
        rows = -(-rnn._TILE_ELEMENTS // 50)
        rng = np.random.default_rng(4)

        def peak(n_tiles):
            X = rng.standard_normal((rows * n_tiles, 6, 8))
            y = rng.standard_normal(rows * n_tiles)
            B = X.shape[0]
            pred = np.empty(B)

            def tile(workspace, a, b):
                pred[a:b], cache = forward_batch(model, X[a:b], exact=False,
                                                 workspace=workspace)
                return backward_batch(model, cache, 2.0 * (pred[a:b] - y[a:b]) / B).param_arrays()

            tracemalloc.start()
            try:
                runner = rnn.TileRunner(model, 6, [(B, True)])
                runner.run(B, tile)
                blocks = sum(w._block.nbytes for w in runner.workspaces)
                return tracemalloc.get_traced_memory()[1] + blocks
            finally:
                tracemalloc.stop()

        with mock.patch.object(rnn, "ThreadPoolExecutor", _Inline):
            two, twenty = peak(2), peak(20)
        assert abs(twenty - two) < 64 * 1024
        full_caches = 8 * 20 * rows * 6 * 50 * 2 * 2 * 5  # gates, states and r*h per cell
        assert two < full_caches / 5


class TestModelBackward:
    def test_zero_upstream_gradient(self):
        model = init_params(3, 4, 2, "bigru", seed=71)
        X = np.random.default_rng(72).standard_normal((4, 3))
        _, cache = model_forward(model, X)
        grads = model_backward(model, cache, 0.0)
        assert all(np.all(g == 0.0) for g in grads.param_arrays())

    def test_head_bias_gradient_is_chain_rule_identity(self):
        model = init_params(2, 3, 1, "bigru", seed=81)
        X = np.random.default_rng(82).standard_normal((3, 2))
        target = 0.25
        pred, cache = model_forward(model, X)
        grads = model_backward(model, cache, 2.0 * (pred - target))
        assert grads.b_o[0] == 2.0 * (pred - target)

    def test_finite_differences_cornerstone_config(self):
        model = init_params(2, 3, 2, "bigru", seed=91)
        X = np.random.default_rng(92).standard_normal((4, 2))
        assert finite_diff_worst_rel_err(model, X) < 1e-4

    def test_finite_differences_random_configs(self):
        worst = max(random_config_check(seed) for seed in range(10))
        assert worst < 1e-4

    def test_cache_model_mismatch(self):
        model = init_params(2, 3, 2, "bigru", seed=1)
        other = init_params(2, 3, 1, "bigru", seed=1)
        X = np.random.default_rng(0).standard_normal((3, 2))
        _, cache = model_forward(model, X)
        with pytest.raises(ValueError, match="layer stack"):
            model_backward(other, cache, 1.0)


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(4, 6, 2, "bigru", seed=123)
        b = init_params(4, 6, 2, "bigru", seed=123)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)
        c = init_params(4, 6, 2, "bigru", seed=124)
        assert any(
            not np.array_equal(x, y)
            for x, y in zip(a.param_arrays(), c.param_arrays())
        )

    def test_bound_and_zero_biases(self):
        model = init_params(5, 9, 2, "bigru", seed=7)
        k = 1.0 / np.sqrt(9)
        for name, arr in model.param_items():
            if ".b_" in name or name == "head.b_o":
                assert np.all(arr == 0.0)
            else:
                assert np.all(np.abs(arr) < k)

    def test_empirical_mean_near_zero(self):
        model = init_params(20, 50, 2, "bigru", seed=5)
        entries = np.concatenate(
            [a.ravel() for n, a in model.param_items() if ".b_" not in n and "b_o" not in n]
        )
        assert entries.size > 10_000
        k = 1.0 / np.sqrt(50)
        sigma_mean = k / np.sqrt(3.0 * entries.size)
        assert abs(entries.mean()) < 3.0 * sigma_mean

    def test_structure_validation(self):
        with pytest.raises(ValueError, match="mode"):
            init_params(3, 4, 1, "lstm", seed=0)
        with pytest.raises(ValueError, match="positive"):
            init_params(0, 4, 1, "gru", seed=0)
        with pytest.raises(ValueError, match="input_dim"):
            Model(
                layers=[GruParams.zeros(3, 4), GruParams.zeros(3, 4)],
                w_o=np.zeros(4),
                b_o=np.zeros(1),
                mode="gru",
            )

    def test_param_count(self):
        model = init_params(3, 4, 1, "gru", seed=0)
        expected = 3 * (4 * 4) + 3 * (4 * 3) + 3 * 4 + 4 + 1
        assert model.n_params() == expected
        bi = init_params(3, 4, 1, "bigru", seed=0)
        assert bi.n_params() == 2 * (expected - 5) + 5

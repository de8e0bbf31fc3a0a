import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    finite_diff_worst_rel_err,
    hand_cell,
    random_config_check,
    scalar_trace,
    serial_bigru,
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


class TestThreadedDirections:
    @settings(deadline=None, max_examples=30)
    @given(
        layers=st.integers(1, 3),
        hidden=st.integers(1, 64),
        n_features=st.integers(1, 9),
        length=st.integers(1, 7),
        batch=st.integers(1, 300),
        exact=st.booleans(),
        min_block=st.sampled_from([0, rnn._THREAD_MIN_BLOCK]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_serial_directions_bitwise(self, layers, hidden, n_features,
                                              length, batch, exact, min_block, seed):
        """Predictions and every gradient equal the two directions scanned one
        after the other on the calling thread, whether the reverse direction
        ran on a second thread (min_block 0) or not."""
        model = init_params(n_features, hidden, layers, "bigru", seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((batch, length, n_features))
        d_pred = rng.standard_normal(batch)
        want_pred, want_grads = serial_bigru(model, X, d_pred, exact)
        with mock.patch.object(rnn, "_THREAD_MIN_BLOCK", min_block):
            pred, cache = forward_batch(model, X, exact=exact)
            grads = backward_batch(model, cache, d_pred).param_arrays()
        assert np.array_equal(pred, want_pred)
        assert len(grads) == len(want_grads)
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))

    @pytest.mark.parametrize("kernel", ["_gru_scan", "_gru_scan_backward"])
    def test_reverse_direction_error_reaches_caller(self, monkeypatch, kernel):
        """The reverse direction runs on another thread, its error reaches the
        caller, and no thread outlives a failed or a successful call."""
        monkeypatch.setattr(rnn, "_THREAD_MIN_BLOCK", 0)
        model = init_params(3, 4, 2, "bigru", seed=7)
        X = np.random.default_rng(8).standard_normal((5, 4, 3))
        before = threading.active_count()
        real = getattr(rnn, kernel)
        reverse_threads = set()
        fail = True

        def patched(p, state, *args, **kwargs):
            reverse = kwargs.get("reverse") if kernel == "_gru_scan" else state.reverse
            if reverse:
                reverse_threads.add(threading.get_ident())
                if fail:
                    raise FloatingPointError("reverse direction failed")
            return real(p, state, *args, **kwargs)

        monkeypatch.setattr(rnn, kernel, patched)
        with pytest.raises(FloatingPointError, match="reverse direction failed"):
            _, cache = forward_batch(model, X, exact=False)
            backward_batch(model, cache, np.ones(5))
        assert threading.active_count() == before
        fail = False
        _, cache = forward_batch(model, X, exact=False)
        backward_batch(model, cache, np.ones(5))
        assert threading.active_count() == before
        assert reverse_threads and threading.get_ident() not in reverse_threads


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

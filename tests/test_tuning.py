import csv
import dataclasses
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import clipped_adam
from pue_forecast import rnn, tuning
from pue_forecast.dataset import (
    NormalizationParams,
    WindowedSet,
    fit_normalizer,
    generate_synthetic,
    normalize,
    split_chronological,
    window,
)
from pue_forecast.rnn import forward_batch, init_params
from pue_forecast.tuning import (
    Checkpoint,
    TrainConfig,
    TrainingDiverged,
    TuneRecord,
    TuneReport,
    _Job,
    _run_job,
    adam_step,
    grid_search,
    train,
)


def make_windowed(n=80, n_features=3, W=4, seed=0, train_fraction=0.75):
    ds = generate_synthetic(n, n_features, 0, seed=seed)
    tr, te = split_chronological(ds, train_fraction)
    norm = fit_normalizer(tr)
    return window(normalize(tr, norm), W), window(normalize(te, norm), W), norm, ds


def unit_norm(n_features):
    names = [f"f{i}" for i in range(n_features)]
    return NormalizationParams(names, np.zeros(n_features), np.ones(n_features), 0.0, 1.0)


class TestAdam:
    def test_zero_gradient_first_step_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        adam_step(p, np.zeros(3), (np.zeros(3), np.zeros(3)), t=1, lr=0.1)
        assert np.array_equal(p, [1.0, -2.0, 3.0])

    def test_three_step_scalar_hand_trace(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [0.5, -0.3, 0.2]
        # plain-python reference recurrence
        ref_p, ref_m, ref_v = 1.0, 0.0, 0.0
        trace = []
        for t, g in enumerate(grads, start=1):
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g * g
            mhat = ref_m / (1 - b1**t)
            vhat = ref_v / (1 - b2**t)
            ref_p = ref_p - lr * mhat / (vhat**0.5 + eps)
            trace.append(ref_p)

        p, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
        for t, g in enumerate(grads, start=1):
            adam_step(p, np.array([g]), (m, v), t=t, lr=lr)
            assert abs(p[0] - trace[t - 1]) < 1e-12

    def test_constant_gradient_step_approaches_lr(self):
        g_val = 0.37
        p, m, v = np.array([0.0]), np.zeros(1), np.zeros(1)
        steps = []
        for t in range(1, 3001):
            before = p[0]
            adam_step(p, np.array([g_val]), (m, v), t=t, lr=0.01)
            steps.append(abs(p[0] - before))
        assert steps[-1] == pytest.approx(0.01, rel=1e-3)

    def test_one_step_allocates_one_temporary(self):
        """A step on a 100k-element vector keeps at most one full-size
        temporary live and gives the bits of the one-expression update."""
        rng = np.random.default_rng(0)
        p, g, m = (rng.normal(size=100_000) for _ in range(3))
        v = rng.uniform(0.0, 1.0, size=100_000)
        want_m = 0.9 * m + (1.0 - 0.9) * g
        want_v = 0.999 * v + (1.0 - 0.999) * (g * g)
        want = p - 0.01 * (want_m / (1.0 - 0.9**3)) / (
            np.sqrt(want_v / (1.0 - 0.999**3)) + 1e-8)
        tracemalloc.start()
        try:
            adam_step(p, g, (m, v), t=3, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * p.nbytes
        assert p.tobytes() == want.tobytes()

    def test_validation(self):
        p = np.zeros(2)
        with pytest.raises(ValueError, match="t must be"):
            adam_step(p, np.zeros(2), (np.zeros(2), np.zeros(2)), t=0, lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, np.zeros(3), (np.zeros(2), np.zeros(2)), t=1, lr=0.1)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=0.0,
                          max_epochs=20, eval_every=5, mode="gru", seed=9, window=4)
        ckpt, hist = train(ws_tr, ws_te, cfg, norm)
        init = init_params(3, 3, 1, "gru", seed=9)
        assert np.array_equal(ckpt.params, init.params)
        assert len(set(hist.train_loss)) == 1

    def test_clip_above_every_norm_changes_nothing(self):
        ws_tr, ws_te, norm, _ = make_windowed(n=100, seed=4)
        cfg = TrainConfig(layers=2, hidden_dim=4, learning_rate=0.05, max_epochs=30,
                          eval_every=10, mode="bigru", seed=4, window=4)
        plain, _ = train(ws_tr, ws_te, cfg, norm)
        clipped, _ = train(ws_tr, ws_te, dataclasses.replace(cfg, grad_clip=1e6), norm)
        assert clipped.params.tobytes() == plain.params.tobytes()
        assert (clipped.best_epoch, clipped.best_loss, clipped.metrics) == (
            plain.best_epoch, plain.best_loss, plain.metrics)

    @pytest.mark.parametrize("mode", ["gru", "bigru"])
    def test_clipped_steps_equal_the_scalar_oracle(self, mode):
        """Two clipped Adam steps on a one-tile batch give the oracle's bits: the
        norm adds per-array sums of squares in Python, and both steps clip."""
        ws_tr, ws_te, norm, _ = make_windowed(n=100, seed=5)
        cfg = TrainConfig(layers=2, hidden_dim=4, learning_rate=0.05, max_epochs=2,
                          eval_every=2, mode=mode, seed=5, window=4, grad_clip=0.05)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        want, norms = clipped_adam(cfg, ws_tr.windows, ws_tr.targets, epochs=2)
        assert all(n > cfg.grad_clip for n in norms)
        assert ckpt.best_epoch == 2
        assert ckpt.params.tobytes() == want.tobytes()

    def test_single_window_smoke_training(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, size=(1, 3, 2))
        ws_tr = WindowedSet(w, np.array([0.6]), 3)
        ws_te = WindowedSet(rng.uniform(0, 1, size=(2, 3, 2)), np.array([0.5, 0.7]), 3)
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01,
                          max_epochs=500, eval_every=500, mode="bigru", seed=1, window=3)
        _, hist = train(ws_tr, ws_te, cfg, unit_norm(2))
        assert hist.train_loss[-1] < hist.train_loss[0]

    @pytest.mark.parametrize("n_train, n_eval, message", [
        (0, 2, "training set is empty"),
        (1, 1, "evaluation set needs at least two windows"),
    ], ids=["no_training_window", "one_held_out_window"])
    def test_too_few_windows_rejected(self, n_train, n_eval, message):
        ws_tr = WindowedSet(np.zeros((n_train, 3, 2)), np.zeros(n_train), 3)
        ws_te = WindowedSet(np.zeros((n_eval, 3, 2)), np.zeros(n_eval), 3)
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01,
                          max_epochs=2, eval_every=2, mode="gru", window=3)
        with pytest.raises(ValueError, match=message):
            train(ws_tr, ws_te, cfg, unit_norm(2))

    def test_eval_cadence(self):
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01,
                          max_epochs=50, eval_every=10, mode="gru", seed=2, window=4)
        _, hist = train(ws_tr, ws_te, cfg, norm)
        assert [e.epoch for e in hist.evals] == [10, 20, 30, 40, 50]

    def test_checkpoint_not_worse_than_any_eval(self):
        ws_tr, ws_te, norm, _ = make_windowed(n=120, seed=3)
        cfg = TrainConfig(layers=1, hidden_dim=4, learning_rate=0.02,
                          max_epochs=60, eval_every=10, mode="bigru", seed=3, window=4)
        ckpt, hist = train(ws_tr, ws_te, cfg, norm)
        assert ckpt.best_loss <= min(e.mse for e in hist.evals)
        assert ckpt.best_epoch in [e.epoch for e in hist.evals]
        assert ckpt.metrics["mse"] == ckpt.best_loss

    def test_checkpoint_metrics_consistent_with_saved_predictions(self):
        ws_tr, ws_te, norm, _ = make_windowed(n=120, seed=5)
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=0.02,
                          max_epochs=30, eval_every=10, mode="gru", seed=5, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        preds = ckpt.predict(ws_te.windows)
        err = preds - ws_te.targets
        assert abs(float(np.mean(err * err)) - ckpt.metrics["mse"]) < 1e-12
        assert abs(float(np.mean(np.abs(err))) - ckpt.metrics["mae"]) < 1e-12

    def test_checkpoint_on_train_loss_mode(self):
        ws_tr, ws_te, norm, _ = make_windowed(n=100, seed=6)
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=0.02,
                          max_epochs=40, eval_every=20, mode="gru", seed=6,
                          window=4, checkpoint_on_train_loss=True)
        ckpt, hist = train(ws_tr, ws_te, cfg, norm)
        assert ckpt.best_loss == min(hist.train_loss)
        assert "mse" in ckpt.metrics

    def test_train_loss_checkpoint_keeps_the_scored_params(self):
        """The parameters kept under checkpoint_on_train_loss are the ones whose
        fast-path training MSE was recorded as best_loss, not one step newer."""
        ws_tr, ws_te, norm, _ = make_windowed(n=100, seed=6)
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=0.02,
                          max_epochs=40, eval_every=20, mode="gru", seed=6,
                          window=4, checkpoint_on_train_loss=True)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        pred, _ = forward_batch(ckpt.to_model(), ws_tr.windows, exact=False)
        err = pred - ws_tr.targets
        assert float(np.mean(err * err)) == ckpt.best_loss

    @pytest.mark.parametrize("on_train_loss, lr", [(False, 0.01), (True, 0.01), (False, 0.0)])
    def test_workspaces_are_built_once(self, monkeypatch, on_train_loss, lr):
        """One train call makes one runner, with a workspace per slot, and its
        evaluations and final scoring run in them."""
        runners, made = [], []
        real_runner, real_workspace = rnn.TileRunner.__init__, rnn.Workspace.__init__

        def runner_init(self, *args, **kwargs):
            runners.append(self)
            real_runner(self, *args, **kwargs)

        def workspace_init(self, *args, **kwargs):
            made.append(self)
            real_workspace(self, *args, **kwargs)

        monkeypatch.setattr(rnn.TileRunner, "__init__", runner_init)
        monkeypatch.setattr(rnn.Workspace, "__init__", workspace_init)
        monkeypatch.setattr(rnn, "_TILE_ELEMENTS", 8 * 3)  # tiles of 8 windows
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=lr, max_epochs=4,
                          eval_every=1, mode="bigru", seed=4, window=4,
                          checkpoint_on_train_loss=on_train_loss)
        train(ws_tr, ws_te, cfg, norm)
        assert len(runners) == 1 and made == runners[0].workspaces
        assert len(made) == 2

    def test_divergence_detection(self):
        w = np.zeros((2, 3, 2))
        bad = WindowedSet(w, np.array([np.inf, 1.0]), 3)
        ws_te = WindowedSet(np.zeros((2, 3, 2)), np.array([0.5, 0.7]), 3)
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=3)
        with pytest.raises(TrainingDiverged):
            train(bad, ws_te, cfg, unit_norm(2))

    def test_window_mismatch_rejected(self, monkeypatch):
        """Windows of another length than the config's, or another width than
        the normalization's names, fail before any epoch runs."""
        ws_tr, ws_te, _, _ = make_windowed(W=4)

        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(tuning, "forward_batch", no_epoch)
        # (config window, normalization names, held-out window width)
        for window, n_names, eval_width in [(5, 3, 3), (4, 2, 3), (4, 3, 2)]:
            ws_ev = WindowedSet(ws_te.windows[:, :, :eval_width], ws_te.targets, 4)
            cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01, max_epochs=10,
                              eval_every=10, mode="gru", seed=0, window=window)
            with pytest.raises(ValueError, match="window shape mismatch"):
                train(ws_tr, ws_ev, cfg, unit_norm(n_names))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1,
                        max_epochs=10, eval_every=20)
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, mode="rnn")
        # a negative threshold flips the clipped gradient's sign; zero zeroes it
        for clip in (0.0, -1.0, float("nan"), True, "5"):
            with pytest.raises(ValueError, match="grad_clip"):
                TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, grad_clip=clip)
        TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, grad_clip=float("inf"))
        for flag in ("no", 1, None):
            with pytest.raises(ValueError, match="checkpoint_on_train_loss must be a bool"):
                TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1,
                            checkpoint_on_train_loss=flag)
        for lr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(layers=1, hidden_dim=2, learning_rate=lr)
        for lr in (0.0, 1e300):
            TrainConfig(layers=1, hidden_dim=2, learning_rate=lr)
        # integer fields take ints only; a float or a bool would reach range()
        # or the parameter shapes
        for name in ("layers", "hidden_dim", "max_epochs", "eval_every", "seed", "window"):
            for bad in (2.0, True, "2"):
                with pytest.raises(ValueError, match=f"{name} must be an int"):
                    TrainConfig(**{"layers": 1, "hidden_dim": 2, "learning_rate": 0.1,
                                   name: bad})
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, seed=-1)
        for name in ("beta1", "beta2"):
            for bad in (-0.1, 1.0, float("nan"), "x", True):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, **{name: bad})
        for bad in (0.0, -1e-8, float("inf"), "x"):
            with pytest.raises(ValueError, match="eps"):
                TrainConfig(layers=1, hidden_dim=2, learning_rate=0.1, eps=bad)


class TestCheckpointPersistence:
    def test_roundtrip_predicts_bitwise(self, tmp_path):
        ws_tr, ws_te, norm, ds = make_windowed(n=100, seed=8)
        cfg = TrainConfig(layers=2, hidden_dim=3, learning_rate=0.02,
                          max_epochs=20, eval_every=10, mode="bigru", seed=8, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        windows = np.random.default_rng(0).uniform(0, 1, size=(100, 4, 3))
        assert np.array_equal(ckpt.predict(windows), loaded.predict(windows))
        assert loaded.feature_names == list(ds.feature_names)
        assert np.array_equal(loaded.normalization.feature_min, norm.feature_min)
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.config == ckpt.config

    def test_unsupported_version_rejected(self, tmp_path):
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.02,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        text = path.read_text()
        for version in ("99", "true", "1.0"):
            path.write_text(text.replace('"format_version": 1', f'"format_version": {version}'))
            with pytest.raises(ValueError, match="version"):
                Checkpoint.load(path)

    def test_malformed_fields_name_file_and_field(self, tmp_path):
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.02,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        good = tmp_path / "good.json"
        ckpt.save(good)
        doc = json.loads(good.read_text())
        b64 = doc["params_b64"]
        cases = {
            "shapes": [dict(doc, shapes=bad) for bad in (
                [["W_x"]], "W_x", [[0, [2]]], [["W_x", [2, -1]]], [["W_x", 2]])],
            # without validation the non-alphabet characters are dropped and
            # the rest decodes to a payload of the right size
            "params_b64": [dict(doc, params_b64=b64[:8] + "!!!!" + b64[8:]),
                           dict(doc, params_b64=b64[:-4] + "=" + b64[-3:]),
                           dict(doc, params_b64=7)],
            "feature_names": [dict(doc, normalization=dict(
                doc["normalization"], feature_names=doc["feature_names"][::-1]))],
        }
        for field, docs in cases.items():
            for i, bad in enumerate(docs):
                path = tmp_path / f"bad_{i}.json"
                path.write_text(json.dumps(bad))
                with pytest.raises(ValueError, match=re.escape(f"{path}: field '{field}'")):
                    Checkpoint.load(path)

    def test_extra_normalization_key_is_ignored(self, tmp_path):
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.02,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        doc = json.loads(path.read_text())
        doc["normalization"]["note"] = "fitted on the training split"
        path.write_text(json.dumps(doc))
        assert Checkpoint.load(path).normalization.to_json() == norm.to_json()

    def test_inconsistent_fields_fail_at_load(self, tmp_path):
        """Fields of the wrong type, or that disagree with the normalization or
        with the config, fail at load naming the file and the field, not at predict."""
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.02,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        good = tmp_path / "good.json"
        ckpt.save(good)
        doc = json.loads(good.read_text())
        norm_doc = doc["normalization"]
        cases = [
            ("n_features", dict(doc, n_features="3")),
            ("n_features", dict(doc, n_features=2)),
            ("metrics", dict(doc, metrics=None)),
            ("best_epoch", dict(doc, best_epoch="x")),
            ("best_loss", dict(doc, best_loss=None)),
            # the same arrays in another order: the payload size still matches
            ("shapes", dict(doc, shapes=doc["shapes"][::-1])),
            ("metrics.mse", dict(doc, metrics=dict(doc["metrics"], mse="x"))),
            ("metrics.mse", dict(doc, metrics=dict(doc["metrics"], mse=float("nan")))),
            ("metrics.mae", dict(doc, metrics=dict(doc["metrics"], mae=None))),
            ("metrics.mae", dict(doc, metrics=dict(doc["metrics"], mae=True))),
            ("metrics.r2", dict(doc, metrics=dict(doc["metrics"], r2="x"))),
            ("metrics.r2", dict(doc, metrics=dict(doc["metrics"], r2=float("inf")))),
        ]
        cases = [(f"field '{field}'", bad) for field, bad in cases]
        lo, hi = norm_doc["feature_min"], norm_doc["feature_max"]
        # each bad value is reported under 'normalization' with its sub-field
        cases += [(f"field 'normalization': {next(iter(bad))}",
                   dict(doc, normalization=dict(norm_doc, **bad)))
                  for bad in (
                      dict(feature_min=lo[:2]),
                      dict(feature_min=[None] + lo[1:]),
                      dict(feature_max=hi[:-1] + ["x"]),
                      dict(feature_max=hi[:-1] + [float("inf")]),
                      dict(target_min="x"),
                      dict(target_min=None),
                      dict(target_min=True),
                      dict(target_max=float("nan")),
                      dict(feature_min=[v + 1.0 for v in hi]),
                  )]
        cases.append(("field 'normalization': expected a JSON object",
                      dict(doc, normalization=None)))
        # and each bad config value under 'config' with its name
        cases += [(f"field 'config': {next(iter(bad))}",
                   dict(doc, config=dict(doc["config"], **bad)))
                  for bad in (
                      dict(layers=1.5),
                      dict(hidden_dim=True),
                      dict(window=4.0),
                      dict(max_epochs=2.5),
                      dict(seed=None),
                      dict(beta1="x"),
                      dict(beta2=1.0),
                      dict(eps=0),
                      dict(grad_clip=True),
                      dict(grad_clip="5"),
                      dict(checkpoint_on_train_loss="no"),
                  )]
        for i, (expected, bad) in enumerate(cases):
            path = tmp_path / f"bad_{i}.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
                Checkpoint.load(path)

    def test_feature_names_must_be_distinct_strings(self, tmp_path):
        """Names that are not strings, or repeat, fail at load naming the file
        and the field, not later as a column missing from the input CSV."""
        ws_tr, ws_te, norm, _ = make_windowed()
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.02,
                          max_epochs=10, eval_every=10, mode="gru", seed=0, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        good = tmp_path / "good.json"
        ckpt.save(good)
        doc = json.loads(good.read_text())
        n = doc["n_features"]
        numbers, repeated = list(range(1, n + 1)), [doc["feature_names"][0]] * n

        def both(names):
            return dict(doc, feature_names=names,
                        normalization=dict(doc["normalization"], feature_names=names))

        in_norm = "field 'normalization': feature_names must be a list of distinct strings"
        cases = [
            (in_norm, both(numbers)),
            (in_norm, both(repeated)),
            (in_norm, dict(both(repeated), feature_names=None)),
            (f"field 'feature_names' must be {doc['feature_names']!r}",
             dict(doc, feature_names=numbers)),
        ]
        for i, (expected, bad) in enumerate(cases):
            path = tmp_path / f"bad_{i}.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
                Checkpoint.load(path)


class TestGridSearch:
    def test_degenerate_grid_equals_single_train(self):
        ds = generate_synthetic(80, 3, 1, seed=12)
        report = grid_search(
            ds, [list(ds.feature_names)], mode="gru",
            layers_grid=(1,), hidden_grid=(3,), lr_grid=(0.02,),
            window_length=4, train_fraction=0.75, max_epochs=20, eval_every=10,
            seed=40,
        )
        assert len(report.records) == 1
        rec = report.records[0]

        sub = ds.select(list(ds.feature_names))
        tr, te = split_chronological(sub, 0.75)
        norm = fit_normalizer(tr)
        ws_tr = window(normalize(tr, norm), 4)
        ws_te = window(normalize(te, norm), 4)
        cfg = TrainConfig(layers=1, hidden_dim=3, learning_rate=0.02,
                          max_epochs=20, eval_every=10, mode="gru", seed=40, window=4)
        ckpt, _ = train(ws_tr, ws_te, cfg, norm)
        assert rec.mse == ckpt.metrics["mse"]
        assert rec.best_epoch == ckpt.best_epoch
        assert np.array_equal(report.checkpoints[0].params, ckpt.params)

    def test_deterministic_across_worker_counts(self):
        ds = generate_synthetic(70, 3, 0, seed=14)
        kwargs = dict(
            mode="bigru", layers_grid=(1,), hidden_grid=(2, 3), lr_grid=(0.02,),
            window_length=3, train_fraction=0.7, max_epochs=10, eval_every=5,
            seed=7,
        )
        serial = grid_search(ds, [list(ds.feature_names)], workers=1, **kwargs)
        parallel = grid_search(ds, [list(ds.feature_names)], workers=2, **kwargs)
        assert serial.records == parallel.records
        for si in serial.checkpoints:
            assert np.array_equal(
                serial.checkpoints[si].params, parallel.checkpoints[si].params
            )

    def test_one_grid_point_runs_in_process(self, monkeypatch):
        ds = generate_synthetic(70, 3, 0, seed=15)
        kwargs = dict(mode="gru", layers_grid=(1,), hidden_grid=(2,), lr_grid=(0.02,),
                      window_length=3, train_fraction=0.7, max_epochs=6, eval_every=3)
        serial = grid_search(ds, [list(ds.feature_names)], workers=1, **kwargs)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-job grid started a process pool")

        monkeypatch.setattr(tuning, "ProcessPoolExecutor", no_pool)
        parallel = grid_search(ds, [list(ds.feature_names)], workers=2, **kwargs)
        assert serial.records == parallel.records
        assert np.array_equal(serial.checkpoints[0].params, parallel.checkpoints[0].params)

    @pytest.mark.parametrize("on_train_loss", [False, True])
    def test_evaluation_in_the_training_runner_changes_no_byte(
            self, monkeypatch, tmp_path, on_train_loss):
        """Records and winner checkpoints are byte-identical to those of
        evaluating in a runner made for each evaluation, including where a
        held-out tile is larger than a training tile."""
        ds = generate_synthetic(90, 3, 1, seed=15)
        monkeypatch.setattr(rnn, "_TILE_ELEMENTS", 8 * 3)

        def files(tag, **kwargs):
            report = grid_search(
                ds, [list(ds.feature_names), ["it_power_kw", "outdoor_temp_c"]], mode="bigru",
                layers_grid=(1, 2), hidden_grid=(3, 1), lr_grid=(0.02, 0.0),
                window_length=4, max_epochs=6, eval_every=2, seed=3,
                checkpoint_on_train_loss=on_train_loss, **kwargs)
            paths = [tmp_path / f"{tag}-records.csv"]
            report.to_records_csv(paths[0])
            for si, ckpt in report.checkpoints.items():
                paths.append(tmp_path / f"{tag}-{si}.json")
                ckpt.save(paths[-1])
            return [p.read_bytes() for p in paths]

        shared = files("shared")
        few_train = files("few-train", train_fraction=0.2)  # 15 training, 69 held-out windows
        standalone = rnn.predict_batch
        monkeypatch.setattr(tuning, "predict_batch",
                            lambda model, X, runner=None: standalone(model, X))
        assert files("shared") == shared
        assert files("few-train", train_fraction=0.2) == few_train

    def test_winners_and_best(self):
        ds = generate_synthetic(80, 3, 1, seed=15)
        sets = [list(ds.feature_names), list(ds.feature_names[:3])]
        report = grid_search(
            ds, sets, mode="gru", layers_grid=(1,), hidden_grid=(2, 3),
            lr_grid=(0.02,), window_length=3, train_fraction=0.75,
            max_epochs=10, eval_every=5, seed=1,
        )
        assert len(report.records) == 4
        winners = report.winners()
        assert len(winners) == 2
        assert {w.feature_set_index for w in winners} == {0, 1}
        for w in winners:
            peers = [r for r in report.records
                     if r.feature_set_index == w.feature_set_index]
            assert w.mse == min(p.mse for p in peers)
        assert report.best.mse == min(r.mse for r in report.records)

    def test_pue_units_scaling(self):
        ds = generate_synthetic(80, 3, 0, seed=16)
        kwargs = dict(
            mode="gru", layers_grid=(1,), hidden_grid=(2,), lr_grid=(0.02,),
            window_length=3, train_fraction=0.75, max_epochs=10, eval_every=5,
            seed=2,
        )
        norm_units = grid_search(ds, [list(ds.feature_names)], **kwargs)
        pue = grid_search(ds, [list(ds.feature_names)], pue_units=True, **kwargs)
        tr, _ = split_chronological(ds, 0.75)
        span = fit_normalizer(tr).target_max - fit_normalizer(tr).target_min
        a, b = norm_units.records[0], pue.records[0]
        assert b.mse == a.mse * span * span
        assert b.mae == a.mae * span
        assert b.r2 == a.r2

    def test_pue_units_scale_a_diverged_runs_mse(self):
        # a step of 1e300 overflows the next forward pass; the diverged row
        # keeps its last finite training loss, in the units of the trained rows
        ds = generate_synthetic(80, 3, 0, seed=16)
        kwargs = dict(mode="gru", layers_grid=(1,), hidden_grid=(2,), lr_grid=(1e300,),
                      window_length=3, train_fraction=0.75, max_epochs=4, eval_every=2)
        (a,) = grid_search(ds, [list(ds.feature_names)], **kwargs).records
        (b,) = grid_search(ds, [list(ds.feature_names)], pue_units=True, **kwargs).records
        tr, _ = split_chronological(ds, 0.75)
        span = fit_normalizer(tr).target_max - fit_normalizer(tr).target_min
        assert a.failed and b.failed and a.mse > 0
        assert b.mse == a.mse * span * span

    def test_unknown_feature_name(self):
        ds = generate_synthetic(50, 3, 0, seed=17)
        with pytest.raises(ValueError, match="unknown"):
            grid_search(ds, [["nope"]], mode="gru", layers_grid=(1,),
                        hidden_grid=(2,), lr_grid=(0.1,), window_length=3,
                        train_fraction=0.7, max_epochs=5, eval_every=5)

    def test_failed_run_recorded_not_fatal(self):
        bad_tr = WindowedSet(np.zeros((2, 3, 2)), np.array([np.inf, 1.0]), 3)
        ws_te = WindowedSet(np.zeros((2, 3, 2)), np.array([0.5, 0.7]), 3)
        cfg = TrainConfig(layers=1, hidden_dim=2, learning_rate=0.01,
                          max_epochs=5, eval_every=5, mode="gru", seed=0, window=3)
        norm = NormalizationParams(["a", "b"], np.zeros(2), np.ones(2), 1.0, 2.0)
        job = _Job(0, "set00_n2", bad_tr, ws_te, cfg, norm, False)
        rec, ckpt = _run_job(job)
        assert rec.failed and ckpt is None
        assert "non-finite" in rec.error

    def test_divergence_emits_no_warning(self):
        # a step of 1e300 overflows the next forward pass: the run is recorded
        # as diverged and numpy's overflow in the loss stays silent
        ds = generate_synthetic(80, 3, 0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = grid_search(ds, [list(ds.feature_names)], mode="gru",
                                 layers_grid=(1,), hidden_grid=(2,), lr_grid=(1e300,),
                                 window_length=4, max_epochs=5, eval_every=5)
        (rec,) = report.records
        assert rec.failed
        assert "non-finite" in rec.error

    def test_csv_shape(self, tmp_path):
        ds = generate_synthetic(70, 3, 0, seed=18)
        report = grid_search(
            ds, [list(ds.feature_names)], mode="gru", layers_grid=(1,),
            hidden_grid=(2,), lr_grid=(0.05,), window_length=3,
            train_fraction=0.75, max_epochs=10, eval_every=5, seed=3,
        )
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "selected_features,layers,hidden,lr,epochs,mse,mae,r2"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "3"


class TestTuneReportSelection:
    def _rec(self, si, mse, n_params):
        return TuneRecord(
            feature_set_index=si, feature_set_label=f"set{si}", n_features=1,
            layers=1, hidden_dim=2, learning_rate=0.1, n_params=n_params,
            best_epoch=5, mse=mse, mae=0.1, r2=0.5,
        )

    def test_tie_prefers_fewer_parameters(self):
        records = [self._rec(0, 0.5, 100), self._rec(0, 0.5, 50), self._rec(0, 0.7, 10)]
        report = TuneReport(records=records, checkpoints={})
        assert report.best.n_params == 50
        assert report.winners()[0].n_params == 50

    def test_failed_records_excluded(self):
        bad = self._rec(0, None, 10)
        bad.failed = True
        bad.mse = None
        report = TuneReport(records=[bad, self._rec(0, 0.9, 99)], checkpoints={})
        assert report.best.mse == 0.9

    def test_records_csv_keeps_error_message(self, tmp_path):
        bad = self._rec(0, None, 10)
        bad.failed = True
        bad.error = 'ValueError: got "x", then y\nsecond line'
        path = tmp_path / "records.csv"
        TuneReport(records=[bad, self._rec(0, 0.9, 99)], checkpoints={}).to_records_csv(path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [bad.error, ""]
        assert [r["failed"] for r in rows] == ["1", "0"]


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(["gru", "bigru"]), st.integers(1, 3), st.integers(1, 16),
    st.integers(1, 4), st.integers(0, 2**32 - 1),
)
def test_checkpoint_roundtrip_is_bitwise(mode, layers, hidden, n_features, seed):
    rng = np.random.default_rng(seed)
    model = init_params(n_features, hidden, layers, mode, seed=seed)
    params = rng.standard_normal(model.n_params()) * np.exp2(
        rng.integers(-60, 60, model.n_params()))
    params[0] = -0.0
    names = [f"f{i}" for i in range(n_features)]
    lo = rng.normal(size=n_features)
    norm = NormalizationParams(names, lo, lo + rng.uniform(0, 3, n_features),
                               float(rng.normal()), float(rng.normal()) + 2.0)
    ckpt = Checkpoint(
        config=TrainConfig(layers=layers, hidden_dim=hidden, learning_rate=0.01,
                           mode=mode, seed=seed, window=3),
        params=params,
        best_epoch=int(rng.integers(1, 4000)),
        best_loss=float(rng.uniform()),
        metrics={"mse": float(rng.uniform()), "mae": float(rng.uniform()), "r2": None},
        normalization=norm,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
    assert loaded.params.tobytes() == params.tobytes()
    assert (loaded.config, loaded.n_features, loaded.best_epoch, loaded.best_loss,
            loaded.metrics, loaded.feature_names) == (
        ckpt.config, n_features, ckpt.best_epoch, ckpt.best_loss, ckpt.metrics,
        names)
    assert [(n, tuple(s)) for n, s in loaded.shapes] == ckpt.shapes
    for f in ("feature_min", "feature_max"):
        assert getattr(loaded.normalization, f).tobytes() == getattr(norm, f).tobytes()
    assert (loaded.normalization.target_min, loaded.normalization.target_max) == (
        norm.target_min, norm.target_max)
    windows = rng.uniform(0, 1, size=(5, 3, n_features))
    assert loaded.predict(windows).tobytes() == ckpt.predict(windows).tobytes()


@pytest.mark.parametrize("mode, layers", [("gru", 1), ("bigru", 2)])
def test_models_are_views_of_one_vector_in_payload_order(monkeypatch, tmp_path, mode, layers):
    """The arrays of an init_params model, of Checkpoint.to_model and of a
    backward_batch result (with a workspace or without) are views of the
    model's params at the offsets Checkpoint.shapes gives; the shapes, saving,
    loading and to_model draw no random weights; a to_model model writes into a
    copy, not into ckpt.params."""
    model = init_params(3, 4, layers, mode, seed=1)
    cfg = TrainConfig(layers=layers, hidden_dim=4, learning_rate=0.01, mode=mode, window=5)
    ckpt = Checkpoint(config=cfg, params=model.params.copy(), best_epoch=1, best_loss=0.5,
                      metrics={"mse": 0.5, "mae": 0.5, "r2": None}, normalization=unit_norm(3))

    def no_draws(*args, **kwargs):
        raise AssertionError("init_params called")

    monkeypatch.setattr(tuning, "init_params", no_draws)
    ckpt.save(tmp_path / "ckpt.json")
    loaded = Checkpoint.load(tmp_path / "ckpt.json").to_model()
    X = np.random.default_rng(2).standard_normal((6, 5, 3))
    workspace = rnn.Workspace(model, 5, 6)
    grads = [rnn.backward_batch(model, forward_batch(model, X, False, ws)[1], np.ones(6))
             for ws in (None, workspace)]
    assert np.shares_memory(grads[1].params, workspace._block)
    for m in [model, ckpt.to_model(), loaded] + grads:
        start = m.params.__array_interface__["data"][0]
        offset = 0
        for (name, arr), (want_name, shape) in zip(m.param_items(), ckpt.shapes, strict=True):
            assert (name, arr.shape) == (want_name, shape) and arr.flags.c_contiguous
            assert arr.__array_interface__["data"][0] == start + 8 * offset
            offset += arr.size
        assert offset == m.params.size == m.n_params()
    assert np.array_equal(grads[0].params, grads[1].params)
    copy = ckpt.to_model()
    for arr in copy.param_arrays():
        arr += 1.0
    assert ckpt.params.tobytes() == model.params.tobytes()
    assert np.array_equal(copy.params, model.params + 1.0)

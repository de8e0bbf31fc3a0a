import base64
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pue_forecast import tuning
from pue_forecast.cli import main
from pue_forecast.dataset import load_csv
from pue_forecast.metrics import evaluate
from pue_forecast.tuning import Checkpoint


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert run_cli("generate", "--samples", "120", "--informative", "3",
                   "--noise", "2", "--seed", "5", "-o", str(path)) == 0
    return path


class TestGenerate:
    def test_deterministic_output_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("generate", "--samples", "100", "--seed", "42", "-o", str(a)) == 0
        assert run_cli("generate", "--samples", "100", "--seed", "42", "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_column_count(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("generate", "--samples", "30", "--seed", "1", "-o", str(out)) == 0
        header = out.read_text().split("\n", 1)[0].split(",")
        # timestamp + 8 informative + 24 noise + PUE
        assert len(header) == 34
        assert header[0] == "timestamp" and header[-1] == "PUE"

    def test_too_few_informative_channels_names_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--informative", "2", "-o", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        assert ("argument --informative: 2 is fewer than the 3 channels of IT power, "
                "cooling power and outdoor temperature") in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_channels_past_the_eighth_are_facility_drivers(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("generate", "--samples", "20", "--informative", "9", "--noise", "0",
                       "--seed", "1", "-o", str(out)) == 0
        ds = load_csv(out)
        assert ds.feature_names[8] == "facility_driver_08"
        assert ds.n_features == 9

    def test_zero_samples_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--samples", "0", "-o", str(tmp_path / "x.csv"))
        assert exc.value.code != 0

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("generate", "--samples", "20", "--seed", "3", "-o", str(out))
        doc = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert doc["command"] == "generate"
        assert doc["seeds"] == [3]
        assert doc["flags"]["samples"] == 20
        assert str(out) in doc["outputs"]
        assert doc["duration_seconds"] >= 0


OUT_OF_RANGE = [
    ("generate", "--samples", "0"),
    ("generate", "--informative", "0"),
    ("generate", "--noise", "-1"),
    ("generate", "--seed", "-1"),
    ("select-features", "--seed", "-1"),
    ("tune", "--seed", "-1"),
    ("select-features", "--top-k", "0"),
    ("select-features", "--step", "0"),
    ("select-features", "--folds", "1"),
    ("select-features", "--split", "1"),
    ("select-features", "--workers", "0"),
    ("select-features", "--trees", "0"),
    ("select-features", "--depth", "0"),
    ("select-features", "--lr", "0"),
    ("select-features", "--lr", "-1"),
    ("select-features", "--lr", "inf"),
    ("tune", "--layers", "0"),
    ("tune", "--hidden", "0"),
    ("tune", "--lr", "-1"),
    ("tune", "--lr", "nan"),
    ("tune", "--lr", "inf"),
    ("tune", "--window", "0"),
    ("tune", "--max-epochs", "0"),
    ("tune", "--eval-every", "0"),
    ("tune", "--grad-clip", "0"),
    ("tune", "--grad-clip", "-1"),
    ("tune", "--grad-clip", "nan"),
]


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE,
                         ids=[f"{c}{f}={v}" for c, f, v in OUT_OF_RANGE])
def test_a_value_out_of_its_flag_range_is_a_usage_error(small_csv, tmp_path, capsys,
                                                         command, flag, value):
    """argparse rejects the value, naming flag and value, before any file is read
    or written."""
    before = set(tmp_path.rglob("*"))
    io = ["-o", str(tmp_path / "out.csv")] if command == "generate" else [
        "-i", str(small_csv), "-o", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *io, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(rf"argument {flag}(/-\w)?: {re.escape(value)} ", err), err
    assert set(tmp_path.rglob("*")) == before


class TestCsvErrors:
    """A malformed telemetry CSV fails the command, naming the file and the cell."""

    @pytest.mark.parametrize("text, message", [
        ("timestamp,a,b,PUE\n2024-01-01T00:00:00,1,2,1.5\nyesterday,1,2,1.5\n",
         "row 2, column 'timestamp': invalid ISO-8601 timestamp 'yesterday'"),
        ("timestamp,a,b,PUE\n", "no data rows"),
    ], ids=["timestamp", "header_only"])
    def test_select_features_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = run_cli("select-features", "-i", str(path), "-o", str(tmp_path / "sel"),
                       "--lr", "0.1", "--trees", "2", "--depth", "1")
        assert code == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()


class TestSelectFeatures:
    def test_single_config_run(self, small_csv, tmp_path):
        outdir = tmp_path / "sel"
        code = run_cli(
            "select-features", "-i", str(small_csv), "-o", str(outdir),
            "--lr", "0.1", "--trees", "30", "--depth", "3", "--top-k", "6",
        )
        assert code == 0
        doc = json.loads((outdir / "feature_sets.json").read_text())
        assert len(doc) == 1
        assert doc[0]["config"] == {
            "learning_rate": 0.1, "n_estimators": 30, "max_depth": 3,
            "reg_lambda": 1.0,
        }
        assert (outdir / "mse_by_count.csv").exists()
        assert (outdir / "manifest.json").exists()

    def test_top_k_bounds_result_count(self, small_csv, tmp_path):
        outdir = tmp_path / "sel2"
        code = run_cli(
            "select-features", "-i", str(small_csv), "-o", str(outdir),
            "--lr", "0.3", "0.1", "--trees", "10", "20", "--depth", "2",
            "--top-k", "2",
        )
        assert code == 0
        doc = json.loads((outdir / "feature_sets.json").read_text())
        assert 1 <= len(doc) <= 2

    def test_non_finite_learning_rate_is_an_error(self, small_csv, tmp_path, capsys):
        outdir = tmp_path / "sel"
        with pytest.raises(SystemExit) as exc:
            run_cli("select-features", "-i", str(small_csv), "-o", str(outdir),
                    "--lr", "nan", "--trees", "3", "--depth", "2", "--folds", "3")
        assert exc.value.code == 2
        assert ("argument --lr: nan is not a finite learning rate above 0"
                in capsys.readouterr().err)
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--folds", "200"],
         "--folds 200 exceeds the 96 training rows that --split 0.8 leaves of 120 rows"),
    ], ids=["folds"])
    def test_flag_errors_name_the_flag(self, small_csv, tmp_path, capsys, flags, message):
        code = run_cli("select-features", "-i", str(small_csv), "-o", str(tmp_path / "sel"),
                       "--lr", "0.1", "--trees", "3", "--depth", "2", *flags)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_too_few_feature_columns_names_the_csv(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("timestamp,a,PUE\n" + "".join(
            f"2024-01-01T{h:02d}:00:00,{h}.0,1.5\n" for h in range(20)))
        code = run_cli("select-features", "-i", str(csv), "-o", str(tmp_path / "sel"),
                       "--lr", "0.1", "--trees", "3", "--depth", "2", "--folds", "3")
        assert code == 1
        assert (f"{csv}: 1 feature column(s); select-features needs at least 2"
                in capsys.readouterr().err)

    def test_one_fold_is_a_usage_error(self, small_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select-features", "-i", str(small_csv), "-o", str(tmp_path / "sel"),
                    "--folds", "1")
        assert exc.value.code == 2
        assert "argument --folds: 1 is fewer than 2 folds" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli("select-features", "-i", str(tmp_path / "absent.csv"),
                       "-o", str(tmp_path / "out"))
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err


class TestTune:
    def test_single_config_and_artifacts(self, small_csv, tmp_path):
        outdir = tmp_path / "tune"
        code = run_cli(
            "tune", "-i", str(small_csv), "-o", str(outdir), "--mode", "bigru",
            "--layers", "1", "--hidden", "3", "--lr", "0.02",
            "--window", "4", "--max-epochs", "20", "--eval-every", "10",
            "--seed", "9",
        )
        assert code == 0
        report = (outdir / "tune_report.csv").read_text().strip().split("\n")
        assert report[0] == "selected_features,layers,hidden,lr,epochs,mse,mae,r2"
        assert len(report) == 2
        row = report[1].split(",")
        assert row[0] == "5" and row[1] == "1" and row[2] == "3"
        assert (outdir / "tune_records.csv").exists()
        ckpts = sorted(outdir.glob("checkpoint_*.json"))
        assert len(ckpts) == 1
        ckpt = Checkpoint.load(ckpts[0])
        assert ckpt.config.mode == "bigru"
        assert ckpt.feature_names is not None

    def test_deterministic_report(self, small_csv, tmp_path):
        args = [
            "tune", "-i", str(small_csv), "--mode", "gru",
            "--layers", "1", "--hidden", "2", "--lr", "0.02",
            "--window", "3", "--max-epochs", "10", "--eval-every", "5",
            "--seed", "3",
        ]
        run_cli(*args, "-o", str(tmp_path / "t1"))
        run_cli(*args, "-o", str(tmp_path / "t2"))
        assert (tmp_path / "t1" / "tune_report.csv").read_bytes() == (
            tmp_path / "t2" / "tune_report.csv"
        ).read_bytes()

    def test_feature_sets_from_json(self, small_csv, tmp_path):
        sel = tmp_path / "sel"
        run_cli("select-features", "-i", str(small_csv), "-o", str(sel),
                "--lr", "0.3", "--trees", "20", "--depth", "3")
        outdir = tmp_path / "tune"
        code = run_cli(
            "tune", "-i", str(small_csv), "-f", str(sel / "feature_sets.json"),
            "-o", str(outdir), "--mode", "gru", "--layers", "1", "--hidden", "2",
            "--lr", "0.02", "--window", "3", "--max-epochs", "10",
            "--eval-every", "5",
        )
        assert code == 0
        doc = json.loads((sel / "feature_sets.json").read_text())
        row = (outdir / "tune_report.csv").read_text().strip().split("\n")[1]
        assert row.split(",")[0] == str(len(doc[0]["selected_features"]))

    def test_bad_feature_sets_file_names_file_entry_and_field(self, small_csv, tmp_path,
                                                              capsys):
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps([{"selected_features": "it_power_kw"}]))
        code = run_cli("tune", "-i", str(small_csv), "-f", str(sets),
                       "-o", str(tmp_path / "tune"), "--max-epochs", "2",
                       "--eval-every", "2")
        assert code == 1
        assert f"{sets}: entry 0: field 'selected_features'" in capsys.readouterr().err

    def test_feature_set_columns_the_csv_lacks_are_named(self, small_csv, tmp_path, capsys):
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps([{"selected_features": ["it_power_kw"]},
                                    {"selected_features": ["it_power_kw", "nope"]}]))
        code = run_cli("tune", "-i", str(small_csv), "-f", str(sets),
                       "-o", str(tmp_path / "tune"), "--max-epochs", "2",
                       "--eval-every", "2")
        assert code == 1
        assert (f"{small_csv}: missing feature column(s) required by {sets} entry 1: "
                "['nope']") in capsys.readouterr().err
        assert not (tmp_path / "tune").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--window", "30"], "--window 30 exceeds 23, the longest that cuts 2 window(s) "
                             "from the 24 rows of the held-out partition that --split 0.8 "
                             "leaves of 120 rows"),
        (["--window", "24"], "--window 24 exceeds 23, the longest that cuts 2 window(s) "
                             "from the 24 rows of the held-out partition that --split 0.8 "
                             "leaves of 120 rows"),
        (["--window", "13", "--split", "0.1"],
         "--window 13 exceeds 12, the longest that cuts 1 window(s) from the 12 rows of "
         "the training partition that --split 0.1 leaves of 120 rows"),
        (["--window", "3", "--split", "0.995"],
         "--split 0.995 leaves the held-out partition 1 of 120 rows, too few to cut 2 "
         "windows of any --window length"),
        (["--eval-every", "5"], "--eval-every 5 exceeds --max-epochs 2"),
    ], ids=["window", "window_one_held_out", "window_training", "split", "eval_every"])
    def test_flag_errors_name_the_flag(self, small_csv, tmp_path, capsys, flags, message):
        code = run_cli("tune", "-i", str(small_csv), "-o", str(tmp_path / "tune"),
                       "--mode", "gru", "--layers", "1", "--hidden", "2", "--lr", "0.02",
                       "--max-epochs", "2", "--eval-every", "2", *flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "tune").exists()

    def test_learning_rate_0_and_an_infinite_clip_run(self, small_csv, tmp_path):
        outdir = tmp_path / "tune"
        assert run_cli("tune", "-i", str(small_csv), "-o", str(outdir), "--mode", "gru",
                       "--layers", "1", "--hidden", "2", "--lr", "0", "--window", "3",
                       "--max-epochs", "2", "--eval-every", "2", "--grad-clip", "inf") == 0
        flags = json.loads((outdir / "manifest.json").read_text())["flags"]
        assert (flags["lr"], flags["grad_clip"]) == ([0.0], float("inf"))

    def test_a_csv_without_feature_columns_is_named(self, small_csv, tmp_path, capsys):
        ds = load_csv(small_csv)
        bare = tmp_path / "bare.csv"
        bare.write_text("timestamp,PUE\n" + "".join(
            f"{t},{y!r}\n" for t, y in zip(ds.timestamps[:80], ds.y.tolist())))
        code = run_cli("tune", "-i", str(bare), "-o", str(tmp_path / "tune"),
                       "--mode", "gru", "--layers", "1", "--hidden", "2", "--lr", "0.02",
                       "--window", "3", "--max-epochs", "2", "--eval-every", "2")
        assert code == 1
        assert f"{bare}: no feature column; tune needs at least 1" in capsys.readouterr().err
        assert not (tmp_path / "tune").exists()

    def test_all_configs_failed_is_an_error(self, small_csv, tmp_path, capsys):
        # a step of 1e300 overflows the next forward pass, so training diverges
        code = run_cli(
            "tune", "-i", str(small_csv), "-o", str(tmp_path / "tune"),
            "--mode", "gru", "--layers", "1", "--hidden", "2", "--lr", "1e300",
            "--window", "3", "--max-epochs", "4", "--eval-every", "2",
        )
        assert code == 1
        assert "all 1 configs failed" in capsys.readouterr().err
        assert not list((tmp_path / "tune").glob("checkpoint_*.json"))


    def test_a_grid_point_that_fails_otherwise_records_type_and_message(
            self, small_csv, tmp_path, capsys, monkeypatch):
        def broken_train(*args):
            raise ArithmeticError("no room for the model")

        monkeypatch.setattr(tuning, "train", broken_train)
        code = run_cli("tune", "-i", str(small_csv), "-o", str(tmp_path / "tune"),
                       "--mode", "gru", "--layers", "1", "--hidden", "2", "--lr", "0.02",
                       "--window", "3", "--max-epochs", "2", "--eval-every", "2")
        assert code == 1
        assert ("all 1 configs failed, no checkpoint written; first error: "
                "ArithmeticError: no room for the model") in capsys.readouterr().err
        with (tmp_path / "tune" / "tune_records.csv").open(newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["failed"], row["error"], row["mse"]) == (
            "1", "ArithmeticError: no room for the model", "")


class TestPredict:
    def _tune(self, csv_path, tmp_path, window="4"):
        outdir = tmp_path / "tr"
        assert run_cli(
            "tune", "-i", str(csv_path), "-o", str(outdir), "--mode", "gru",
            "--layers", "1", "--hidden", "3", "--lr", "0.05",
            "--window", window, "--max-epochs", "30", "--eval-every", "10",
            "--seed", "2",
        ) == 0
        return next(outdir.glob("checkpoint_*.json"))

    def test_prediction_file_shape(self, small_csv, tmp_path):
        ckpt = self._tune(small_csv, tmp_path)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "-c", str(ckpt), "-i", str(small_csv),
                       "-o", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "timestamp,predicted_PUE"
        assert len(lines) == 1 + 120 - 4 + 1  # header + n - W + 1 rows
        first = lines[1].split(",")
        ds = load_csv(small_csv)
        assert first[0] == ds.timestamps[3]
        assert (tmp_path / "preds.csv.manifest.json").exists()

    def test_reproduces_checkpoint_metrics(self, small_csv, tmp_path):
        ckpt_path = self._tune(small_csv, tmp_path)
        ckpt = Checkpoint.load(ckpt_path)
        out = tmp_path / "preds.csv"
        run_cli("predict", "-c", str(ckpt_path), "-i", str(small_csv), "-o", str(out))

        ds = load_csv(small_csv)
        n_train = int(0.8 * ds.n_samples)
        W = ckpt.config.window
        preds = {}
        for line in out.read_text().strip().split("\n")[1:]:
            ts, v = line.split(",")
            preds[ts] = float(v)
        # held-out target rows start W-1 rows into the test partition
        eval_rows = range(n_train + W - 1, ds.n_samples)
        y_pred = np.array([preds[ds.timestamps[i]] for i in eval_rows])
        y_true = ds.y[list(eval_rows)]
        span = ckpt.normalization.target_max - ckpt.normalization.target_min
        rep = evaluate(y_true, y_pred)
        assert rep.mse == pytest.approx(ckpt.metrics["mse"] * span * span, rel=1e-9)
        assert rep.mae == pytest.approx(ckpt.metrics["mae"] * span, rel=1e-9)

    def test_extra_columns_ignored(self, small_csv, tmp_path):
        ckpt = self._tune(small_csv, tmp_path)
        text = small_csv.read_text().strip().split("\n")
        header = text[0].split(",")
        header.insert(2, "extra_column")
        rows = [header]
        for line in text[1:]:
            cells = line.split(",")
            cells.insert(2, "42.0")
            rows.append(cells)
        bigger = tmp_path / "bigger.csv"
        bigger.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "p.csv"
        assert run_cli("predict", "-c", str(ckpt), "-i", str(bigger),
                       "-o", str(out)) == 0

    def test_missing_feature_column_named(self, small_csv, tmp_path, capsys):
        ckpt = self._tune(small_csv, tmp_path)
        text = small_csv.read_text().strip().split("\n")
        header = text[0].split(",")
        drop = header.index("outdoor_temp_c")
        rows = [",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                for line in text]
        smaller = tmp_path / "smaller.csv"
        smaller.write_text("\n".join(rows) + "\n")
        code = run_cli("predict", "-c", str(ckpt), "-i", str(smaller),
                       "-o", str(tmp_path / "p.csv"))
        assert code == 1
        assert "outdoor_temp_c" in capsys.readouterr().err

    def test_malformed_checkpoint_names_file_and_field(self, small_csv, tmp_path, capsys):
        ckpt = self._tune(small_csv, tmp_path)
        doc = json.loads(ckpt.read_text())
        short = dict(doc, params_b64=doc["params_b64"][:-12])
        missing = {k: v for k, v in doc.items() if k != "params_b64"}
        no_norm_min = dict(doc, normalization={
            k: v for k, v in doc["normalization"].items() if k != "feature_min"})
        for name, bad in (("short", short), ("missing", missing), ("norm", no_norm_min)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(bad))
            code = run_cli("predict", "-c", str(path), "-i", str(small_csv),
                           "-o", str(tmp_path / "p.csv"))
            err = capsys.readouterr().err
            assert code == 1
            assert str(path) in err
            assert ("feature_min" if name == "norm" else "params_b64") in err

    def test_non_finite_parameter_names_file_and_field(self, small_csv, tmp_path, capsys):
        ckpt = self._tune(small_csv, tmp_path)
        doc = json.loads(ckpt.read_text())
        params = np.frombuffer(base64.b64decode(doc["params_b64"]), dtype="<f8").copy()
        params[3] = np.nan
        doc["params_b64"] = base64.b64encode(params.tobytes()).decode("ascii")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code = run_cli("predict", "-c", str(path), "-i", str(small_csv),
                       "-o", str(tmp_path / "p.csv"))
        assert code == 1
        assert (f"{path}: field 'params_b64' contains non-finite values"
                in capsys.readouterr().err)
        assert not (tmp_path / "p.csv").exists()

    def test_negative_seed_in_the_config_fails_at_load(self, small_csv, tmp_path, capsys):
        ckpt = self._tune(small_csv, tmp_path)
        doc = json.loads(ckpt.read_text())
        doc["config"]["seed"] = -3
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        code = run_cli("predict", "-c", str(path), "-i", str(small_csv),
                       "-o", str(tmp_path / "p.csv"))
        assert code == 1
        assert (f"{path}: field 'config': seed must be non-negative, got -3"
                in capsys.readouterr().err)

    def test_checkpoint_without_input_columns_names_file_and_field(
            self, small_csv, tmp_path, capsys):
        doc = json.loads(self._tune(small_csv, tmp_path).read_text())
        doc.update(feature_names=[], n_features=0)
        doc["normalization"].update(feature_names=[], feature_min=[], feature_max=[])
        path = tmp_path / "none.json"
        path.write_text(json.dumps(doc))
        code = run_cli("predict", "-c", str(path), "-i", str(small_csv),
                       "-o", str(tmp_path / "p.csv"))
        assert code == 1
        assert (f"{path}: field 'normalization': feature_names must be a list of distinct "
                "strings, one or more, got []") in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_checkpoint_not_an_object_or_not_json(self, small_csv, tmp_path, capsys):
        for name, text in (("list", "[1, 2]"), ("broken", '{"format_version": 1,')):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            code = run_cli("predict", "-c", str(path), "-i", str(small_csv),
                           "-o", str(tmp_path / "p.csv"))
            err = capsys.readouterr().err
            assert code == 1
            assert f"{path}: " in err
            assert ("expected a JSON object" if name == "list" else "not valid JSON") in err

    def test_missing_output_directories_are_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "p.csv"
        assert run_cli("predict", "-c", str(DATA / "compat_gru_l1_h2.json"),
                       "-i", str(DATA / "compat.csv"), "-o", str(out)) == 0
        assert out.read_bytes() == (DATA / "compat_gru_l1_h2_predict.csv").read_bytes()

    def test_input_shorter_than_window(self, small_csv, tmp_path, capsys):
        ckpt = self._tune(small_csv, tmp_path)
        text = small_csv.read_text().strip().split("\n")
        short = tmp_path / "short.csv"
        short.write_text("\n".join(text[:3]) + "\n")
        code = run_cli("predict", "-c", str(ckpt), "-i", str(short),
                       "-o", str(tmp_path / "p.csv"))
        assert code == 1
        assert "window" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["compat_bigru_l2_h3", "compat_gru_l1_h2"])
def test_committed_checkpoints_predict_and_save_the_same_bytes(tmp_path, name):
    """Checkpoints and predictions written by an earlier version stay readable
    and bitwise reproducible. The fixtures came from

        generate -n 40 --informative 3 --noise 1 --seed 7 -o compat.csv
        tune -i compat.csv --window 3 --max-epochs 20 --eval-every 10
             --mode bigru --layers 2 --hidden 3 --lr 0.01 --seed 1   (bigru)
             --mode gru --layers 1 --hidden 2 --lr 0.05 --seed 2     (gru)
        predict -c <checkpoint> -i compat.csv -o <checkpoint>_predict.csv
    """
    ckpt = DATA / f"{name}.json"
    out = tmp_path / "p.csv"
    assert run_cli("predict", "-c", str(ckpt), "-i", str(DATA / "compat.csv"),
                   "-o", str(out)) == 0
    assert out.read_bytes() == (DATA / f"{name}_predict.csv").read_bytes()
    Checkpoint.load(ckpt).save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == ckpt.read_bytes()


class TestManifests:
    def test_every_command_records_what_it_read_and_wrote(self, tmp_path):
        """generate -> select-features -> tune -> predict: each manifest names
        its command, its seed, the files it read and exactly the files it wrote."""
        data, sel, tune = tmp_path / "data.csv", tmp_path / "sel", tmp_path / "tune"
        preds = tmp_path / "preds.csv"
        sets = sel / "feature_sets.json"

        def run(manifest, *argv):
            before = set(tmp_path.rglob("*"))
            assert run_cli(*argv) == 0
            wrote = {p for p in tmp_path.rglob("*") if p.is_file()} - before - {manifest}
            doc = json.loads(manifest.read_text())
            assert doc["command"] == argv[0]
            assert sorted(doc["outputs"]) == sorted(str(p) for p in wrote)
            return doc

        doc = run(tmp_path / "data.csv.manifest.json", "generate", "--samples", "120",
                  "--informative", "3", "--noise", "2", "--seed", "5", "-o", str(data))
        assert (doc["seeds"], doc["inputs"]) == ([5], [])
        doc = run(sel / "manifest.json", "select-features", "-i", str(data), "-o", str(sel),
                  "--lr", "0.3", "0.1", "--trees", "10", "--depth", "2", "--folds", "3",
                  "--seed", "6")
        assert (doc["seeds"], doc["inputs"]) == ([6], [str(data)])
        doc = run(tune / "manifest.json", "tune", "-i", str(data), "-f", str(sets),
                  "-o", str(tune), "--mode", "gru", "--layers", "1", "--hidden", "2",
                  "--lr", "0.02", "--window", "3", "--max-epochs", "4",
                  "--eval-every", "2", "--seed", "7")
        assert (doc["seeds"], doc["inputs"]) == ([7], [str(data), str(sets)])
        ckpt = str(sorted(tune.glob("checkpoint_*.json"))[0])
        doc = run(tmp_path / "preds.csv.manifest.json", "predict", "-c", ckpt,
                  "-i", str(data), "-o", str(preds))
        assert (doc["seeds"], doc["inputs"]) == ([], [ckpt, str(data)])

    def test_failed_command_writes_no_manifest(self, small_csv, tmp_path):
        outdir = tmp_path / "tune"
        assert run_cli(
            "tune", "-i", str(small_csv), "-o", str(outdir), "--mode", "gru",
            "--layers", "1", "--hidden", "2", "--lr", "1e300", "--window", "3",
            "--max-epochs", "4", "--eval-every", "2",
        ) == 1
        assert (outdir / "tune_records.csv").exists()
        assert not (outdir / "manifest.json").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pue_forecast.cli", "generate",
             "--samples", "10", "--seed", "1", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_pool_workers_log_at_the_callers_level(self, tmp_path):
        """Spawned pool workers set up logging as the CLI does: each
        (learning rate, depth) group of select-features logs its info line,
        and each tune grid point its debug lines."""
        data = tmp_path / "d.csv"
        assert run_cli("generate", "--samples", "60", "--informative", "3", "--noise", "2",
                       "--seed", "1", "-o", str(data)) == 0

        def stderr(level, *argv):
            proc = subprocess.run(
                [sys.executable, "-m", "pue_forecast.cli", *argv, "-i", str(data),
                 "--lr", "0.1", "0.05", "--workers", "2"],
                capture_output=True, text=True, env={**os.environ, "PUE_FORECAST_LOG": level},
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stderr

        err = stderr("info", "select-features", "-o", str(tmp_path / "sel"),
                     "--trees", "2", "--depth", "1", "--folds", "3")
        assert sorted(re.findall(r"^INFO pue_forecast\.rfecv: rfecv lr=(\S+) ", err, re.M)) == [
            "0.05", "0.1"]
        err = stderr("debug", "tune", "-o", str(tmp_path / "tune"), "--mode", "gru",
                     "--layers", "1", "--hidden", "2", "--window", "3", "--max-epochs", "2",
                     "--eval-every", "2")
        assert len(re.findall(r"^DEBUG pue_forecast\.tuning: epoch 2 ", err, re.M)) == 2

    def test_log_env_var(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pue_forecast.cli", "generate",
             "--samples", "10", "--seed", "1", "-o", str(tmp_path / "d.csv")],
            capture_output=True, text=True,
            env={**os.environ, "PUE_FORECAST_LOG": "debug"},
        )
        assert proc.returncode == 0
        assert "wrote" in proc.stderr  # info-level message now visible

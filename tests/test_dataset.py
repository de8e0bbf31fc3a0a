import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import loop_train_rows, loop_windows
from pue_forecast.dataset import (
    CsvFormatError,
    Dataset,
    NormalizationParams,
    WindowedSet,
    denormalize,
    denormalize_target,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    normalize,
    split_chronological,
    window,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


CSV_3ROWS = """timestamp,f1,f2,PUE
2024-01-01T00:00:00,1.0,10.0,1.2
2024-01-01T00:10:00,2.0,20.0,1.3
2024-01-01T00:20:00,3.0,30.0,1.4
"""


class TestLoadCsv:
    def test_basic_schema(self, tmp_path):
        ds = load_csv(_write(tmp_path, CSV_3ROWS))
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.feature_names == ["f1", "f2"]
        assert np.array_equal(ds.y, [1.2, 1.3, 1.4])
        assert np.array_equal(ds.X[:, 1], [10.0, 20.0, 30.0])
        assert ds.timestamps[0] == "2024-01-01T00:00:00"

    def test_target_matched_by_name_not_position(self, tmp_path):
        text = (
            "f1,PUE,timestamp,f2\n"
            "1.0,1.5,2024-01-01T00:00:00,4.0\n"
            "2.0,1.6,2024-01-01T00:10:00,5.0\n"
        )
        ds = load_csv(_write(tmp_path, text))
        assert ds.feature_names == ["f1", "f2"]
        assert np.array_equal(ds.y, [1.5, 1.6])

    def test_non_numeric_cell_cites_location(self, tmp_path):
        rows = [
            f"2024-01-01T0{i}:00:00,1.0,{v},1.1"
            for i, v in enumerate(["2", "2", "2", "2", "oops", "2"])
        ]
        path = _write(tmp_path, "timestamp,f1,f2,PUE\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match=r"row 5.*'f2'"):
            load_csv(path)

    def test_missing_target_column(self, tmp_path):
        path = _write(tmp_path, "timestamp,f1\n2024-01-01T00:00:00,1.0\n")
        with pytest.raises(CsvFormatError, match="PUE"):
            load_csv(path)

    def test_missing_timestamp_column(self, tmp_path):
        path = _write(tmp_path, "f1,PUE\n1.0,1.0\n")
        with pytest.raises(CsvFormatError, match="timestamp"):
            load_csv(path)

    def test_ragged_row_cites_row(self, tmp_path):
        text = CSV_3ROWS + "2024-01-01T00:30:00,4.0,40.0\n"
        with pytest.raises(CsvFormatError, match="row 4"):
            load_csv(_write(tmp_path, text))

    def test_duplicate_feature_name(self, tmp_path):
        path = _write(
            tmp_path, "timestamp,f1,f1,PUE\n2024-01-01T00:00:00,1.0,2.0,1.0\n"
        )
        with pytest.raises(CsvFormatError, match="f1"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        text = CSV_3ROWS.replace("30.0", "inf")
        with pytest.raises(CsvFormatError, match=r"row 3.*'f2'"):
            load_csv(_write(tmp_path, text))

    def test_timestamps_must_increase(self, tmp_path):
        text = CSV_3ROWS.replace("00:20:00", "00:10:00")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(_write(tmp_path, text))

    def test_mixed_naive_and_aware_timestamps(self, tmp_path):
        for second in ("2024-01-01T00:10:00+00:00", "2024-01-01T00:10:00Z"):
            text = CSV_3ROWS.replace("2024-01-01T00:10:00", second)
            path = _write(tmp_path, text)
            where = re.escape(f"{path}: row 2, column 'timestamp'")
            with pytest.raises(CsvFormatError, match=where + ".*offset-aware"):
                load_csv(path)
        aware_first = CSV_3ROWS.replace("2024-01-01T00:00:00", "2024-01-01T00:00:00+01:00")
        with pytest.raises(CsvFormatError, match=r"row 2, column 'timestamp'"):
            load_csv(_write(tmp_path, aware_first))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(_write(tmp_path, ""))

    @pytest.mark.parametrize("text", [
        CSV_3ROWS + "\n",
        CSV_3ROWS.replace("1.2\n", "1.2\n\n\n"),
    ], ids=["trailing", "mid_file"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        ds = load_csv(_write(tmp_path, text))
        assert ds.n_samples == 3
        assert np.array_equal(ds.y, [1.2, 1.3, 1.4])

    def test_rows_after_a_blank_line_keep_their_file_numbers(self, tmp_path):
        text = CSV_3ROWS.replace("1.2\n", "1.2\n\n").replace("30.0", "x")
        path = _write(tmp_path, text)
        with pytest.raises(CsvFormatError, match=re.escape(f"{path}: row 4, column 'f2'")):
            load_csv(path)

    def test_header_and_blank_lines_only(self, tmp_path):
        path = _write(tmp_path, "timestamp,f1,PUE\n\n\n")
        with pytest.raises(CsvFormatError, match=re.escape(f"{path}: no data rows")):
            load_csv(path)

    @pytest.mark.parametrize("line, where, end", [
        (0, "header row", b"\n"), (3, "row 3", b"\n"), (3, "row 3", b"\r"),
    ], ids=["header", "data_row", "data_row_cr_line_ends"])
    def test_byte_that_is_not_utf8_names_file_and_row(self, tmp_path, line, where, end):
        lines = CSV_3ROWS.encode().split(b"\n")
        lines[line] += b"\xe9"  # Latin-1 for "e" with an acute accent
        path = tmp_path / "latin1.csv"
        path.write_bytes(end.join(lines))
        message = f"{path}: {where}: byte 0xe9 is not UTF-8 (invalid continuation byte)"
        with pytest.raises(CsvFormatError, match=re.escape(message)):
            load_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet tools save UTF-8 CSVs with a leading byte-order mark
        path = tmp_path / "bom.csv"
        path.write_text(CSV_3ROWS, encoding="utf-8-sig")
        ds = load_csv(path)
        assert ds.feature_names == ["f1", "f2"]
        assert ds.timestamps[0] == "2024-01-01T00:00:00"

    def test_roundtrip_through_write_csv(self, tmp_path):
        ds = generate_synthetic(40, 4, 3, seed=9)
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.timestamps == ds.timestamps


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(["a"], ["2024-01-01T00:00:00"], np.ones((2, 1)), np.ones(2))

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(
                ["a", "a"],
                ["t0", "t1"],
                np.ones((2, 2)),
                np.ones(2),
            )

    def test_non_finite_rejected(self):
        X = np.ones((2, 1))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Dataset(["a"], ["t0", "t1"], X, np.ones(2))

    def test_arrays_are_read_only(self):
        ds = generate_synthetic(10, 3, 0, seed=0)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.y[0] = 99.0

    def test_callers_arrays_stay_writable(self):
        """Dataset and NormalizationParams keep read-only views, not copies,
        of the arrays they are given, and leave those arrays writable."""
        X, y, lo, hi = np.ones((2, 1)), np.ones(2), np.zeros(1), np.ones(1)
        ds = Dataset(["a"], ["t0", "t1"], X, y)
        p = NormalizationParams(["a"], lo, hi, 0.0, 1.0)
        for given, kept in ((X, ds.X), (y, ds.y), (lo, p.feature_min), (hi, p.feature_max)):
            assert given.flags.writeable and not kept.flags.writeable
            assert np.shares_memory(given, kept)

    def test_select_projects_columns(self):
        ds = generate_synthetic(10, 3, 2, seed=0)
        sub = ds.select([ds.feature_names[2], ds.feature_names[0]])
        assert sub.feature_names == [ds.feature_names[2], ds.feature_names[0]]
        assert np.array_equal(sub.X[:, 0], ds.X[:, 2])
        with pytest.raises(ValueError, match="unknown"):
            ds.select(["nope"])


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic(100, 3, 0, seed=42)
        b = generate_synthetic(100, 3, 0, seed=42)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert a.timestamps == b.timestamps
        c = generate_synthetic(100, 3, 0, seed=43)
        assert not np.array_equal(a.y, c.y)

    def test_pue_ratio_bounds(self):
        ds = generate_synthetic(500, 4, 4, seed=3)
        assert ds.y.min() >= 1.0
        assert ds.y.min() >= 1.05 and ds.y.max() <= 2.0

    def test_shapes_and_names(self):
        ds = generate_synthetic(50, 5, 7, seed=1)
        assert ds.X.shape == (50, 12)
        assert ds.feature_names[0] == "it_power_kw"
        assert ds.feature_names[1] == "cooling_power_kw"
        assert ds.feature_names[2] == "outdoor_temp_c"
        assert ds.feature_names[5] == "aux_sensor_00"
        assert len(ds.timestamps) == 50

    def test_ten_minute_cadence(self):
        ds = generate_synthetic(3, 3, 0, seed=0)
        assert ds.timestamps == [
            "2024-01-01T00:00:00",
            "2024-01-01T00:10:00",
            "2024-01-01T00:20:00",
        ]

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n_informative"):
            generate_synthetic(10, 2, 0, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            generate_synthetic(0, 3, 0, seed=0)
        with pytest.raises(ValueError, match="n_noise"):
            generate_synthetic(10, 3, -1, seed=0)

    def test_negative_seed_names_the_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            generate_synthetic(10, 3, 0, seed=-1)

    def test_every_driver_has_its_own_period(self):
        """The strongest oscillation of each informative channel (the peak of
        its spectrum) sits at a different frequency, past the eighth too."""
        ds = generate_synthetic(6000, 12, 0, seed=1)
        spectra = np.abs(np.fft.rfft(ds.X - ds.X.mean(axis=0), axis=0))[1:]
        peaks = 1 + spectra.argmax(axis=0)
        assert 6000 / peaks[0] == pytest.approx(53, abs=0.5)
        assert len(set(peaks.tolist())) == 12

    def test_informative_channels_outcorrelate_noise(self):
        # Pearson correlation computed directly on the generated output
        ds = generate_synthetic(2000, 5, 15, seed=7)
        corr = np.array(
            [abs(np.corrcoef(ds.X[:, i], ds.y)[0, 1]) for i in range(ds.n_features)]
        )
        assert corr[:5].min() > corr[5:].max()


class TestNormalization:
    def test_min_max_of_known_column(self):
        ds = Dataset(
            ["a"], ["t0", "t1", "t2"], np.array([[2.0], [4.0], [6.0]]), np.ones(3) * 1.5
        )
        p = fit_normalizer(ds)
        assert p.feature_min[0] == 2.0 and p.feature_max[0] == 6.0

    def test_brute_force_column_scan(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2)) * [3.0, 50.0] + [1.0, -20.0]
        ds = Dataset(["a", "b"], [f"t{i}" for i in range(40)], X, rng.uniform(1, 2, 40))
        p = fit_normalizer(ds)
        for c in range(2):
            lo = hi = X[0, c]
            for r in range(40):
                lo = min(lo, X[r, c])
                hi = max(hi, X[r, c])
            assert p.feature_min[c] == lo and p.feature_max[c] == hi

    def test_endpoints_and_midpoint(self):
        ds = Dataset(
            ["a"], ["t0", "t1", "t2"], np.array([[2.0], [4.0], [6.0]]), np.ones(3) * 1.5
        )
        p = fit_normalizer(ds)
        nds = normalize(ds, p)
        assert nds.X[0, 0] == 0.0
        assert nds.X[2, 0] == 1.0
        assert nds.X[1, 0] == 0.5

    def test_constant_column_flagged_and_zeroed(self):
        ds = Dataset(
            ["c", "v"],
            ["t0", "t1", "t2"],
            np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
            np.array([1.0, 1.5, 2.0]),
        )
        p = fit_normalizer(ds)
        assert p.constant_features.tolist() == [True, False]
        nds = normalize(ds, p)
        assert np.all(nds.X[:, 0] == 0.0)

    def test_held_out_rows_not_clipped(self):
        train = Dataset(
            ["a"], ["t0", "t1"], np.array([[0.0], [10.0]]), np.array([1.0, 2.0])
        )
        test = Dataset(["a"], ["t2"], np.array([[15.0]]), np.array([1.5]))
        p = fit_normalizer(train)
        nt = normalize(test, p)
        assert nt.X[0, 0] == 1.5  # (15 - 0) / 10, outside [0, 1]

    @pytest.mark.parametrize("names, lo, hi, message", [
        (["a", "a"], np.zeros(2), np.ones(2), "feature_names must be a list of distinct strings"),
        (["a", 1], np.zeros(2), np.ones(2), "feature_names must be a list of distinct strings"),
        ([], np.zeros(0), np.ones(0),
         "feature_names must be a list of distinct strings, one or more, got []"),
        (["a", "b"], np.zeros(3), np.ones(1), "feature_min must hold 2 finite numbers"),
        (["a", "b"], np.zeros(2), np.ones(1), "feature_max must hold 2 finite numbers"),
    ], ids=["repeated", "not_a_string", "empty", "min_length", "max_length"])
    def test_params_hold_one_bound_per_distinct_name(self, names, lo, hi, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            NormalizationParams(names, lo, hi, 0.0, 1.0)

    def test_feature_name_mismatch(self):
        ds = generate_synthetic(10, 3, 0, seed=0)
        other = generate_synthetic(10, 3, 1, seed=0)
        p = fit_normalizer(other)
        with pytest.raises(ValueError, match="different features"):
            normalize(ds, p)

    def test_target_denormalization_endpoints(self):
        ds = generate_synthetic(50, 3, 0, seed=2)
        p = fit_normalizer(ds)
        assert denormalize_target(np.array([0.0]), p)[0] == p.target_min
        assert denormalize_target(np.array([1.0]), p)[0] == p.target_max

    def test_target_roundtrip(self):
        rng = np.random.default_rng(0)
        ds = generate_synthetic(50, 3, 0, seed=2)
        p = fit_normalizer(ds)
        y = rng.uniform(1.0, 2.0, size=30)
        yn = (y - p.target_min) / (p.target_max - p.target_min)
        assert np.max(np.abs(denormalize_target(yn, p) - y)) < 1e-12

    def test_full_roundtrip(self):
        ds = generate_synthetic(60, 4, 2, seed=8)
        p = fit_normalizer(ds)
        back = denormalize(normalize(ds, p), p)
        assert np.max(np.abs(back.X - ds.X)) < 1e-12
        assert np.max(np.abs(back.y - ds.y)) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 20), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_normalize_roundtrip_property(X):
    n = X.shape[0]
    ones = np.linspace(1.0, 2.0, n)
    ds = Dataset(
        [f"c{i}" for i in range(X.shape[1])], [f"t{i}" for i in range(n)], X, ones
    )
    p = fit_normalizer(ds)
    back = denormalize(normalize(ds, p), p)
    # per-element error scales with the column's value range
    tol = 1e-12 * np.maximum(p.feature_max - p.feature_min, 1.0)
    assert np.all(np.abs(back.X - ds.X) <= tol[None, :])


@settings(deadline=None, max_examples=40)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(3, 20), st.integers(1, 4)),
        # integer-valued floats keep distinct entries distinguishable after
        # rescaling; float ties under an affine map are a rounding artifact,
        # not an ordering defect
        elements=st.integers(-1_000_000, 1_000_000).map(float),
    )
)
def test_normalize_preserves_argextrema(X):
    n = X.shape[0]
    ds = Dataset(
        [f"c{i}" for i in range(X.shape[1])],
        [f"t{i}" for i in range(n)],
        X,
        np.linspace(1.0, 2.0, n),
    )
    p = fit_normalizer(ds)
    nds = normalize(ds, p)
    for c in range(X.shape[1]):
        if p.constant_features[c]:
            continue
        assert np.argmax(nds.X[:, c]) == np.argmax(ds.X[:, c])
        assert np.argmin(nds.X[:, c]) == np.argmin(ds.X[:, c])


class TestWindowing:
    def _ds(self, n):
        rng = np.random.default_rng(n)
        return Dataset(
            ["a", "b"],
            [f"t{i}" for i in range(n)],
            rng.normal(size=(n, 2)),
            rng.uniform(1, 2, n),
        )

    def test_single_window(self):
        ds = self._ds(5)
        ws = window(ds, 5)
        assert ws.n_windows == 1
        assert ws.targets[0] == ds.y[4]
        assert np.array_equal(ws.windows[0], ds.X)

    def test_degenerate_window_length_one(self):
        ds = self._ds(5)
        ws = window(ds, 1)
        assert ws.n_windows == 5
        assert np.array_equal(ws.targets, ds.y)

    def test_index_arithmetic(self):
        ds = self._ds(10)
        ws = window(ds, 4)
        assert ws.n_windows == 7
        assert np.array_equal(ws.windows[2], ds.X[2:6])
        assert ws.targets[2] == ds.y[5]

    def test_last_rows_reconstruct_tail(self):
        ds = self._ds(12)
        W = 3
        ws = window(ds, W)
        tail = np.stack([ws.windows[k][-1] for k in range(ws.n_windows)])
        assert np.array_equal(tail, ds.X[W - 1 :])

    def test_window_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            window(self._ds(4), 5)

    def test_windows_are_a_read_only_view_of_the_rows(self):
        ds = self._ds(10)
        ws = window(ds, 4)
        assert np.shares_memory(ws.windows, ds.X)
        with pytest.raises(ValueError):
            ws.windows[0, 0, 0] = 99.0
        with pytest.raises(ValueError):
            ws.targets[0] = 99.0
        rows = np.zeros((2, 3, 1))
        made = WindowedSet(rows, np.zeros(2), 3)
        assert np.shares_memory(made.windows, rows)
        assert rows.flags.writeable and not made.windows.flags.writeable


class TestSplit:
    def test_80_20(self):
        ds = generate_synthetic(10, 3, 0, seed=0)
        a, b = split_chronological(ds, 0.8)
        assert a.n_samples == 8 and b.n_samples == 2
        assert a.timestamps + b.timestamps == ds.timestamps

    def test_floor_rounding(self):
        ds = generate_synthetic(10, 3, 0, seed=0)
        a, b = split_chronological(ds, 0.95)
        assert a.n_samples == 9 and b.n_samples == 1

    def test_empty_partition_rejected(self):
        ds = generate_synthetic(10, 3, 0, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split_chronological(ds, 0.05)
        with pytest.raises(ValueError, match="train_fraction"):
            split_chronological(ds, 1.0)

    def test_no_shuffling(self):
        ds = generate_synthetic(20, 3, 0, seed=1)
        a, b = split_chronological(ds, 0.5)
        assert np.array_equal(np.concatenate([a.y, b.y]), ds.y)
        assert np.array_equal(np.vstack([a.X, b.X]), ds.X)


def _random_dataset(n, f, seed):
    rng = np.random.default_rng(seed)
    return Dataset([f"c{i}" for i in range(f)], [f"t{i:03d}" for i in range(n)],
                   rng.normal(size=(n, f)), rng.uniform(1, 2, n))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_window_matches_row_by_row_oracle(n, f, seed, data):
    ds = _random_dataset(n, f, seed)
    W = data.draw(st.integers(1, n))
    ws = window(ds, W)
    windows, targets = loop_windows(ds.X, ds.y, W)
    assert ws.windows.shape == (n - W + 1, W, f)
    assert np.array_equal(ws.windows, windows)
    assert np.array_equal(ws.targets, targets)  # target of window k is y[k+W-1]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 40), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_split_keeps_rows_in_order(n, fraction, seed):
    ds = _random_dataset(n, 2, seed)
    k = loop_train_rows(n, fraction)
    if k in (0, n):
        with pytest.raises(ValueError, match="empty partition"):
            split_chronological(ds, fraction)
        return
    head, tail = split_chronological(ds, fraction)
    assert (head.n_samples, tail.n_samples) == (k, n - k)
    assert head.feature_names == tail.feature_names == ds.feature_names
    assert head.timestamps + tail.timestamps == ds.timestamps
    assert np.array_equal(np.vstack([head.X, tail.X]), ds.X)
    assert np.array_equal(np.concatenate([head.y, tail.y]), ds.y)

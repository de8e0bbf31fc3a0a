"""Data-center telemetry: CSV ingestion, synthetic generation, scaling, windowing.

CSV contract: UTF-8, comma separated, one header row. A ``timestamp`` column
(ISO-8601, strictly increasing) and a ``PUE`` target column are required; every
other column is a numeric feature. The generator writes ``timestamp`` first and
``PUE`` last; the loader matches columns by name, not by position.
The report CSV writer and the JSON reader the other modules share live here too.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

TIMESTAMP_COLUMN = "timestamp"
TARGET_COLUMN = "PUE"

# Default sample cadence: one reading every 10 minutes.
CADENCE_SECONDS = 600

# Descriptive names for the leading informative channels of the synthetic
# generator; channels beyond the list fall back to facility_driver_NN.
_INFORMATIVE_NAMES = [
    "it_power_kw",
    "cooling_power_kw",
    "outdoor_temp_c",
    "supply_humidity_pct",
    "fan_speed_rpm",
    "ups_load_pct",
    "chilled_water_temp_c",
    "server_inlet_temp_c",
]


class CsvFormatError(ValueError):
    """Malformed telemetry CSV; message carries row/column location."""


def _frozen(a) -> np.ndarray:
    """A read-only float64 view of `a`, copied only from another dtype, so the
    caller's own array stays writable."""
    out = np.asarray(a, dtype=np.float64).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with named columns, timestamps and a PUE target.

    Rows are in chronological order; construction validates shape
    consistency, name uniqueness and finiteness. Instances keep read-only
    views of the given arrays and are safe to share across workers.
    """

    feature_names: list[str]
    timestamps: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _frozen(np.atleast_2d(self.X)))
        object.__setattr__(self, "y", _frozen(np.reshape(self.y, -1)))
        n, f = self.X.shape
        if len(self.y) != n or len(self.timestamps) != n:
            raise ValueError(
                f"inconsistent row counts: X has {n}, y has {len(self.y)}, "
                f"timestamps has {len(self.timestamps)}"
            )
        if len(self.feature_names) != f:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {f} columns"
            )
        if len(set(self.feature_names)) != f:
            dupes = sorted({c for c in self.feature_names if self.feature_names.count(c) > 1})
            raise ValueError(f"duplicate feature names: {dupes}")
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise ValueError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def select(self, names: list[str]) -> "Dataset":
        """Project onto the given feature columns, keeping their given order."""
        missing = [c for c in names if c not in self.feature_names]
        if missing:
            raise ValueError(f"unknown feature names: {missing}")
        idx = [self.feature_names.index(c) for c in names]
        return Dataset(list(names), list(self.timestamps), self.X[:, idx], self.y)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature and per-target min/max fitted on the training partition.

    `feature_names` are a model's input columns in input order; a checkpoint
    keeps no other record of them.
    """

    feature_names: list[str]
    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    def __post_init__(self):
        names = self.feature_names
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise ValueError(f"feature_names must be a list of distinct strings, got {names!r}")
        for name in ("feature_min", "feature_max"):
            values = np.asarray(getattr(self, name))
            if (values.dtype.kind not in "iuf" or values.shape != (len(names),)
                    or not np.isfinite(values).all()):
                raise ValueError(
                    f"{name} must hold {len(names)} finite numbers, one per feature name"
                )
            object.__setattr__(self, name, _frozen(values))
        for name in ("target_min", "target_max"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if np.any(self.feature_min > self.feature_max):
            raise ValueError("feature_min exceeds feature_max")

    def to_json(self) -> dict:
        """The fields as a JSON object, arrays as lists; the constructor reads it back."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}

    @property
    def constant_features(self) -> np.ndarray:
        """Boolean mask of features with zero range (mapped to 0.0)."""
        return self.feature_min == self.feature_max

    @property
    def target_constant(self) -> bool:
        return self.target_min == self.target_max


@dataclass(frozen=True)
class WindowedSet:
    """Sliding windows of length W with the target taken at each window's last
    step; `windows` is kept as a read-only view, so windows share their rows."""

    windows: np.ndarray  # [n_windows, W, n_features]
    targets: np.ndarray  # [n_windows]
    window_length: int

    def __post_init__(self):
        object.__setattr__(self, "windows", _frozen(self.windows))
        object.__setattr__(self, "targets", _frozen(np.reshape(self.targets, -1)))
        if self.windows.ndim != 3:
            raise ValueError("windows tensor must be 3-D")
        if self.windows.shape[0] != len(self.targets):
            raise ValueError("window/target count mismatch")
        if self.windows.shape[1] != self.window_length:
            raise ValueError("window tensor length disagrees with window_length")

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]


def load_csv(path: str | Path) -> Dataset:
    """Read a telemetry CSV into a Dataset.

    The PUE column becomes the target vector, the timestamp column the
    timestamp list, and the remaining columns the feature matrix with their
    file order preserved. Malformed content raises CsvFormatError citing the
    1-based data row and the column name.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, no header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise CsvFormatError(f"{path}: duplicate column name(s) {dupes}")
        if TARGET_COLUMN not in header:
            raise CsvFormatError(f"{path}: missing target column '{TARGET_COLUMN}'")
        if TIMESTAMP_COLUMN not in header:
            raise CsvFormatError(f"{path}: missing column '{TIMESTAMP_COLUMN}'")
        ts_col = header.index(TIMESTAMP_COLUMN)
        y_col = header.index(TARGET_COLUMN)
        feature_cols = [i for i in range(len(header)) if i not in (ts_col, y_col)]
        feature_names = [header[i] for i in feature_cols]

        timestamps: list[str] = []
        rows: list[list[float]] = []
        targets: list[float] = []
        prev_ts = None
        for r, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise CsvFormatError(
                    f"{path}: row {r}: expected {len(header)} cells, got {len(cells)}"
                )
            ts = cells[ts_col].strip()
            try:
                parsed = datetime.fromisoformat(ts)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {r}, column '{TIMESTAMP_COLUMN}': "
                    f"invalid ISO-8601 timestamp {ts!r}"
                ) from None
            if prev_ts is not None and (
                (parsed.utcoffset() is None) != (prev_ts.utcoffset() is None)
            ):
                raise CsvFormatError(
                    f"{path}: row {r}, column '{TIMESTAMP_COLUMN}': timestamp {ts!r} "
                    f"mixes offset-naive and offset-aware timestamps"
                )
            if prev_ts is not None and parsed <= prev_ts:
                raise CsvFormatError(
                    f"{path}: row {r}, column '{TIMESTAMP_COLUMN}': "
                    f"timestamps must be strictly increasing"
                )
            prev_ts = parsed
            values = []
            for i in feature_cols + [y_col]:
                cell = cells[i].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {r}, column '{header[i]}': "
                        f"non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(v):
                    raise CsvFormatError(
                        f"{path}: row {r}, column '{header[i]}': non-finite value {cell!r}"
                    )
                values.append(v)
            timestamps.append(ts)
            rows.append(values[:-1])
            targets.append(values[-1])

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feature_names))
    return Dataset(feature_names, timestamps, X, np.asarray(targets))


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset in the generator's column layout (timestamp first, PUE last)."""
    rows = ([ds.timestamps[i]] + [repr(v) for v in ds.X[i].tolist()] + [repr(float(ds.y[i]))]
            for i in range(ds.n_samples))
    write_rows(path, [TIMESTAMP_COLUMN] + ds.feature_names + [TARGET_COLUMN], rows)


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows as standard CSV with "\n" line ends (None: empty cell)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path: str | Path):
    """Parse a JSON file; undecodable content raises ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def is_finite_number(value) -> bool:
    """True for a finite int or float, numpy scalars included; False for a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def require_fields(
    path: str | Path, doc, names: tuple[str, ...], where: str = ""
) -> None:
    """Check that `doc` is a JSON object holding every field in `names`.

    A failure raises ValueError naming the file, the location `where` inside
    it (when given) and the first missing field.
    """
    loc = f"{path}: {where}: " if where else f"{path}: "
    if not isinstance(doc, dict):
        raise ValueError(f"{loc}expected a JSON object, got {type(doc).__name__}")
    missing = [n for n in names if n not in doc]
    if missing:
        raise ValueError(f"{loc}field {missing[0]!r} is missing")


def _recur(x: np.ndarray, a: float, b: float, start: float) -> np.ndarray:
    """out[t] = a * out[t-1] + b * x[t] from out[-1] = start: an AR(1) series, or
    an exponential moving average with a = 1 - alpha and b = alpha."""
    out = np.empty_like(x)
    prev = start
    vals = x.tolist()
    for t in range(len(vals)):
        prev = a * prev + b * vals[t]
        out[t] = prev
    return out


def generate_synthetic(
    n_samples: int, n_informative: int, n_noise: int, seed: int
) -> Dataset:
    """Generate deterministic data-center telemetry with a known PUE target.

    Each informative channel observes one latent driver built from a diurnal
    sinusoid plus a bounded autoregressive component. The drivers jointly set
    a facility overhead fraction; an internal facility-power series is formed
    as IT power plus that overhead, and the target is the literal ratio
    facility_power / it_power, which lands in (1.05, 2.0). The first
    `n_informative` columns are the driver channels; the remaining `n_noise`
    columns are smoothed near-unit-root random walks independent of the target.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_informative < 3:
        raise ValueError(
            "n_informative must be >= 3 (IT power, cooling power and "
            "outdoor temperature channels at minimum)"
        )
    if n_noise < 0:
        raise ValueError("n_noise must be non-negative")

    rng = np.random.default_rng(int(seed))
    k = n_informative
    t = np.arange(n_samples, dtype=np.float64)

    # One period per driver: prime step counts (3h to 10h cycles), pairwise
    # incommensurate so no channel's oscillation is a harmonic of another's,
    # plus a bounded autoregressive component for aperiodic wander.
    periods = [53.0, 37.0, 29.0, 43.0, 23.0, 61.0, 31.0, 47.0]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    ar_innov = rng.standard_normal((k, n_samples))
    drivers = np.empty((k, n_samples))
    for i in range(k):
        ar = _recur(ar_innov[i], 0.92, 0.40, 0.0)
        period = periods[i % len(periods)]
        drivers[i] = 1.0 * np.sin(2.0 * np.pi * t / period + phases[i]) + 0.35 * np.tanh(
            ar / 1.6
        )

    # Overhead fraction in [0.05, 0.95]: additive monotone response, mildly
    # convex per driver (overhead grows faster toward each driver's high end).
    # Drivers are bounded: |d| <= 0.9 + 0.45 = 1.35.
    g = drivers + 0.12 * drivers**2
    g_lo = -1.35 + 0.12 * 1.35**2
    g_hi = 1.35 + 0.12 * 1.35**2
    s = g.sum(axis=0)
    overhead_frac = 0.05 + 0.9 * (s - k * g_lo) / (k * (g_hi - g_lo))

    it_power = 90.0 * (1.0 + 0.28 * drivers[0])
    facility_power = it_power + it_power * overhead_frac
    y = facility_power / it_power

    columns = np.empty((n_samples, k + n_noise))
    names: list[str] = []
    base_offsets = [None, 46.0, 27.5, 68.0, 2300.0, 61.0, 7.5, 24.5]
    base_scales = [None, 23.0, 4.8, 9.0, 506.0, 14.0, 1.9, 2.4]
    for i in range(k):
        if i == 0:
            columns[:, 0] = it_power
        elif i < len(_INFORMATIVE_NAMES):
            columns[:, i] = base_offsets[i] + base_scales[i] * drivers[i]
        else:
            columns[:, i] = 50.0 + 20.0 * drivers[i]
        names.append(
            _INFORMATIVE_NAMES[i] if i < len(_INFORMATIVE_NAMES) else f"facility_driver_{i:02d}"
        )

    noise_innov = rng.standard_normal((n_noise, n_samples))
    noise_offsets = rng.uniform(5.0, 95.0, size=n_noise)
    noise_scales = rng.uniform(0.8, 4.0, size=n_noise)
    for j in range(n_noise):
        walk = _recur(noise_innov[j], 0.998, 0.3, 0.0)
        smooth = _recur(walk, 1.0 - 0.18, 0.18, float(walk[0]))  # EMA, alpha 0.18
        columns[:, k + j] = noise_offsets[j] + noise_scales[j] * smooth
        names.append(f"aux_sensor_{j:02d}")

    start = datetime(2024, 1, 1)
    timestamps = [
        (start + timedelta(seconds=CADENCE_SECONDS * i)).isoformat() for i in range(n_samples)
    ]
    return Dataset(names, timestamps, columns, y)


def fit_normalizer(ds: Dataset) -> NormalizationParams:
    """Compute per-column and target min/max over the rows of `ds`.

    Call this on the training partition only; the fitted params are then
    applied unchanged to held-out rows.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot fit normalizer on an empty dataset")
    return NormalizationParams(
        feature_names=list(ds.feature_names),
        feature_min=ds.X.min(axis=0),
        feature_max=ds.X.max(axis=0),
        target_min=float(ds.y.min()),
        target_max=float(ds.y.max()),
    )


def _check_names(ds: Dataset, p: NormalizationParams) -> None:
    if list(ds.feature_names) != list(p.feature_names):
        raise ValueError(
            "normalization params were fitted on different features: "
            f"{p.feature_names} != {ds.feature_names}"
        )


def normalize(ds: Dataset, p: NormalizationParams) -> Dataset:
    """Min-max scale features and target; training rows land in [0, 1].

    Held-out rows may fall outside [0, 1] (params come from training rows)
    and are not clipped. Constant features map to 0.0.
    """
    _check_names(ds, p)
    span = p.feature_max - p.feature_min
    safe = np.where(p.constant_features, 1.0, span)
    Xn = (ds.X - p.feature_min) / safe
    Xn[:, p.constant_features] = 0.0
    if p.target_constant:
        yn = np.zeros_like(ds.y)
    else:
        yn = (ds.y - p.target_min) / (p.target_max - p.target_min)
    return Dataset(list(ds.feature_names), list(ds.timestamps), Xn, yn)


def denormalize(ds: Dataset, p: NormalizationParams) -> Dataset:
    """Inverse of normalize(); constant features map back to their fitted value."""
    _check_names(ds, p)
    span = p.feature_max - p.feature_min
    X = ds.X * span + p.feature_min
    X[:, p.constant_features] = p.feature_min[p.constant_features]
    return Dataset(
        list(ds.feature_names),
        list(ds.timestamps),
        X,
        denormalize_target(ds.y, p),
    )


def denormalize_target(y_norm: np.ndarray, p: NormalizationParams) -> np.ndarray:
    """Map a normalized target vector back to PUE units."""
    return np.asarray(y_norm, dtype=np.float64) * (p.target_max - p.target_min) + p.target_min


def window(ds: Dataset, W: int) -> WindowedSet:
    """Cut stride-1 sliding windows; window k covers rows [k, k+W), target y[k+W-1]."""
    if W < 1:
        raise ValueError("window length must be positive")
    if W > ds.n_samples:
        raise ValueError(
            f"window length {W} exceeds sample count {ds.n_samples}"
        )
    view = np.lib.stride_tricks.sliding_window_view(ds.X, W, axis=0)
    # view is [n_windows, n_features, W]; reorder to [n_windows, W, n_features]
    return WindowedSet(view.transpose(0, 2, 1), ds.y[W - 1 :], W)


def split_chronological(ds: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """Split rows into (first floor(fraction*n), remainder) with no shuffling."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n_train = int(math.floor(train_fraction * ds.n_samples))
    if n_train == 0 or n_train == ds.n_samples:
        raise ValueError(
            f"split {train_fraction} of {ds.n_samples} rows leaves an empty partition"
        )
    head = Dataset(
        list(ds.feature_names),
        list(ds.timestamps[:n_train]),
        ds.X[:n_train],
        ds.y[:n_train],
    )
    tail = Dataset(
        list(ds.feature_names),
        list(ds.timestamps[n_train:]),
        ds.X[n_train:],
        ds.y[n_train:],
    )
    return head, tail

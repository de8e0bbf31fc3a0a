"""PUE forecasting toolkit: telemetry generation, feature selection, and
GRU/BiGRU sequence models for data-center power-usage-effectiveness."""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    NormalizationParams,
    WindowedSet,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    normalize,
    split_chronological,
    window,
)
from .gbt import GbtConfig, GbtModel, gbt_fit, gbt_importance, gbt_predict
from .metrics import MetricsReport, evaluate
from .rfecv import RfecvResult, rfecv_grid, rfecv_run
from .rnn import Model, init_params, model_forward
from .tuning import Checkpoint, TrainConfig, TuneReport, grid_search, train

__all__ = [
    "Dataset",
    "NormalizationParams",
    "WindowedSet",
    "fit_normalizer",
    "generate_synthetic",
    "load_csv",
    "normalize",
    "split_chronological",
    "window",
    "GbtModel",
    "gbt_fit",
    "gbt_importance",
    "gbt_predict",
    "MetricsReport",
    "evaluate",
    "GbtConfig",
    "RfecvResult",
    "rfecv_grid",
    "rfecv_run",
    "Model",
    "init_params",
    "model_forward",
    "Checkpoint",
    "TrainConfig",
    "TuneReport",
    "grid_search",
    "train",
]

"""Glue between datasets and the model: split preparation, array
stacking, and a checkpoint-backed predictor.

A dataset is stacked once; the quantile transform, gap filling and static
replication run on the whole stack. Every row of the inputs
``(n, J, S + M)`` is [static block | series row].

The observation-window bin for the likelihood's conditioning term comes
from the latest observed series timestamp, clamped below the event bin
(-1 when nothing was observed, which the loss reads as an empty window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    FeatureSchema,
    QuantileTransform,
    SurvivalDataset,
    TimeGrid,
    build_time_grid,
    discretize,
    fill_series,
    fit_quantile_transform,
    split_dataset,
)
from .errors import CheckpointIncompatibleError, ContractError
from .metrics import SurvivalCurves
from .model import DySurvParams, predict_risk_batch
from .training import EVAL_CHUNK, Checkpoint, SplitArrays

Array = np.ndarray

DEFAULT_BINS = 10


def _stacked_inputs(ds: SurvivalDataset, transform: QuantileTransform) -> Array:
    """Model inputs ``x (n, J, S + M)``, from copies of the dataset's columns.

    All subjects must share a sequence length; resampling ragged series
    into fixed windows is upstream preprocessing.
    """
    if len(ds) == 0:
        raise ContractError("dataset is empty; there are no subjects to stack")
    if (ds.lengths != ds.series.shape[1]).any():
        raise ContractError(
            f"subjects have mixed sequence lengths {np.unique(ds.lengths).tolist()}; batching "
            "needs one shared length per dataset"
        )
    statics, series = ds.statics.copy(), ds.series.copy()
    transform.apply(ds.schema.numeric_static, statics[:, : len(ds.schema.numeric_static)])
    transform.apply(ds.schema.time_varying, series, ds.mask)
    tiled = np.broadcast_to(statics[:, None, :], (*series.shape[:2], statics.shape[1]))
    return np.concatenate([tiled, fill_series(series, ds.mask)], axis=2)


def dataset_to_arrays(
    ds: SurvivalDataset,
    transform: QuantileTransform,
    grid: TimeGrid,
    condition_mode: str = "both",
) -> tuple[SplitArrays, list[str]]:
    """Transform, fill, and stack one dataset into batchable arrays; each
    batch builds the decoder's condition from its own bins and events."""
    x = _stacked_inputs(ds, transform)
    durations = ds.durations()
    events = ds.events()
    bins = discretize(grid, durations)
    # last observed visit per subject
    seen = ds.mask.any(axis=2)
    last = seen.shape[1] - 1 - np.argmax(seen[:, ::-1], axis=1)
    t_last = ds.times[np.arange(len(ds)), last]
    window = discretize(grid, np.maximum(t_last, 0.0))
    cap = np.where(events == 1, bins - 1, bins)
    last_obs = np.where(seen.any(axis=1), np.minimum(window, cap), -1)
    arrays = SplitArrays(
        x=x, bins=bins, events=events, last_obs=last_obs,
        durations=durations, n_bins=grid.n_bins, condition_mode=condition_mode,
    )
    return arrays, ds.ids.tolist()


@dataclass
class PreparedData:
    train: SplitArrays
    val: SplitArrays
    test: SplitArrays
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]
    grid: TimeGrid
    transform: QuantileTransform
    schema: FeatureSchema
    condition_mode: str


def prepare_splits(
    ds: SurvivalDataset,
    split_seed: int,
    *,
    n_bins: int = DEFAULT_BINS,
    condition_mode: str = "both",
) -> PreparedData:
    """60/20/20 split, train-fitted quantile transform, time grid from the
    train durations, and stacked arrays for all three splits."""
    train_ds, val_ds, test_ds = split_dataset(ds, split_seed)
    transform = fit_quantile_transform(train_ds)
    grid = build_time_grid(train_ds.durations(), n_bins)
    train, train_ids = dataset_to_arrays(train_ds, transform, grid, condition_mode)
    val, val_ids = dataset_to_arrays(val_ds, transform, grid, condition_mode)
    test, test_ids = dataset_to_arrays(test_ds, transform, grid, condition_mode)
    return PreparedData(
        train=train, val=val, test=test,
        train_ids=train_ids, val_ids=val_ids, test_ids=test_ids,
        grid=grid, transform=transform, schema=ds.schema,
        condition_mode=condition_mode,
    )


@dataclass
class Predictor:
    """Checkpoint-backed inference: raw dataset in, survival curves out."""

    params: DySurvParams
    schema: FeatureSchema
    grid: TimeGrid
    transform: QuantileTransform

    @staticmethod
    def from_checkpoint(ckpt: Checkpoint) -> "Predictor":
        if ckpt.transform is None:
            raise CheckpointIncompatibleError(
                "checkpoint carries no quantile transform; cannot rebuild the "
                "preprocessing pipeline"
            )
        return Predictor(
            params=ckpt.params,
            schema=ckpt.schema,
            grid=ckpt.grid,
            transform=ckpt.transform,
        )

    def bin_probs(self, ds: SurvivalDataset) -> Array:
        if ds.schema != self.schema:
            raise CheckpointIncompatibleError(
                "dataset schema does not match the schema this model was trained on"
            )
        x = _stacked_inputs(ds, self.transform)
        chunks = [
            predict_risk_batch(self.params, x[s : s + EVAL_CHUNK])
            for s in range(0, len(x), EVAL_CHUNK)
        ]
        return np.concatenate(chunks, axis=0)

    def curves(self, ds: SurvivalDataset) -> SurvivalCurves:
        return SurvivalCurves.from_bin_probs(self.bin_probs(ds), self.grid)

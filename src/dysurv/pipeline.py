"""Glue between datasets and the model: split preparation, array
stacking, and a checkpoint-backed predictor.

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
    apply_quantile_transform,
    build_time_grid,
    discretize,
    fill_dataset,
    fit_quantile_transform,
    replicate_static,
    split_dataset,
)
from .errors import CheckpointIncompatibleError, ContractError
from .metrics import SurvivalCurves
from .model import DySurvParams, condition_matrix, predict_risk_batch
from .training import Checkpoint, SplitArrays

Array = np.ndarray

DEFAULT_BINS = 10
PREDICT_CHUNK = 8192


def dataset_to_arrays(
    ds: SurvivalDataset,
    transform: QuantileTransform,
    grid: TimeGrid,
    condition_mode: str = "both",
) -> tuple[SplitArrays, list[str]]:
    """Transform, fill, and stack one dataset into batchable arrays.

    All subjects must share a sequence length; resampling ragged series
    into fixed windows is upstream preprocessing.
    """
    transformed = apply_quantile_transform(transform, ds)
    durations = transformed.durations()
    events = transformed.events()
    bins = discretize(grid, durations)
    last_obs = np.full(len(ds), -1, dtype=np.int64)
    for i, record in enumerate(transformed.records):
        t_last = record.last_observed_time()
        if t_last is None:
            continue
        window = discretize(grid, max(t_last, 0.0))
        cap = bins[i] - 1 if events[i] == 1 else bins[i]
        last_obs[i] = min(window, cap)
    filled = fill_dataset(transformed)
    mats = [replicate_static(r) for r in filled.records]
    lengths = {m.shape[0] for m in mats}
    if len(lengths) != 1:
        raise ContractError(
            f"subjects have mixed sequence lengths {sorted(lengths)}; batching "
            "needs one shared length per dataset"
        )
    x = np.stack(mats)
    cond = condition_matrix(events, bins, grid.n_bins, condition_mode)
    arrays = SplitArrays(
        x=x, bins=bins, events=events, last_obs=last_obs, cond=cond,
        durations=durations, n_bins=grid.n_bins,
    )
    return arrays, [r.id for r in ds.records]


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
        if ds.schema.hash() != self.schema.hash():
            raise CheckpointIncompatibleError(
                "dataset schema does not match the schema this model was trained on"
            )
        arrays, _ = dataset_to_arrays(ds, self.transform, self.grid)
        chunks = [
            predict_risk_batch(self.params, arrays.x[s : s + PREDICT_CHUNK])
            for s in range(0, len(arrays), PREDICT_CHUNK)
        ]
        return np.concatenate(chunks, axis=0)

    def curves(self, ds: SurvivalDataset) -> SurvivalCurves:
        return SurvivalCurves.from_bin_probs(self.bin_probs(ds), self.grid)

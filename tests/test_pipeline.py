"""Stacked data preparation against the record-by-record reference, and
the predictor reading the same inputs training reads."""

import dataclasses

import numpy as np
import pytest

from dysurv.data import (
    FeatureSchema,
    SubjectRecord,
    SurvivalDataset,
    TimeGrid,
    apply_quantile_transform,
    build_time_grid,
    fit_quantile_transform,
    generate_synthetic,
)
from dysurv.errors import CheckpointIncompatibleError, ContractError
from dysurv.model import ModelConfig, init_dysurv_params, predict_risk_batch
from dysurv.pipeline import Predictor, dataset_to_arrays, prepare_splits
from dysurv.training import EVAL_CHUNK

from oracles import (
    condition_matrix_reference,
    dataset_to_arrays_reference,
    fit_quantile_transform_reference,
    predict_risk_batch_reference,
)

SMALL_MODEL = ModelConfig(hidden_size=5, z_dim=3, decoder_hidden=(4,),
                          survival_hidden=(4,), condition_mode="both")


def visit_cohort(n, seed, n_visits=12):
    """Subjects with two numeric statics, a three-level categorical and
    three series features over ``n_visits`` visits. About 40% of the cells
    are missing, some columns and some whole visits have no observation,
    and durations fall before, inside and after the visit window."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(["age", "bmi"], {"site": ["a", "b", "c"]},
                           ["hr", "sbp", "temp"], "duration", "event")
    times = np.arange(n_visits, dtype=np.float64) * 0.75
    records = []
    for i in range(n):
        site = np.eye(3)[rng.integers(3)]
        statics = np.concatenate([[rng.normal(60, 10), rng.gamma(5.0, 5.0)], site])
        series = rng.standard_normal((n_visits, 3)) * [10.0, 15.0, 0.5] + [80, 120, 37]
        mask = rng.random((n_visits, 3)) < 0.6
        mask[:, rng.integers(3)] &= rng.random() < 0.8  # a column left empty
        mask[rng.integers(n_visits)] &= rng.random() < 0.8  # a visit left empty
        series[~mask] = np.nan
        records.append(SubjectRecord(
            f"p{i:04d}", statics, series, mask,
            duration=float(rng.uniform(0.2, 14.0)), event=int(rng.random() < 0.6),
            series_times=times.copy(),
        ))
    return SurvivalDataset(schema, records)


def assert_arrays_equal(ds, qt, grid):
    arrays, ids = dataset_to_arrays(ds, qt, grid)
    ref = dataset_to_arrays_reference(ds, qt, grid)
    for name in ("x", "bins", "events", "last_obs", "durations"):
        assert np.array_equal(getattr(arrays, name), getattr(ref, name)), name
    assert arrays.condition_mode == ref.condition_mode
    want = condition_matrix_reference(ref.events, ref.bins, ref.n_bins, ref.condition_mode)
    assert np.array_equal(arrays.cond, want)
    assert arrays.x.dtype == ref.x.dtype and arrays.last_obs.dtype == ref.last_obs.dtype
    assert ids == [r.id for r in ds.records]
    return arrays


def test_stacked_prep_matches_reference_on_a_visit_cohort():
    ds = visit_cohort(300, seed=3)
    qt = fit_quantile_transform(SurvivalDataset(ds.schema, ds.records[:200]))
    arrays = assert_arrays_equal(ds, qt, build_time_grid(ds.durations(), 10))
    assert arrays.x.shape == (300, 12, 8)
    assert not np.isnan(arrays.x).any()
    # the cohort reaches every branch of last_obs: none, capped and free
    assert (arrays.last_obs == -1).any()
    assert (arrays.last_obs == arrays.bins).any()
    assert ((arrays.last_obs >= 0) & (arrays.last_obs < arrays.bins - 1)).any()


@pytest.mark.parametrize("ds", [visit_cohort(200, seed=6), generate_synthetic(300, 4, 0.3, 6)],
                         ids=["visit_cohort", "synthetic"])
def test_quantile_fit_from_stacks_matches_the_per_record_gather(ds):
    got, want = fit_quantile_transform(ds).tables, fit_quantile_transform_reference(ds).tables
    assert list(got) == list(want)
    for name, refs in want.items():
        assert got[name].tobytes() == refs.tobytes(), name


def test_stacked_prep_matches_reference_on_the_synthetic_benchmark():
    ds = generate_synthetic(500, 4, 0.3, seed=5)
    qt = fit_quantile_transform(ds)
    arrays = assert_arrays_equal(ds, qt, build_time_grid(ds.durations(), 10))
    assert arrays.x.shape == (500, 1, 4)
    assert np.all(arrays.last_obs == -1)


def test_stacked_prep_hand_cases():
    schema = FeatureSchema(["s"], {}, ["u", "v"], "duration", "event")
    fit = SurvivalDataset(schema, [
        SubjectRecord(f"f{i}", [float(i)], [[float(i), -float(i)]],
                      [[True, True]], 1.0, 1, series_times=np.zeros(1))
        for i in range(20)
    ])
    qt = fit_quantile_transform(fit)
    grid = TimeGrid(n_bins=10, t_max=10.0)
    times = np.array([0.0, 2.0, 4.5])

    def rec(rid, series, mask, duration, event):
        return SubjectRecord(rid, [3.0], series, mask, duration, event, series_times=times)

    ds = SurvivalDataset(schema, [
        # leading gap backfills, the all-missing column v zero-fills
        rec("gap", [[0, 0], [5, 0], [7, 0]], [[0, 0], [1, 0], [1, 0]], 9.0, 0),
        # the last visit has no observed cell: the window ends at t = 2
        rec("novisit", [[1, 2], [3, 4], [0, 0]], [[1, 1], [1, 0], [0, 0]], 9.0, 0),
        # event in bin 4, last visit at 4.5 also in bin 4: capped at bin - 1
        rec("event", [[1, 2], [3, 4], [5, 6]], [[1, 1], [1, 1], [1, 1]], 4.8, 1),
        # censored in bin 4, same visit: capped at the bin itself
        rec("censored", [[1, 2], [3, 4], [5, 6]], [[1, 1], [1, 1], [1, 1]], 4.8, 0),
        # nothing observed at all: no window
        rec("empty", [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], 3.0, 1),
    ])
    arrays = assert_arrays_equal(ds, qt, grid)
    assert arrays.last_obs.tolist() == [4, 2, 3, 4, -1]
    assert arrays.bins.tolist() == [9, 9, 4, 4, 3]
    # every row is [static block | series row], the static block repeated
    s = qt.transform_values("s", np.array([3.0]))[0]
    assert np.all(arrays.x[:, :, 0] == s)
    gap_u = qt.transform_values("u", np.array([5.0, 7.0]))
    assert arrays.x[0, :, 1].tolist() == [gap_u[0], gap_u[0], gap_u[1]]
    assert arrays.x[0, :, 2].tolist() == [0.0, 0.0, 0.0]
    assert arrays.x[1, 2, 1:].tolist() == arrays.x[1, 1, 1:].tolist()


def test_a_prepared_split_stores_only_the_subjects_data():
    # the decoder's condition is built per batch from bins and events
    prep = prepare_splits(generate_synthetic(200, 3, 0.3, seed=2), split_seed=0, n_bins=6)
    for split in (prep.train, prep.val, prep.test):
        arrays = [f.name for f in dataclasses.fields(split)
                  if isinstance(getattr(split, f.name), np.ndarray)]
        assert arrays == ["x", "bins", "events", "last_obs", "durations"]
        assert split.condition_mode == prep.condition_mode == "both"


def test_empty_dataset():
    ds = generate_synthetic(10, 2, 0.3, seed=0)
    qt = fit_quantile_transform(ds)
    empty = SurvivalDataset(ds.schema, [])
    out = apply_quantile_transform(qt, empty)
    assert len(out) == 0 and out.schema is ds.schema
    grid = build_time_grid(ds.durations(), 4)
    with pytest.raises(ContractError, match="empty"):
        dataset_to_arrays(empty, qt, grid)
    params = init_dysurv_params(np.random.default_rng(0), 2, 1, 4, SMALL_MODEL)
    predictor = Predictor(params=params, schema=ds.schema, grid=grid, transform=qt)
    with pytest.raises(ContractError, match="empty"):
        predictor.bin_probs(empty)


def test_mixed_lengths_keep_their_message():
    ds = visit_cohort(4, seed=1)
    short, *rest = ds.records
    ds = SurvivalDataset(ds.schema, [
        SubjectRecord(short.id, short.static_features, short.series[:3], short.series_mask[:3],
                      short.duration, short.event, short.series_times[:3]),
        *rest,
    ])
    qt = fit_quantile_transform(ds)
    with pytest.raises(ContractError, match=r"mixed sequence lengths \[3, 12\]"):
        dataset_to_arrays(ds, qt, build_time_grid(ds.durations(), 4))


def predictor_for(ds, prep):
    x = prep.train.x
    params = init_dysurv_params(np.random.default_rng(4), x.shape[2], x.shape[1],
                                prep.grid.n_bins, SMALL_MODEL)
    return Predictor(params=params, schema=ds.schema, grid=prep.grid,
                     transform=prep.transform)


def held_out(ds, prep):
    by_id = {r.id: r for r in ds.records}
    return SurvivalDataset(ds.schema, [by_id[i] for i in prep.test_ids])


def test_serving_reads_what_training_read():
    ds = visit_cohort(600, seed=2)
    prep = prepare_splits(ds, split_seed=0)
    predictor = predictor_for(ds, prep)
    assert len(prep.test) <= EVAL_CHUNK
    served = predictor.bin_probs(held_out(ds, prep))
    assert np.array_equal(served, predict_risk_batch(predictor.params, prep.test.x))


def test_serving_in_chunks_matches_one_batch():
    ds = generate_synthetic(12_500, 3, 0.3, seed=6)
    prep = prepare_splits(ds, split_seed=1)
    test_ds = held_out(ds, prep)
    assert 2 * EVAL_CHUNK < len(test_ds) <= 3 * EVAL_CHUNK
    predictor = predictor_for(ds, prep)
    served = predictor.bin_probs(test_ds)
    whole = predict_risk_batch(predictor.params, prep.test.x)
    assert np.max(np.abs(served - whole)) <= 1e-14


def test_serving_equals_the_recorded_forward_chunk_by_chunk():
    # 1025 subjects leave a one-row remainder chunk, whose product takes
    # another BLAS path than a full chunk's
    ds = visit_cohort(EVAL_CHUNK + 1, seed=3)
    prep = prepare_splits(ds, split_seed=0)
    predictor = predictor_for(ds, prep)
    x = dataset_to_arrays(ds, prep.transform, prep.grid)[0].x
    want = np.concatenate([
        predict_risk_batch_reference(predictor.params, x[s : s + EVAL_CHUNK])
        for s in range(0, len(x), EVAL_CHUNK)
    ])
    assert np.array_equal(predictor.bin_probs(ds), want)


def test_serving_refuses_another_schema():
    ds = visit_cohort(20, seed=4)
    prep = prepare_splits(ds, split_seed=0)
    predictor = predictor_for(ds, prep)
    schema = ds.schema
    other = FeatureSchema(schema.numeric_static, schema.categorical_static,
                          ["hr", "sbp", "temperature"], schema.duration_col, schema.event_col)
    with pytest.raises(CheckpointIncompatibleError, match="schema"):
        predictor.bin_probs(SurvivalDataset(other, ds.records))

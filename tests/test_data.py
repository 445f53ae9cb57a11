"""Ingestion, synthetic generation, splitting, and the preprocessing
transforms: frozen hand cases plus the structural properties."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dysurv.data import (
    FeatureSchema,
    QuantileTransform,
    SubjectRecord,
    SurvivalDataset,
    TimeGrid,
    _fit_table,
    apply_quantile_transform,
    build_time_grid,
    dataclass_from_json,
    discretize,
    fill_dataset,
    fill_series,
    fit_quantile_transform,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    split_dataset,
)
from dysurv.errors import DomainError, ParseError, ReferentialError, SchemaError
from dysurv.pipeline import dataset_to_arrays
from oracles import true_cif


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_manifest(tmp_path, static, series=None, categorical=()):
    write(tmp_path / "static.csv", static)
    manifest = {
        "static_csv": "static.csv",
        "duration_col": "duration",
        "event_col": "event",
        "categorical_cols": list(categorical),
    }
    if series is not None:
        write(tmp_path / "series.csv", series)
        manifest.update(
            series_csv="series.csv", time_col="t", feature_col="feat", value_col="val"
        )
    path = tmp_path / "manifest.json"
    write(path, json.dumps(manifest))
    return path


STATIC = """id,age,sex,duration,event
a,61.0,f,3.5,1
b,48.0,m,7.0,0
c,55.0,f,1.2,1
"""

SERIES = """id,t,feat,val
a,0.0,hr,80
a,1.0,hr,85
a,1.0,sbp,120
b,0.5,sbp,
b,2.0,hr,70
"""


def test_load_csv_one_hot_and_series_pivot(tmp_path):
    ds = load_csv(make_manifest(tmp_path, STATIC, SERIES, categorical=["sex"]))
    assert len(ds) == 3
    assert ds.schema.numeric_static == ["age"]
    assert ds.schema.categorical_static == {"sex": ["f", "m"]}
    assert ds.schema.static_columns() == ["age", "sex=f", "sex=m"]
    assert ds.schema.time_varying == ["hr", "sbp"]
    a = ds.records[0]
    assert np.array_equal(a.static_features, [61.0, 1.0, 0.0])
    assert a.series.shape == (2, 2)
    assert a.series_mask.tolist() == [[True, False], [True, True]]
    assert a.series[1, 1] == 120.0
    assert np.array_equal(a.series_times, [0.0, 1.0])
    # a visit whose only row has an empty value is an all-missing step
    b = ds.records[1]
    assert np.array_equal(b.series_times, [0.5, 2.0])
    assert b.series_mask.tolist() == [[False, False], [True, False]]
    # subject c has no series rows: a single all-missing step
    c = ds.records[2]
    assert c.series.shape == (1, 2)
    assert not c.series_mask.any()


def test_load_csv_error_contracts(tmp_path):
    with pytest.raises(SchemaError):
        load_csv(make_manifest(tmp_path, "id,age,duration\na,1,2\n"))
    with pytest.raises(SchemaError):
        load_csv(make_manifest(tmp_path, "id,age,duration,event\na,1,2,1\na,1,2,1\n"))
    with pytest.raises(ParseError):
        load_csv(make_manifest(tmp_path, "id,age,duration,event\na,1,soon,1\n"))
    with pytest.raises(ParseError):
        load_csv(make_manifest(tmp_path, "id,age,duration,event\na,1,nan,1\n"))
    with pytest.raises(SchemaError):
        load_csv(make_manifest(tmp_path, "id,age,duration,event\na,1,2,2\n"))
    with pytest.raises(SchemaError):
        load_csv(make_manifest(tmp_path, "id,age,duration,event\na,1,-2,1\n"))
    with pytest.raises(ReferentialError):
        load_csv(make_manifest(
            tmp_path,
            "id,age,duration,event\na,1,2,1\n",
            "id,t,feat,val\nghost,0,hr,80\n",
        ))
    with pytest.raises(SchemaError):
        load_csv(make_manifest(
            tmp_path,
            "id,age,duration,event\na,1,2,1\n",
            "id,t,feat,val\na,0,hr,80\na,0,hr,81\n",
        ))
    with pytest.raises(ParseError):
        make = make_manifest(tmp_path, "id,age,duration,event\na,1,2\n")
        load_csv(make)


def test_manifest_with_an_unknown_key_is_refused(tmp_path):
    # a misspelt series_csv must not load as a static-only dataset
    path = make_manifest(tmp_path, STATIC, SERIES, categorical=["sex"])
    manifest = json.loads(path.read_text())
    manifest["series_file"] = manifest.pop("series_csv")
    write(path, json.dumps(manifest))
    with pytest.raises(SchemaError, match="series_file"):
        load_csv(path)


def test_csv_round_trip_preserves_everything(tmp_path):
    ds = load_csv(make_manifest(tmp_path, STATIC, SERIES, categorical=["sex"]))
    manifest = save_dataset_csv(ds, tmp_path / "out", stem="rt")
    back = load_csv(manifest)
    assert len(back) == len(ds)
    # categoricals were saved one-hot expanded, so columns match by name
    assert back.schema.static_columns() == ds.schema.static_columns()
    assert back.schema.time_varying == ds.schema.time_varying
    for r1, r2 in zip(ds.records, back.records):
        assert r1.id == r2.id
        assert np.array_equal(r1.static_features, r2.static_features)
        assert r1.duration == r2.duration and r1.event == r2.event
        obs1 = r1.series[r1.series_mask]
        obs2 = r2.series[r2.series_mask]
        assert np.array_equal(np.sort(obs1), np.sort(obs2))


def test_dataclass_from_json_reads_back_exactly_what_asdict_wrote():
    from dysurv.model import ModelConfig
    from dysurv.training import TrainConfig

    saved = [
        FeatureSchema(["age"], {"sex": ["f", "m"]}, ["hr"], "duration", "event"),
        ModelConfig(hidden_size=8, z_dim=2, decoder_hidden=(8, 4), survival_hidden=()),
        TrainConfig(learning_rate=0.01, alpha=1, deterministic_latent=True),
    ]
    for obj in saved:
        back = dataclass_from_json(type(obj), json.loads(json.dumps(dataclasses.asdict(obj))))
        assert back == obj
    assert dataclass_from_json(TimeGrid, {"n_bins": 4, "t_max": 2}).t_max == 2

    bad = [
        (TimeGrid, {"n_bins": 4}),  # a missing field
        (TimeGrid, {"n_bins": 4, "t_max": 2.0, "boundaries": [0.0, 2.0]}),  # not an init field
        (TimeGrid, {"n_bins": 4.0, "t_max": 2.0}),
        (TimeGrid, {"n_bins": True, "t_max": 2.0}),
        (TimeGrid, {"n_bins": 4, "t_max": False}),
        (TimeGrid, [4, 2.0]),
        (TrainConfig, {**dataclasses.asdict(TrainConfig()), "deterministic_latent": 0}),
        (ModelConfig, {**dataclasses.asdict(ModelConfig()), "decoder_hidden": [64.0]}),
        (ModelConfig, {**dataclasses.asdict(ModelConfig()), "condition_mode": None}),
        (FeatureSchema, {**dataclasses.asdict(saved[0]), "categorical_static": {"sex": "fm"}}),
        (FeatureSchema, {**dataclasses.asdict(saved[0]), "time_varying": [1]}),
    ]
    for cls, d in bad:
        with pytest.raises(SchemaError, match=cls.__name__):
            dataclass_from_json(cls, d)


def test_csv_round_trip_keeps_all_missing_visits(tmp_path):
    schema = FeatureSchema(["age"], {}, ["hr", "sbp"], "duration", "event")
    mask = np.array([[True, False], [False, False], [True, True]])
    records = [
        SubjectRecord(
            f"s{i}", [50.0 + i], np.where(mask, 70.0 + i + np.arange(6).reshape(3, 2), np.nan),
            mask, 3.0 + i, i % 2, series_times=np.array([0.0, 0.25 + i, 2.0 + i]),
        )
        for i in range(3)
    ]
    ds = SurvivalDataset(schema, records)
    back = load_csv(save_dataset_csv(ds, tmp_path, stem="rt"))
    assert back.schema == schema
    for r1, r2 in zip(ds.records, back.records, strict=True):
        assert r1.id == r2.id
        assert np.array_equal(r1.static_features, r2.static_features)
        assert np.array_equal(r1.series_times, r2.series_times)
        assert np.array_equal(r1.series_mask, r2.series_mask)
        assert np.array_equal(r1.series[r1.series_mask], r2.series[r2.series_mask])
        assert (r1.duration, r1.event) == (r2.duration, r2.event)


def test_csv_round_trip_keeps_a_feature_observed_nowhere(tmp_path):
    schema = FeatureSchema(["age"], {}, ["hr", "sbp"], "duration", "event")
    mask = np.array([[True, False], [False, False]])
    records = [
        SubjectRecord(f"s{i}", [50.0 + i], np.where(mask, 70.0 + i, np.nan), mask, 3.0 + i, i % 2,
                      series_times=np.array([0.0, 1.0]))
        for i in range(2)
    ]
    back = load_csv(save_dataset_csv(SurvivalDataset(schema, records), tmp_path, stem="rt"))
    assert back.schema.time_varying == ["hr", "sbp"]
    for r1, r2 in zip(records, back.records, strict=True):
        assert r2.series.shape == (2, 2)
        assert np.array_equal(r2.series_mask, mask)
        assert not r2.series_mask[:, 1].any()
        assert np.array_equal(r1.series[mask], r2.series[mask])


def test_record_width_is_checked_against_the_schema():
    schema = FeatureSchema(["age"], {"sex": ["f", "m"]}, ["hr"], "duration", "event")
    series, mask = np.zeros((2, 1)), np.ones((2, 1), dtype=bool)
    ok = SubjectRecord("ok", [60.0, 1.0, 0.0], series, mask, 1.0, 1)
    short = SubjectRecord("short", [60.0], series, mask, 1.0, 1)
    with pytest.raises(SchemaError, match="record short has 1 static values and 1 series"):
        SurvivalDataset(schema, [ok, short])


def test_record_series_width_is_checked_against_the_schema():
    schema = FeatureSchema(["age"], {}, ["hr"], "duration", "event")
    wide = SubjectRecord("wide", [60.0], np.zeros((2, 2)), np.ones((2, 2), dtype=bool), 1.0, 1)
    with pytest.raises(SchemaError, match="record wide has 1 static values and 2 series columns"):
        SurvivalDataset(schema, [wide])


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_record_rejects_a_non_finite_or_negative_duration(duration):
    with pytest.raises(SchemaError, match="record bad: duration must be finite and nonnegative"):
        SubjectRecord("bad", [0.0], np.zeros((2, 1)), np.ones((2, 1), dtype=bool), duration, 1)


@pytest.mark.parametrize("times", [
    [0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]], [0.0, float("nan")], [0.0, float("inf")],
])
def test_record_rejects_series_times_that_do_not_fit_the_series(times):
    with pytest.raises(SchemaError, match="record bad: series_times must be 2 finite values"):
        SubjectRecord("bad", [0.0], np.zeros((2, 1)), np.ones((2, 1), dtype=bool), 1.0, 1,
                      series_times=np.array(times))


def test_synthetic_censoring_fraction_and_determinism():
    ds = generate_synthetic(10_000, 5, 0.37, seed=7)
    frac = 1.0 - ds.events().mean()
    assert 0.34 <= frac <= 0.40
    again = generate_synthetic(10_000, 5, 0.37, seed=7)
    assert np.array_equal(ds.durations(), again.durations())
    assert np.array_equal(ds.events(), again.events())
    assert np.array_equal(
        np.stack([r.static_features for r in ds.records]),
        np.stack([r.static_features for r in again.records]),
    )
    with pytest.raises(DomainError):
        generate_synthetic(100, 3, 1.2, seed=0)


def test_synthetic_truth_cif_matches_brute_force_oracle():
    ds = generate_synthetic(500, 4, 0.3, seed=11)
    truth = ds.truth
    want = true_cif(truth)
    x = np.stack([r.static_features for r in ds.records])
    # independent evaluation of the ground-truth model, one subject at a time
    for i in range(0, 500, 97):
        hazard = 1.0 / (1.0 + np.exp(-(truth.bin_logits + x[i] @ truth.weights)))
        alive = 1.0
        cif = []
        acc = 0.0
        for k in range(truth.n_bins):
            acc += alive * hazard[k]
            alive *= 1.0 - hazard[k]
            cif.append(acc)
        assert np.array_equal(want[i], np.array(cif)) or np.allclose(
            want[i], cif, rtol=0, atol=1e-15
        )


def test_split_sizes_exact_and_deterministic():
    ds = generate_synthetic(100, 3, 0.3, seed=1)
    train, val, test = split_dataset(ds, seed=5)
    assert (len(train), len(val), len(test)) == (60, 20, 20)
    train2, _, _ = split_dataset(ds, seed=5)
    assert [r.id for r in train.records] == [r.id for r in train2.records]
    with pytest.raises(DomainError):
        split_dataset(SurvivalDataset(ds.schema, ds.records[:3]), seed=0)


@given(st.integers(0, 1000))
def test_split_partitions_and_stratifies(seed):
    ds = generate_synthetic(200, 3, 0.3, seed=9)
    train, val, test = split_dataset(ds, seed=seed)
    ids = [r.id for part in (train, val, test) for r in part.records]
    assert sorted(ids) == sorted(r.id for r in ds.records)
    base_rate = ds.events().mean()
    for part in (train, val, test):
        assert abs(part.events().mean() - base_rate) <= 0.05


def test_quantile_transform_moments_and_clipping():
    ds = generate_synthetic(2000, 3, 0.3, seed=2)
    train, _, _ = split_dataset(ds, seed=0)
    qt = fit_quantile_transform(train)
    transformed = apply_quantile_transform(qt, train)
    x = np.stack([r.static_features for r in transformed.records])
    assert np.all(np.abs(x.mean(axis=0)) < 0.1)
    # values beyond the fitted range clip to the extreme reference quantile
    lo = min(r.static_features[0] for r in train.records)
    probe = SurvivalDataset(ds.schema, [
        SubjectRecord("p", [lo - 100.0, 0.0, 0.0], np.zeros((1, 0)),
                      np.zeros((1, 0), dtype=bool), 1.0, 1),
        SubjectRecord("q", [lo, 0.0, 0.0], np.zeros((1, 0)),
                      np.zeros((1, 0), dtype=bool), 1.0, 1),
    ])
    out = apply_quantile_transform(qt, probe)
    assert out.records[0].static_features[0] == out.records[1].static_features[0]


@given(st.integers(0, 500))
def test_quantile_transform_is_monotone(seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.standard_normal(50) * 3.0)
    schema = FeatureSchema(["x"], {}, [], "duration", "event")
    records = [
        SubjectRecord(f"s{i}", [v], np.zeros((1, 0)), np.zeros((1, 0), dtype=bool), 1.0, 1)
        for i, v in enumerate(rng.standard_normal(40))
    ]
    qt = fit_quantile_transform(SurvivalDataset(schema, records))
    out = qt.transform_values("x", values)
    assert np.all(np.diff(out) >= 0)


def test_quantile_targets_match_the_normal_quantile_function():
    # scipy.special.ndtri at the clipped ends and at three interior grid
    # points of a 201-point table
    probs = [1e-7, 0.025, 0.5, 0.975, 1 - 1e-7]
    ndtri = [
        -5.1993375821928165, -1.9599639845400545, 0.0,
        1.959963984540054, 5.199337582290661,
    ]
    at = [0, 5, 100, 195, 200]
    grid = np.clip(np.linspace(0.0, 1.0, 201), 1e-7, 1 - 1e-7)
    assert grid[at].tolist() == probs
    _, targets = _fit_table(np.arange(201.0))
    assert np.abs(targets[at] - ndtri).max() <= 2e-15


def test_constant_feature_maps_to_zero():
    schema = FeatureSchema(["x"], {}, [], "duration", "event")
    records = [
        SubjectRecord(f"s{i}", [4.2], np.zeros((1, 0)), np.zeros((1, 0), dtype=bool), 1.0, 1)
        for i in range(10)
    ]
    qt = fit_quantile_transform(SurvivalDataset(schema, records))
    assert np.array_equal(qt.transform_values("x", np.array([4.2, -3.0, 99.0])), np.zeros(3))


def test_quantile_apply_changes_observed_cells_in_place():
    qt = fit_quantile_transform(generate_synthetic(200, 2, 0.3, seed=4))
    values = np.array([[[0.5, -1.0], [2.0, 0.1]]])
    mask = np.array([[[True, False], [False, True]]])
    expect = values.copy()
    expect[0, 0, 0] = qt.transform_values("x0", 0.5)
    expect[0, 1, 1] = qt.transform_values("x1", 0.1)
    qt.apply(["x0", "x1"], values, mask)
    assert np.array_equal(values, expect)
    with pytest.raises(SchemaError, match="lacks a table for feature 'nope'"):
        qt.apply(["x0", "nope"], values)


def filled_column(values, observed):
    """``fill_series`` on one record's single-feature series and mask."""
    series = np.asarray(values, dtype=np.float64)[:, None]
    return fill_series(series, np.asarray(observed, dtype=bool)[:, None])[:, 0].tolist()


def test_fill_series_hand_cases():
    assert filled_column([0.0, 5.0, 0.0, 7.0], [False, True, False, True]) == [5.0, 5.0, 5.0, 7.0]
    assert filled_column([3.0, 0.0, 0.0, 0.0], [True, False, False, False]) == [3.0] * 4
    assert filled_column([9.0, 9.0], [False, False]) == [0.0, 0.0]


@given(st.integers(0, 500))
def test_fill_series_idempotent_and_preserves_observed(seed):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((6, 3))
    mask = rng.random((6, 3)) < 0.5
    once = fill_series(series, mask)
    twice = fill_series(once, np.ones_like(mask))
    assert np.array_equal(once, twice)
    assert np.array_equal(once[mask], series[mask])
    schema = FeatureSchema(["s"], {}, ["a", "b", "c"], "duration", "event")
    ds = SurvivalDataset(schema, [SubjectRecord("r", [0.0], series, mask, 5.0, 1)])
    filled = fill_dataset(ds).records[0]
    assert np.array_equal(filled.series, once) and filled.series_mask.all()
    assert np.array_equal(fill_dataset(fill_dataset(ds)).records[0].series, once)


def identity_transform(names):
    ends = np.array([-1e3, 1e3])
    return QuantileTransform({name: (ends, ends) for name in names})


def test_replicate_static_layout():
    schema = FeatureSchema(["a", "b"], {}, ["x"], "duration", "event")
    r = SubjectRecord(
        "r", [1.0, 2.0], [[10.0], [20.0], [30.0]],
        np.ones((3, 1), dtype=bool), 5.0, 1,
    )
    grid = TimeGrid(n_bins=10, t_max=10.0)
    arrays, _ = dataset_to_arrays(SurvivalDataset(schema, [r]),
                                  identity_transform(["a", "b", "x"]), grid)
    out = arrays.x[0]
    assert out.shape == (3, 3)
    assert np.array_equal(out[:, :2], np.tile([1.0, 2.0], (3, 1)))
    assert np.array_equal(out[:, 2], [10.0, 20.0, 30.0])
    single = SubjectRecord(
        "s", [1.0], np.zeros((1, 0)), np.zeros((1, 0), dtype=bool), 1.0, 0)
    arrays, _ = dataset_to_arrays(
        SurvivalDataset(FeatureSchema(["a"], {}, [], "duration", "event"), [single]),
        identity_transform(["a"]), grid)
    assert arrays.x.shape == (1, 1, 1)


def test_last_observed_time():
    schema = FeatureSchema(["s"], {}, ["x"], "duration", "event")
    times = np.array([0.0, 4.0, 9.0])
    grid = TimeGrid(n_bins=10, t_max=10.0)
    r = SubjectRecord("r", [0.0], [[1.0], [2.0], [3.0]], [[True], [True], [False]],
                      9.5, 0, series_times=times)
    r2 = SubjectRecord("r2", [0.0], [[1.0]] * 3, [[False]] * 3,
                       9.5, 0, series_times=times)
    arrays, _ = dataset_to_arrays(SurvivalDataset(schema, [r, r2]),
                                  identity_transform(["s", "x"]), grid)
    # the window ends at the visit at t = 4, not at the unobserved one at t = 9
    assert arrays.bins.tolist() == [9, 9]
    assert arrays.last_obs.tolist() == [discretize(grid, 4.0), -1]


def test_time_grid_and_discretize_contracts():
    grid = build_time_grid([2.0, 10.0, 7.0], n_bins=10)
    assert grid.t_max == 10.0
    assert np.allclose(grid.boundaries, np.linspace(0, 10, 11))
    assert discretize(grid, 0.0) == 0
    assert discretize(grid, 9.99) == 9
    assert discretize(grid, 10.0) == 9
    assert discretize(grid, 12.0) == 9
    with pytest.raises(DomainError):
        discretize(grid, -0.1)
    with pytest.raises(DomainError, match="NaN"):
        discretize(TimeGrid(10, 10.0), float("nan"))
    with pytest.raises(DomainError, match="NaN"):
        discretize(grid, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        build_time_grid([1.0], n_bins=1)
    with pytest.raises(DomainError):
        build_time_grid([], n_bins=10)


@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30))
def test_discretize_nondecreasing_and_in_range(durations):
    grid = build_time_grid(np.maximum(durations, 1e-6), n_bins=10)
    bins = discretize(grid, np.sort(np.asarray(durations)))
    assert np.all(np.diff(bins) >= 0)
    assert bins.min() >= 0 and bins.max() <= 9


def test_discretize_surjective_when_durations_span_grid():
    grid = TimeGrid(n_bins=10, t_max=10.0)
    bins = discretize(grid, np.linspace(0.0, 10.0, 200))
    assert set(bins.tolist()) == set(range(10))


"""Ingestion, synthetic generation, splitting, and the preprocessing
transforms: frozen hand cases plus the structural properties."""

import ast
import csv
import dataclasses
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dysurv import data
from dysurv.data import (
    FeatureSchema,
    QuantileTransform,
    SubjectRecord,
    SurvivalDataset,
    TimeGrid,
    _table_levels,
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
from dysurv.errors import DomainError, DySurvError, ParseError, ReferentialError, SchemaError
from dysurv.pipeline import dataset_to_arrays
from oracles import load_csv_reference, static_record, true_cif


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_manifest(tmp_path, static, series=None, categorical=(), order=None):
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
    if order is not None:
        manifest["time_varying"] = order
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


@pytest.mark.parametrize("static, series, where", [
    ("id,age,duration,event\na,1,2,1\n\nb,x,2,1\n", None, "static.csv:4"),
    ("id,age,duration,event\na,1,2,1\n\n\nb,1,2,1\nb,1,2,1\n", None, "static.csv:6"),
    ("id,age,duration,event\na,1,2,1\n", "id,t,feat,val\na,0,hr,80\n\na,1,hr,x\n",
     "series.csv:4"),
    ("id,age,duration,event\na,1,2,1\n", "id,t,feat,val\n\na,0,hr,80\na,0,hr,81\n",
     "series.csv:4"),
    ("id,age,duration,event\na,1,2,1\n", 'id,t,feat,val\na,0,"h\nr",80\nb,1,hr,80\n',
     "series.csv:4"),
])
def test_load_csv_errors_name_the_physical_line(tmp_path, static, series, where):
    # blank lines and quoted line breaks count: the error names the line in the file
    with pytest.raises((ParseError, SchemaError, ReferentialError), match=f"^{where}\\b"):
        load_csv(make_manifest(tmp_path, static, series))


def _same_datasets(got, want):
    assert got.schema == want.schema
    # also want's records stacked into columns and viewed back as records
    for one in (got, want.replace()):
        for a, b in zip(one.records, want.records, strict=True):
            assert (a.id, a.duration, a.event) == (b.id, b.duration, b.event)
            for x, y in [(a.static_features, b.static_features), (a.series, b.series),
                         (a.series_mask, b.series_mask), (a.series_times, b.series_times)]:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


_TIME_TEXT = {0.0: ["0", "0.0", "-0.0"], 0.5: ["0.5"], 1.0: ["1", "1.0", " 1e0"],
              2.0: ["2"], 7.25: ["7.25"]}
_EVENT_TEXT = {0: ["0", " 0", "0.0"], 1: ["1", "1.0"]}
# plain names, and names quoted in the file for a line break or a comma
_FEATURES = ["hr", "sbp", "s\nbp", "lac", "lac, mmol/l"]


def _csv_line(cells):
    out = io.StringIO()
    csv.writer(out).writerow(cells)  # quotes a cell holding a comma or a line break
    return out.getvalue().removesuffix("\r\n")


@st.composite
def _cohort_files(draw):
    """A static and a series CSV, in any row order, with blank lines, LF or
    CRLF line ends, quoted cells holding commas and line breaks, event codes
    in several spellings, empty values, whole-day ties, subjects without
    rows and features observed nowhere; no two measurements of one cell.
    Also a series column order for the manifest or None, and the manifest's
    categorical columns: none, or a ``ward`` column when there are two
    subjects or more."""
    n = draw(st.integers(1, 5))
    ids = [draw(st.sampled_from([f"s{i}", f"s{i}, jr"])) for i in range(n)]
    cell = st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(_TIME_TEXT)),
                     st.sampled_from(_FEATURES))
    measured = draw(st.lists(cell, max_size=25, unique=True))
    empty = draw(st.lists(cell, max_size=8))
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(measured),
                           max_size=len(measured)))
    rows = [(s, t, f, repr(v)) for (s, t, f), v in zip(measured, values)]
    rows += [(s, t, f, draw(st.sampled_from(["", " "]))) for s, t, f in empty]
    lines = [_csv_line([ids[s], draw(st.sampled_from(_TIME_TEXT[t])), f, v])
             for s, t, f, v in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    # a categorical column needs two categories, so two subjects
    categorical = draw(st.sampled_from([[], ["ward"]])) if n >= 2 else []
    wards = ["icu", "ward, 2"] + [draw(st.sampled_from(["icu", "ward, 2", "er"]))
                                  for _ in range(n - 2)]
    ward = [[w] if categorical else [] for w in wards]
    static = [["id", "age", *categorical, "duration", "event"]] + [
        [ids[i], 40 + i, *ward[i], draw(st.floats(0, 50)),
         draw(st.sampled_from(_EVENT_TEXT[i % 2]))]
        for i in draw(st.permutations(range(n)))]
    features = sorted({f for _, _, f, _ in rows})
    order = draw(st.none() | st.permutations(features))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return ("".join(_csv_line(cells) + end for cells in static),
            "".join(line + end for line in ["id,t,feat,val", *lines]), order, categorical)


@given(_cohort_files(), st.sampled_from([1, 2, 3, 7, data._SERIES_CHUNK]))
@example(  # s2 has no rows, lac is observed nowhere, s0's visit at 1 has no value
    files=("id,age,duration,event\ns1,2,5,1\ns0,1,4.5,0\ns2,3,6,1\n",
     "id,t,feat,val\ns1,2,hr,7\n\ns0,1,lac,\ns0,-0.0,hr,3\ns1,2.0,sbp,8\ns0,0,sbp,1\n"
     "\ns1,0.5,hr,6\ns0,2,hr,5\n", None, []),
    chunk=2,
)
@example(  # the same cohort with a categorical column
    files=("id,age,ward,duration,event\ns1,2,a,5,1\ns0,1,b,4.5,0\ns2,3,a,6,1\n",
     "id,t,feat,val\ns1,2,hr,7\n\ns0,1,lac,\ns0,-0.0,hr,3\ns1,2.0,sbp,8\ns0,0,sbp,1\n"
     "\ns1,0.5,hr,6\ns0,2,hr,5\n", None, ["ward"]),
    chunk=2,
)
def test_load_csv_equals_the_row_by_row_loader(tmp_path_factory, files, chunk):
    static, series, order, categorical = files
    manifest = make_manifest(tmp_path_factory.mktemp("cohort"), static, series,
                             categorical=categorical, order=order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_SERIES_CHUNK", chunk)
        got = load_csv(manifest)
    want = load_csv_reference(manifest)
    _same_datasets(got, want)
    if order is not None:
        assert got.schema.time_varying == order
    # the padded fill equals the fill of each ragged record on its own
    for a, b in zip(fill_dataset(got).records, want.records, strict=True):
        assert np.array_equal(a.series, fill_series(b.series, b.series_mask))
        assert a.series_mask.all() and a.series_mask.shape == b.series_mask.shape


def test_load_csv_equals_the_row_by_row_loader_over_many_chunks(tmp_path):
    rng = np.random.default_rng(0)
    n_rows = 2 * data._SERIES_CHUNK + 5
    subjects = rng.integers(0, 40, n_rows)
    static = "id,age,duration,event\n" + "".join(f"s{i},{i},{i + 1},1\n" for i in range(41))
    series = "id,t,feat,val\n" + "".join(
        f"s{s},{j},{'hr' if j % 3 else 'sbp'},{'' if j % 5 == 0 else rng.random()}\n"
        for j, s in enumerate(subjects))
    manifest = make_manifest(tmp_path, static, series)
    got, want = load_csv(manifest), load_csv_reference(manifest)
    _same_datasets(got, want)
    assert len(got.records[-1].series_times) == 1  # s40 has no rows
    # each part of the ragged split holds the parent's records of its ids
    by_id = {r.id: r for r in want.records}
    with pytest.warns(UserWarning, match="stratum is empty"):  # every subject has an event
        parts = split_dataset(got, seed=0)
    for part in parts:
        _same_datasets(part, SurvivalDataset(want.schema, [by_id[i] for i in part.ids]))
    with pytest.raises(ValueError, match="read-only"):
        got.records[0].series[0, 0] = 1.0


# one faulty series row, or a fault of the whole file, per kind
_SERIES_FAULTS = {
    "long_row": ["a,5,hr,1,2"],
    "short_row": ["a,6,hr"],
    "unknown_subject": ["ghost,0,hr,1"],
    "bad_time": ["a,soon,hr,1"],
    "non_finite_time": ["a,inf,hr,1"],
    "bad_value": ["a,3,hr,high"],
    "non_finite_value": ["a,3,hr,nan"],
    "duplicate": ["a,9,sbp,1", "b,1,sbp,2", "a,9.0,sbp,3"],
    "bad_utf8": ["a,4,h\udcffr,1"],
}


def _faulty_series(first, second, gap):
    header = "id,t,feat,val"
    if "missing_column" in (first, second):
        header = "id,t,feat,value"
    good = [f"{'ab'[j % 2]},{10 + j},hr,{j}" for j in range(gap)]
    rows = ["a,0,hr,80", ""]
    for kind in (first, second):
        rows += _SERIES_FAULTS.get(kind, []) + good
    text = "\n".join([header, *rows]) + "\n"
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("chunk", [2, data._SERIES_CHUNK])
def test_load_csv_raises_the_first_fault_of_the_row_by_row_loader(tmp_path, chunk):
    kinds = [*_SERIES_FAULTS, "missing_column"]
    cases = [*itertools.permutations(kinds, 2), *((kind, None) for kind in kinds)]
    for (first, second), gap in itertools.product(cases, (0, 3)):
        manifest = make_manifest(tmp_path, "id,age,duration,event\na,1,2,1\nb,1,2,0\n", "")
        (tmp_path / "series.csv").write_bytes(_faulty_series(first, second, gap))
        with pytest.raises(DySurvError) as want:
            load_csv_reference(manifest)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_SERIES_CHUNK", chunk)
            with pytest.raises(DySurvError) as got:
                load_csv(manifest)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), (
            first, second, gap)


# one faulty static row per kind; {0} stands for an id no other row has
_STATIC_FAULTS = {
    "duplicate_id": ["{0},1,2,1", "{0},1,2,0"],
    "bad_number": ["{0},old,2,1"],
    "nan": ["{0},nan,2,1"],
    "inf": ["{0},1,inf,1"],
    "event_2": ["{0},1,2,2"],
    "negative_duration": ["{0},1,-2,1"],
    "ragged_row": ["{0},1,2"],
    "bad_utf8": ["{0}\udcff,1,2,1"],
}


def _faulty_static(first, second, gap):
    rows = ["id,age,duration,event", "a,61,2,1", ""]
    for kind in (first, second):
        rows += [row.format(kind) for row in _STATIC_FAULTS.get(kind, [])]
        rows += [f"{kind}{j},5{j},{j + 1},{j % 2}" for j in range(gap)]
    return ("\n".join(rows) + "\n").encode("utf-8", "surrogateescape")


def test_load_csv_raises_the_first_static_fault_of_the_row_by_row_loader(tmp_path):
    kinds = list(_STATIC_FAULTS)
    cases = [*itertools.permutations(kinds, 2), *((kind, None) for kind in kinds)]
    for (first, second), gap in itertools.product(cases, (0, 3)):
        manifest = make_manifest(tmp_path, "")
        (tmp_path / "static.csv").write_bytes(_faulty_static(first, second, gap))
        with pytest.raises(DySurvError) as want:
            load_csv_reference(manifest)
        with pytest.raises(DySurvError) as got:
            load_csv(manifest)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), (
            first, second, gap)


def test_manifest_with_an_unknown_key_is_refused(tmp_path):
    # a misspelt series_csv must not load as a static-only dataset
    path = make_manifest(tmp_path, STATIC, SERIES, categorical=["sex"])
    manifest = json.loads(path.read_text())
    manifest["series_file"] = manifest.pop("series_csv")
    write(path, json.dumps(manifest))
    with pytest.raises(SchemaError, match="series_file"):
        load_csv(path)


@pytest.mark.parametrize("edit, column", [
    ({"categorical_cols": ["sex", "event"]}, "event"),
    ({"duration_col": "event"}, "event"),
    ({"categorical_cols": ["id", "sex"]}, "id"),
    ({"categorical_cols": ["sex", "sex"]}, "sex"),
    ({"categorical_cols": "sex"}, "sex"),
    ({"categorical_cols": ["sex", 1]}, "sex"),
], ids=["categorical_event", "duration_is_event", "categorical_id", "repeated_categorical",
        "string_categorical", "non_string_categorical"])
def test_manifest_cannot_make_an_outcome_or_id_an_input(tmp_path, edit, column):
    # the id, duration and event columns are three names, and no categorical names one of them
    path = make_manifest(tmp_path, STATIC, SERIES)
    write(path, json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(SchemaError, match=f"'{column}'"):
        load_csv(path)


@pytest.mark.parametrize("order, error", [
    ("sbp", "time_varying must be a list"),
    (["sbp", 1], "time_varying must be a list"),
    (["sbp", "sbp"], "time_varying must be a list"),
    (["sbp"], "holds the features \\['hr', 'sbp'\\]"),
    (["sbp", "hr", "lac"], "holds the features"),
])
def test_manifest_time_varying_must_name_the_series_features(tmp_path, order, error):
    path = make_manifest(tmp_path, STATIC, SERIES, order=order, categorical=["sex"])
    with pytest.raises(SchemaError, match=error):
        load_csv(path)
    with pytest.raises(SchemaError, match=error):
        load_csv_reference(path)


def test_manifest_time_varying_orders_the_series_columns(tmp_path):
    ds = load_csv(make_manifest(tmp_path, STATIC, SERIES, order=["sbp", "hr"], categorical=["sex"]))
    assert ds.schema.time_varying == ["sbp", "hr"]
    assert ds.records[0].series_mask.tolist() == [[False, True], [True, True]]
    assert ds.records[0].series[1].tolist() == [120.0, 85.0]
    with pytest.raises(SchemaError, match="names no series_csv"):
        load_csv(make_manifest(tmp_path, STATIC, order=["hr"], categorical=["sex"]))
    assert len(load_csv(make_manifest(tmp_path, STATIC, order=[], categorical=["sex"]))) == 3


def test_csv_round_trip_keeps_the_series_feature_order(tmp_path):
    from dysurv.model import ModelConfig, init_dysurv_params
    from dysurv.training import load_checkpoint, save_checkpoint

    schema = FeatureSchema(["age"], {}, ["hr", "sbp", "lac"], "duration", "event")
    rng = np.random.default_rng(3)
    records = []
    for i in range(4):
        mask = rng.random((2, 3)) < 0.7
        mask[:, 2] = i != 1  # lac is missing from one subject
        records.append(SubjectRecord(
            f"s{i}", [rng.normal(60, 10)], np.where(mask, rng.normal(80, 10, (2, 3)), np.nan),
            mask, float(i + 1), i % 2, np.array([0.0, 1.5 + i])))
    ds = SurvivalDataset(schema, records)
    manifest = save_dataset_csv(ds, tmp_path, stem="rt")
    assert json.loads(manifest.read_text())["time_varying"] == ["hr", "sbp", "lac"]
    back = load_csv(manifest)
    assert back.schema == schema
    _same_datasets(back, ds)
    _same_datasets(load_csv_reference(manifest), ds)
    params = init_dysurv_params(rng, 4, 2, 10, ModelConfig(hidden_size=4, z_dim=2))
    save_checkpoint(tmp_path / "model.bin", params, schema=schema,
                    grid=build_time_grid(ds.durations(), 10))
    assert load_checkpoint(tmp_path / "model.bin", expected_schema=back.schema).schema == schema


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


def test_csv_round_trip_gives_the_same_model_arrays(tmp_path):
    # visits without a measurement and a feature observed nowhere keep their
    # place, so the observation window and every input come back the same
    schema = FeatureSchema(["age"], {}, ["hr", "lac", "sbp"], "duration", "event")
    rng = np.random.default_rng(2)
    records = []
    for i in range(8):
        mask = rng.random((4, 3)) < 0.5
        mask[:, 1] = False
        mask[i % 4 if i else slice(None)] = False  # a visit, or every visit, without a measurement
        records.append(SubjectRecord(
            f"s{i}", [rng.normal(60, 10)], np.where(mask, rng.normal(80, 10, (4, 3)), np.nan),
            mask, float(rng.uniform(0.5, 9.0)), i % 2, np.cumsum(rng.uniform(0.25, 2, 4)) - 0.25))
    ds = SurvivalDataset(schema, records)
    back = load_csv(save_dataset_csv(ds, tmp_path, stem="rt"))
    assert back.schema == schema
    qt, grid = fit_quantile_transform(ds), build_time_grid(ds.durations(), 10)
    want, got = dataset_to_arrays(ds, qt, grid)[0], dataset_to_arrays(back, qt, grid)[0]
    for name in ("x", "bins", "events", "last_obs", "durations"):
        a, b = getattr(want, name), getattr(got, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (want.last_obs >= 0).any() and (want.last_obs == -1).any()


def test_static_records_have_one_visit_at_time_zero(tmp_path):
    ds = generate_synthetic(6, 2, 0.3, seed=0)
    for r in ds.records:
        assert r.series.shape == (1, 0) and r.series_times.tolist() == [0.0]
        for buf in (r.series, r.series_mask, r.series_times):
            assert not buf.flags.writeable
    manifest = make_manifest(tmp_path, STATIC, categorical=["sex"])
    _same_datasets(load_csv(manifest), load_csv_reference(manifest))
    assert [r.series_times.tolist() for r in load_csv(manifest).records] == [[0.0]] * 3


def test_record_width_is_checked_against_the_schema():
    schema = FeatureSchema(["age"], {"sex": ["f", "m"]}, ["hr"], "duration", "event")
    series, mask = np.zeros((2, 1)), np.ones((2, 1), dtype=bool)
    ok = SubjectRecord("ok", [60.0, 1.0, 0.0], series, mask, 1.0, 1, np.zeros(2))
    short = SubjectRecord("short", [60.0], series, mask, 1.0, 1, np.zeros(2))
    with pytest.raises(SchemaError, match="record short has 1 static values and 1 series"):
        SurvivalDataset(schema, [ok, short])


def test_record_series_width_is_checked_against_the_schema():
    schema = FeatureSchema(["age"], {}, ["hr"], "duration", "event")
    wide = SubjectRecord("wide", [60.0], np.zeros((2, 2)), np.ones((2, 2), dtype=bool), 1.0, 1,
                         np.zeros(2))
    with pytest.raises(SchemaError, match="record wide has 1 static values and 2 series columns"):
        SurvivalDataset(schema, [wide])


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_record_rejects_a_non_finite_or_negative_duration(duration):
    with pytest.raises(SchemaError, match="record bad: duration must be finite and nonnegative"):
        SubjectRecord("bad", [0.0], np.zeros((2, 1)), np.ones((2, 1), dtype=bool), duration, 1,
                      np.zeros(2))


@pytest.mark.parametrize("times", [
    [0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]], [0.0, float("nan")], [0.0, float("inf")], None,
])
def test_record_rejects_series_times_that_do_not_fit_the_series(times):
    with pytest.raises(SchemaError, match="record bad: series_times must be 2 finite values"):
        SubjectRecord("bad", [0.0], np.zeros((2, 1)), np.ones((2, 1), dtype=bool), 1.0, 1,
                      series_times=times)


def test_record_without_times_is_refused():
    with pytest.raises(TypeError, match="series_times"):
        SubjectRecord("bad", [0.0], np.zeros((1, 1)), np.ones((1, 1), dtype=bool), 1.0, 1)


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
        static_record("p", [lo - 100.0, 0.0, 0.0]),
        static_record("q", [lo, 0.0, 0.0]),
    ])
    out = apply_quantile_transform(qt, probe)
    assert out.records[0].static_features[0] == out.records[1].static_features[0]


@given(st.integers(0, 500))
def test_quantile_transform_is_monotone(seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.standard_normal(50) * 3.0)
    schema = FeatureSchema(["x"], {}, [], "duration", "event")
    records = [static_record(f"s{i}", [v]) for i, v in enumerate(rng.standard_normal(40))]
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
    targets = _table_levels(201)[1]
    assert np.abs(targets[at] - ndtri).max() <= 2e-15


def test_constant_feature_maps_to_zero():
    schema = FeatureSchema(["x"], {}, [], "duration", "event")
    records = [static_record(f"s{i}", [4.2]) for i in range(10)]
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
    ds = SurvivalDataset(schema, [SubjectRecord("r", [0.0], series, mask, 5.0, 1, np.arange(6.0))])
    filled = fill_dataset(ds).records[0]
    assert np.array_equal(filled.series, once) and filled.series_mask.all()
    assert np.array_equal(fill_dataset(fill_dataset(ds)).records[0].series, once)


class IdentityTransform(QuantileTransform):
    """A test fake: a transform that leaves every value as it is."""

    def transform_values(self, name, values):
        return values


def identity_transform(names):
    return IdentityTransform(dict.fromkeys(names, np.zeros(1)))


def test_replicate_static_layout():
    schema = FeatureSchema(["a", "b"], {}, ["x"], "duration", "event")
    r = SubjectRecord(
        "r", [1.0, 2.0], [[10.0], [20.0], [30.0]],
        np.ones((3, 1), dtype=bool), 5.0, 1, np.arange(3.0),
    )
    grid = TimeGrid(n_bins=10, t_max=10.0)
    arrays, _ = dataset_to_arrays(SurvivalDataset(schema, [r]),
                                  identity_transform(["a", "b", "x"]), grid)
    out = arrays.x[0]
    assert out.shape == (3, 3)
    assert np.array_equal(out[:, :2], np.tile([1.0, 2.0], (3, 1)))
    assert np.array_equal(out[:, 2], [10.0, 20.0, 30.0])
    single = static_record("s", [1.0], event=0)
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


def _layout_reads(path):
    """``file:line`` of each ``.records`` read and ``SubjectRecord`` call in
    the module at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        called = getattr(node, "func", None)
        if (isinstance(node, ast.Attribute) and node.attr == "records"
                or isinstance(node, ast.Call)
                and getattr(called, "id", getattr(called, "attr", None)) == "SubjectRecord"):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_data_module_reads_the_dataset_layout():
    # the columns are the one layout; records are views data.py makes
    modules = sorted(Path(data.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    assert _layout_reads(Path(data.__file__))  # the check sees the reads data.py makes
    assert [hit for path in modules if path.name != "data.py" for hit in _layout_reads(path)] == []

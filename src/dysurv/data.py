"""Survival dataset handling.

Covers the whole path from CSV files to model-ready arrays: manifest-driven
loading with one-hot encoding of categorical statics, a synthetic benchmark
generator with known ground truth, stratified splitting, quantile
normalization fitted on training data only, forward/backward filling of
longitudinal gaps, and the discrete time grid shared by the model and the
metrics.

Datasets are described by a JSON manifest::

    {
      "static_csv": "static.csv",
      "series_csv": "series.csv",        // optional
      "duration_col": "duration",
      "event_col": "event",
      "categorical_cols": ["sex"],       // optional
      "time_col": "time",                // required with series_csv
      "feature_col": "feature",
      "value_col": "value",
      "id_col": "id"                     // optional, defaults to "id"
    }

Any other key is a SchemaError, as is a manifest whose id, duration, event
and categorical columns are not distinct names. ``load_csv`` takes the
manifest's path.
CSV files are UTF-8 with a header row; the event column holds 1 for an
observed event and 0 for censoring. The series file is long format, one
measurement per row. Relative paths resolve against the manifest location.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import operator
import warnings
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .autodiff import all_finite
from .errors import DomainError, ParseError, ReferentialError, SchemaError

Array = np.ndarray

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass
class FeatureSchema:
    """Column layout of a dataset after categorical expansion.

    ``numeric_static`` and ``categorical_static`` keep the original column
    names; the encoded static vector is the numeric columns in file order
    followed by one indicator column per category, named ``col=value``.
    """

    numeric_static: list[str]
    categorical_static: dict[str, list[str]]
    time_varying: list[str]
    duration_col: str
    event_col: str

    def __post_init__(self):
        for col, cats in self.categorical_static.items():
            if len(cats) < 2:
                raise SchemaError(
                    f"categorical column '{col}' has cardinality {len(cats)}; need >= 2"
                )
        names = self.static_columns() + self.time_varying
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names after encoding")

    def static_columns(self) -> list[str]:
        cols = list(self.numeric_static)
        for col, cats in self.categorical_static.items():
            cols.extend(f"{col}={c}" for c in cats)
        return cols

    def feature_names(self) -> list[str]:
        """Schema-level features: numerics, categoricals, time-varying."""
        return (
            list(self.numeric_static)
            + list(self.categorical_static)
            + list(self.time_varying)
        )

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass
class SubjectRecord:
    """One subject: encoded statics, a J x M series with observation mask,
    the J visit times and the right-censored outcome. The times let the
    loss condition on the end of the observation window; static data has
    one visit at time 0."""

    id: str
    static_features: Array
    series: Array
    series_mask: Array
    duration: float
    event: int
    series_times: Array

    def __post_init__(self):
        self.static_features = np.asarray(self.static_features, dtype=np.float64)
        self.series = np.asarray(self.series, dtype=np.float64)
        self.series_mask = np.asarray(self.series_mask, dtype=bool)
        if self.series.ndim != 2:
            raise SchemaError(f"record {self.id}: series must be 2-D")
        if self.series.shape != self.series_mask.shape:
            raise SchemaError(f"record {self.id}: series and mask shapes differ")
        if self.series.shape[0] < 1:
            raise SchemaError(f"record {self.id}: series needs at least one row")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise SchemaError(
                f"record {self.id}: duration must be finite and nonnegative, got {self.duration}"
            )
        if self.event not in (0, 1):
            raise SchemaError(f"record {self.id}: event must be 0 or 1, got {self.event}")
        times = self.series_times = np.asarray(self.series_times, dtype=np.float64)
        # scanned in Python: a record has few visits, and a numpy call costs more
        if times.shape != (self.n_steps,) or not all(map(math.isfinite, times.tolist())):
            raise SchemaError(
                f"record {self.id}: series_times must be {self.n_steps} finite values, "
                f"got shape {times.shape}"
            )

    @property
    def n_steps(self) -> int:
        return self.series.shape[0]


@dataclass
class SyntheticTruth:
    """Generator internals kept for oracle evaluation, not serialized."""

    weights: Array
    bin_logits: Array
    pmf: Array
    survive_beyond: Array
    n_bins: int


@dataclass
class SurvivalDataset:
    schema: FeatureSchema
    records: list[SubjectRecord]
    truth: SyntheticTruth | None = None

    def __post_init__(self):
        n_static = len(self.schema.static_columns())
        n_series = len(self.schema.time_varying)
        for r in self.records:
            if r.static_features.shape != (n_static,) or r.series.shape[1] != n_series:
                raise SchemaError(
                    f"record {r.id} has {r.static_features.size} static values and "
                    f"{r.series.shape[1]} series columns; the schema has {n_static} and {n_series}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def durations(self) -> Array:
        return np.array([r.duration for r in self.records], dtype=np.float64)

    def events(self) -> Array:
        return np.array([r.event for r in self.records], dtype=np.int64)


@dataclass
class TimeGrid:
    """Equidistant discretization of [0, t_max] into ``n_bins`` bins."""

    n_bins: int
    t_max: float
    boundaries: Array = field(init=False)

    def __post_init__(self):
        if self.n_bins < 1:
            raise DomainError(f"need at least one bin, got {self.n_bins}")
        if not (self.t_max > 0):
            raise DomainError(f"t_max must be positive, got {self.t_max}")
        self.boundaries = np.linspace(0.0, self.t_max, self.n_bins + 1)


def build_time_grid(durations, n_bins: int = 10) -> TimeGrid:
    durations = np.asarray(durations, dtype=np.float64)
    if n_bins < 2:
        raise DomainError(f"a usable grid needs at least 2 bins, got {n_bins}")
    if durations.size == 0:
        raise DomainError("cannot build a time grid from zero durations")
    if np.any(durations < 0):
        raise DomainError("durations must be nonnegative")
    return TimeGrid(n_bins=n_bins, t_max=float(durations.max()))


def discretize(grid: TimeGrid, t):
    """Map times to bin indices: floor(n_bins * t / t_max), clipped into
    [0, n_bins - 1] so times at or past the horizon land in the last bin."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(arr >= 0):  # false for NaN as well as for a negative time
        raise DomainError("cannot discretize negative or NaN times")
    bins = np.floor(grid.n_bins * arr / grid.t_max).astype(np.int64)
    bins = np.minimum(bins, grid.n_bins - 1)
    if np.isscalar(t) or arr.ndim == 0:
        return int(bins)
    return bins


def dataclass_from_json(cls, d):
    """``cls`` rebuilt from ``d``, the JSON form of ``asdict`` of an instance.
    ``d`` must hold exactly the class's init fields, each of the JSON kind
    its annotation declares: an int field takes an int, a float field any
    number, and a bool is not a number. Lists come back as tuples where the
    field is a tuple. Raises SchemaError naming the field that misfits."""
    hints = typing.get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in fields(cls) if f.init}
    if not isinstance(d, dict) or d.keys() != kinds.keys():
        got = sorted(d) if isinstance(d, dict) else d
        raise SchemaError(f"{cls.__name__} holds exactly {sorted(kinds)}, got {got!r}")
    for name, value in d.items():
        if not _holds(kinds[name], value):
            raise SchemaError(f"{cls.__name__}.{name} cannot hold {value!r}")
    return cls(**{k: tuple(v) if typing.get_origin(kinds[k]) is tuple else v for k, v in d.items()})


def _holds(kind, value) -> bool:
    """Whether the JSON value ``value`` is of the annotated ``kind``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is dict:  # JSON object keys are strings
        return isinstance(value, dict) and all(_holds(args[1], v) for v in value.values())
    if origin in (list, tuple):
        return isinstance(value, list) and all(_holds(args[0], v) for v in value)
    types = (int, float) if kind is float else kind
    return isinstance(value, types) and (kind is bool or not isinstance(value, bool))


# ---------------------------------------------------------------------------
# manifest + CSV loading
# ---------------------------------------------------------------------------


_MANIFEST_KEYS = {"static_csv", "series_csv", "duration_col", "event_col", "categorical_cols",
                  "time_col", "feature_col", "value_col", "id_col"}


def load_manifest(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise ParseError(f"manifest not found: {path}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"manifest is not UTF-8 text: {path}: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"manifest is not valid JSON: {path}: {e}") from e
    if not isinstance(raw, dict):
        raise SchemaError("manifest must be a JSON object")
    if unknown := sorted(raw.keys() - _MANIFEST_KEYS):
        raise SchemaError(f"manifest has unknown fields {unknown}")
    for key in ("static_csv", "duration_col", "event_col"):
        if key not in raw:
            raise SchemaError(f"manifest missing required field '{key}'")
    if raw.get("series_csv"):
        for key in ("time_col", "feature_col", "value_col"):
            if key not in raw:
                raise SchemaError(
                    f"manifest names a series_csv but misses field '{key}'"
                )
    raw.setdefault("categorical_cols", [])
    raw.setdefault("id_col", "id")
    cats = raw["categorical_cols"]
    if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
        raise SchemaError(f"manifest categorical_cols must be a list of names, got {cats!r}")
    names = [raw["id_col"], raw["duration_col"], raw["event_col"], *cats]
    for i, col in enumerate(names):
        if col in names[:i]:
            raise SchemaError(f"manifest names column '{col}' twice among the id, duration, "
                              "event and categorical columns")
    return raw


_SERIES_CHUNK = 8192  # series CSV rows parsed at a time; bounds the loader's transient memory


def _csv_rows(path: Path):
    """Yield the header of the CSV at ``path``, then ``(line, row)`` for each
    non-blank row, ``line`` being its physical line number. A missing file,
    bad UTF-8 and a ragged row are ParseErrors."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty CSV")
            yield header
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{reader.line_num}: ragged row with {len(row)} cells, "
                        f"header has {len(header)}"
                    )
                yield reader.line_num, row
    except FileNotFoundError as e:
        raise ParseError(f"CSV not found: {path}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as e:
        raise ParseError(f"{where}: cannot parse '{text}' as a number") from e
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value '{text}'")
    return value


def load_csv(path: str | Path) -> SurvivalDataset:
    """Load the dataset described by the manifest at ``path``.

    Categorical statics are one-hot encoded with categories discovered from
    the file in sorted order. Each distinct series time is a visit, even when
    all its values are empty; a subject without series rows gets a single
    fully-missing visit at time 0. The records' series, masks and times are
    read-only views of three shared buffers. An error names the first
    faulty row as ``file:line``.
    """
    manifest = load_manifest(path)
    base = Path(path).parent
    id_col = manifest["id_col"]
    dur_col = manifest["duration_col"]
    evt_col = manifest["event_col"]
    cat_cols = list(manifest["categorical_cols"])

    lines = _csv_rows(base / manifest["static_csv"])
    header = next(lines)
    rows = list(lines)
    col_index = {name: i for i, name in enumerate(header)}
    for col in (dur_col, evt_col, *cat_cols):
        if col not in col_index:
            raise SchemaError(f"static CSV lacks column '{col}'")
    has_id = id_col in col_index
    if manifest.get("series_csv") and not has_id:
        raise SchemaError(
            f"series join requires id column '{id_col}' in the static CSV"
        )

    reserved = {dur_col, evt_col, id_col}
    numeric_cols = [c for c in header if c not in reserved and c not in cat_cols]

    # collect categories from the data, sorted for a stable encoding
    categories: dict[str, list[str]] = {}
    for col in cat_cols:
        seen = sorted({row[col_index[col]] for _, row in rows})
        categories[col] = seen

    ids: list[str] = []
    statics: list[list[float]] = []
    durations: list[float] = []
    events: list[int] = []
    seen_ids: set[str] = set()
    for k, (lineno, row) in enumerate(rows, start=1):
        where = f"{manifest['static_csv']}:{lineno}"
        rid = row[col_index[id_col]] if has_id else f"row{k}"
        if rid in seen_ids:
            raise SchemaError(f"{where}: duplicate subject id '{rid}'")
        seen_ids.add(rid)
        vec = [_parse_float(row[col_index[c]], f"{where} column '{c}'") for c in numeric_cols]
        for col in cat_cols:
            value = row[col_index[col]]
            vec.extend(1.0 if value == cat else 0.0 for cat in categories[col])
        dur = _parse_float(row[col_index[dur_col]], f"{where} column '{dur_col}'")
        evt_raw = row[col_index[evt_col]].strip()
        if evt_raw in ("0", "1"):
            evt = int(evt_raw)
        else:
            evt_f = _parse_float(evt_raw, f"{where} column '{evt_col}'")
            if evt_f not in (0.0, 1.0):
                raise SchemaError(
                    f"{where}: event code must be 0 or 1, got '{evt_raw}'"
                )
            evt = int(evt_f)
        if dur < 0:
            raise SchemaError(f"{where}: negative duration {dur}")
        ids.append(rid)
        statics.append(vec)
        durations.append(dur)
        events.append(evt)

    if not manifest.get("series_csv"):
        feature_names, buffers = [], _visit_buffers(len(ids), 0, *_NO_SERIES_ROWS)
    else:
        series_path = base / manifest["series_csv"]
        cols = (id_col, manifest["time_col"], manifest["feature_col"], manifest["value_col"])
        id_pos = {rid: i for i, rid in enumerate(ids)}
        parsed = _series_columns(series_path, cols, id_pos)
        buffers = parsed and _visit_buffers(len(ids), len(parsed[0]), *parsed[1])
        if buffers is None:
            _check_series_rows(series_path, manifest["series_csv"], cols, id_pos)
            raise AssertionError(f"{series_path}: the column parse failed where the row check passes")
        feature_names = parsed[0]
    schema = FeatureSchema(
        numeric_static=numeric_cols,
        categorical_static=categories,
        time_varying=feature_names,
        duration_col=dur_col,
        event_col=evt_col,
    )
    return _build_dataset(schema, ids, statics, durations, events, buffers)


_NO_SERIES_ROWS = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64),
                   np.zeros(0, bool), np.zeros(0))


def _series_columns(path: Path, cols: tuple[str, str, str, str], id_pos: dict[str, int]):
    """Parse the series CSV at ``path`` into whole columns, ``_SERIES_CHUNK``
    rows at a time. ``cols`` names its id, time, feature and value columns.
    Returns the sorted feature names and ``(subject, time, feature,
    observed, value)``: per row the subject's position in ``id_pos``, the
    time, the feature's index and whether the value is non-empty, and the
    non-empty values in row order. None if a row, cell or the file is
    faulty; ``_check_series_rows`` then names the first fault."""
    parts = [_NO_SERIES_ROWS]
    codes: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            index = {name: i for i, name in enumerate(header or ())}
            if not index.keys() >= set(cols):
                return None
            pick = operator.itemgetter(*(index[c] for c in cols))
            while chunk := list(itertools.islice(reader, _SERIES_CHUNK)):
                widths = set(map(len, chunk))
                if widths - {0, len(header)}:
                    return None
                if 0 in widths:
                    chunk = [row for row in chunk if row]
                    if not chunk:
                        continue
                n = len(chunk)
                rid, time, feat, raw = zip(*map(pick, chunk))
                subject = np.fromiter(map(id_pos.get, rid, itertools.repeat(-1)), np.int64, n)
                time = np.fromiter(map(float, time), np.float64, n)
                raw = list(map(str.strip, raw))
                observed = np.fromiter(map(bool, raw), bool, n)
                value = np.fromiter(map(float, filter(None, raw)), np.float64)
                if subject.min() < 0 or not (all_finite(time) and all_finite(value)):
                    return None
                for f in set(feat) - codes.keys():
                    codes[f] = len(codes)
                feature = np.fromiter(map(codes.__getitem__, feat), np.int64, n)
                parts.append((subject, time, feature, observed, value))
    except (OSError, ValueError, csv.Error):  # ValueError covers float() and bad UTF-8
        return None
    names = sorted(codes)
    rank = np.empty(len(names), np.int64)
    rank[[codes[f] for f in names]] = np.arange(len(names))
    subject, time, feature, observed, value = (np.concatenate(c) for c in zip(*parts))
    return names, (subject, time, rank[feature], observed, value)


def _visit_buffers(n_subjects: int, n_features: int, subject: Array, time: Array,
                   feature: Array, observed: Array, value: Array):
    """Number the visits of the columns ``_series_columns`` returns and fill
    the shared buffers: ``(series, mask, times, offsets)``, read-only, with
    subject i's visits at rows ``offsets[i]:offsets[i + 1]``. Each distinct
    (subject, time) is a visit; a subject without rows gets one empty visit
    at time 0. None if a (visit, feature) cell is measured twice."""
    order = np.lexsort((time, subject))
    s, t = subject[order], time[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
    visits = np.bincount(s[first], minlength=n_subjects)
    offsets = np.zeros(n_subjects + 1, np.int64)
    np.cumsum(np.maximum(visits, 1), out=offsets[1:])
    # a row's buffer row: its visit's number, plus one per empty subject before it
    row = np.empty(len(order), np.int64)
    row[order] = np.cumsum(first) - 1 + np.cumsum(visits == 0)[s]
    times = np.zeros(offsets[-1])
    times[row[order[first]]] = t[first]
    series = np.full((offsets[-1], n_features), np.nan)
    mask = np.zeros(series.shape, dtype=bool)
    cells = (row[observed], feature[observed])
    series[cells] = value
    mask[cells] = True
    if np.count_nonzero(mask) != value.size:
        return None
    for buf in (series, mask, times):
        buf.flags.writeable = False
    return series, mask, times, offsets


def _build_dataset(schema: FeatureSchema, ids: list[str], statics, durations: list[float],
                   events: list[int], buffers,
                   truth: SyntheticTruth | None = None) -> SurvivalDataset:
    """The dataset whose record i is subject ``ids[i]`` with static row
    ``statics[i]``, its outcome, and its rows of the shared read-only
    ``buffers``, the ``(series, mask, times, offsets)`` of ``_visit_buffers``."""
    series, mask, times, offsets = buffers
    ends = offsets.tolist()
    records = [
        SubjectRecord(rid, vec, series[a:b], mask[a:b], dur, evt, times[a:b])
        for rid, vec, dur, evt, a, b in zip(ids, statics, durations, events, ends, ends[1:])
    ]
    return SurvivalDataset(schema=schema, records=records, truth=truth)


def _check_series_rows(path: Path, name: str, cols: tuple[str, str, str, str],
                       known: dict[str, int]) -> None:
    """Raise the error of the first fault in the series CSV at ``path``, in
    the order a row-by-row read meets them: a missing file, bad UTF-8 or a
    ragged row anywhere; then a missing column; then, row by row, an unknown
    subject, a bad time, a bad value or a repeated measurement. Builds
    nothing; ``load_csv`` calls it only when the column parse fails."""
    lines = _csv_rows(path)
    index = {col: i for i, col in enumerate(next(lines))}
    for _ in lines:
        pass
    for col in cols:
        if col not in index:
            raise SchemaError(f"series CSV lacks column '{col}'")
    i_id, i_time, i_feat, i_value = (index[c] for c in cols)
    lines = _csv_rows(path)
    next(lines)
    measured = set()
    for lineno, row in lines:
        where = f"{name}:{lineno}"
        rid = row[i_id]
        if rid not in known:
            raise ReferentialError(f"{where}: series row for unknown subject '{rid}'")
        t = _parse_float(row[i_time], f"{where} time")
        feat = row[i_feat]
        raw_value = row[i_value].strip()
        if raw_value == "":
            continue
        _parse_float(raw_value, f"{where} value")
        if (rid, t, feat) in measured:
            raise SchemaError(f"{where}: duplicate measurement ({rid}, {t}, {feat})")
        measured.add((rid, t, feat))


def _format_float(x: float) -> str:
    return repr(float(x))


def save_dataset_csv(ds: SurvivalDataset, out_dir: str | Path, stem: str = "data") -> Path:
    """Write a dataset back to manifest + CSV form.

    Static columns are written under their encoded names (one-hot expanded),
    so the emitted manifest has no categorical columns. Observed series
    cells are written at their visit times, plus one empty-value row for
    each visit with none, so every visit loads back, and one under each
    feature observed nowhere, so every feature loads back. Returns the
    manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    static_cols = ds.schema.static_columns()
    static_path = out_dir / f"{stem}_static.csv"
    with open(static_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *static_cols, ds.schema.duration_col, ds.schema.event_col])
        for r in ds.records:
            writer.writerow(
                [r.id]
                + [_format_float(v) for v in r.static_features]
                + [_format_float(r.duration), str(int(r.event))]
            )
    manifest = {
        "static_csv": static_path.name,
        "duration_col": ds.schema.duration_col,
        "event_col": ds.schema.event_col,
        "categorical_cols": [],
        "id_col": "id",
    }
    if ds.schema.time_varying:
        series_path = out_dir / f"{stem}_series.csv"
        with open(series_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "time", "feature", "value"])
            observed = np.zeros(len(ds.schema.time_varying), dtype=bool)
            for r in ds.records:
                observed |= r.series_mask.any(axis=0)
            for i, r in enumerate(ds.records):
                for j, t in enumerate(map(_format_float, r.series_times)):
                    if i == 0 and j == 0:
                        for k in np.flatnonzero(~observed):
                            writer.writerow([r.id, t, ds.schema.time_varying[k], ""])
                    if not r.series_mask[j].any():
                        writer.writerow([r.id, t, ds.schema.time_varying[0], ""])
                    for k, feat in enumerate(ds.schema.time_varying):
                        if r.series_mask[j, k]:
                            writer.writerow([r.id, t, feat, _format_float(r.series[j, k])])
        manifest.update(
            series_csv=series_path.name, time_col="time",
            feature_col="feature", value_col="value",
        )
    manifest_path = out_dir / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


# ---------------------------------------------------------------------------
# synthetic benchmark generator
# ---------------------------------------------------------------------------

_SYNTH_BINS = 10
_SYNTH_WEIGHT_SCALE = 1.25
_SYNTH_BASE_HAZARDS = (0.04, 0.40)


def _synthetic_weights(m_features: int) -> Array:
    """Deterministic weight pattern: descending magnitudes with alternating
    signs and an exactly-zero final weight, so importance rankings have a
    known answer."""
    if m_features == 1:
        return np.array([_SYNTH_WEIGHT_SCALE])
    mag = (m_features - 1 - np.arange(m_features)) / (m_features - 1)
    signs = np.where(np.arange(m_features) % 2 == 0, 1.0, -1.0)
    return _SYNTH_WEIGHT_SCALE * signs * mag


def generate_synthetic(
    n: int, m_features: int, censor_frac: float, seed: int
) -> SurvivalDataset:
    """Draw a static-only benchmark with a discrete logistic hazard.

    Covariates are standard normal. The hazard in bin k is
    sigmoid(b_k + w . x) with rising baseline logits, so events spread over
    the horizon and the risk ranking is linear in x. Subjects alive after
    the last bin are censored at the horizon; an additional independent
    uniform censoring time is applied to a subject with a probability tuned
    analytically so the expected censored fraction matches ``censor_frac``.
    Each record has one visit, at time 0. The returned dataset carries the
    true hazards for oracle comparisons.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if m_features < 1:
        raise DomainError(f"need m_features >= 1, got {m_features}")
    if not (0.0 <= censor_frac < 1.0):
        raise DomainError(f"censor_frac must be in [0, 1), got {censor_frac}")

    k = _SYNTH_BINS
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m_features))
    weights = _synthetic_weights(m_features)
    base = np.linspace(*_SYNTH_BASE_HAZARDS, k)
    bin_logits = np.log(base / (1.0 - base))
    score = x @ weights
    hazards = 1.0 / (1.0 + np.exp(-(bin_logits[None, :] + score[:, None])))

    not_yet = np.cumprod(1.0 - hazards, axis=1)
    pmf = hazards * np.concatenate([np.ones((n, 1)), not_yet[:, :-1]], axis=1)
    survive = not_yet[:, -1]

    # sequential hazard draws decide the event bin; k means no event in horizon
    u_bins = rng.random((n, k))
    hit = u_bins < hazards
    event_bin = np.where(hit.any(axis=1), hit.argmax(axis=1), k)

    # tune the probability of applying an independent censor time so that
    # E[censored fraction] = censor_frac, given horizon survivors are always
    # censored and a uniform C in (0, horizon) censors an event iff C < T
    mean_survive = float(survive.mean())
    mean_within = float((pmf * ((np.arange(k) + 0.5) / k)[None, :]).sum(axis=1).mean())
    if mean_within > 0:
        apply_prob = (censor_frac - mean_survive) / mean_within
    else:
        apply_prob = 0.0
    apply_prob = float(np.clip(apply_prob, 0.0, 1.0))

    eligible = rng.random(n) < apply_prob
    censor_times = rng.uniform(0.0, float(k), size=n)

    event_time = np.where(event_bin < k, event_bin + 0.5, float(k))
    censored_by_draw = eligible & (censor_times < event_time)
    beyond = event_bin == k
    is_event = ~beyond & ~censored_by_draw
    duration = np.where(is_event, event_time, np.where(censored_by_draw, censor_times, float(k)))

    schema = FeatureSchema(
        numeric_static=[f"x{i}" for i in range(m_features)],
        categorical_static={},
        time_varying=[],
        duration_col="duration",
        event_col="event",
    )
    width = max(6, len(str(n)))
    truth = SyntheticTruth(weights=weights, bin_logits=bin_logits, pmf=pmf,
                           survive_beyond=survive, n_bins=k)
    return _build_dataset(schema, [f"s{i:0{width}d}" for i in range(n)], x, duration.tolist(),
                          is_event.astype(int).tolist(), _visit_buffers(n, 0, *_NO_SERIES_ROWS),
                          truth)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split_dataset(
    ds: SurvivalDataset, seed: int
) -> tuple[SurvivalDataset, SurvivalDataset, SurvivalDataset]:
    """Shuffle and split ``SPLIT_FRACTIONS``, stratified by event indicator.

    Within each stratum the three quotas come from the largest-remainder
    method, so a 100-record dataset splits exactly 60/20/20. If either
    stratum is empty the split falls back to unstratified with a warning.
    """
    if len(ds) < 5:
        raise DomainError(f"need at least 5 records to split, got {len(ds)}")
    events = ds.events()
    strata = [np.where(events == 1)[0], np.where(events == 0)[0]]
    if min(len(s) for s in strata) == 0:
        warnings.warn(
            "a split stratum is empty; falling back to an unstratified split",
            stacklevel=2,
        )
        strata = [np.arange(len(ds))]
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[], [], []]
    for stratum in strata:
        order = stratum[rng.permutation(len(stratum))]
        quotas = np.array(SPLIT_FRACTIONS) * len(order)
        counts = np.floor(quotas).astype(int)
        remainder = quotas - counts
        for _ in range(len(order) - counts.sum()):
            j = int(np.argmax(remainder))
            counts[j] += 1
            remainder[j] = -1.0
        start = 0
        for j in range(3):
            buckets[j].extend(order[start : start + counts[j]].tolist())
            start += counts[j]
    parts = []
    for idx in buckets:
        parts.append(
            SurvivalDataset(schema=ds.schema, records=[ds.records[i] for i in idx])
        )
    return parts[0], parts[1], parts[2]


# ---------------------------------------------------------------------------
# quantile normalization
# ---------------------------------------------------------------------------

_MAX_QUANTILES = 1000
_PPF_CLIP = 1e-7
_NORMAL = NormalDist()


@dataclass
class QuantileTransform:
    """Per-feature empirical-CDF map to a standard normal.

    ``tables`` maps feature name to (reference quantiles, normal targets).
    Features constant in the fit data map to 0. Applies to numeric statics
    and observed series cells; one-hot indicator columns pass through.
    """

    tables: dict[str, tuple[Array, Array]]

    def transform_values(self, name: str, values: Array) -> Array:
        refs, targets = self.tables[name]
        if refs[0] == refs[-1]:
            return np.zeros_like(np.asarray(values, dtype=np.float64))
        return np.interp(values, refs, targets)

    def apply(self, names: list[str], values: Array, mask: Array | None = None) -> None:
        """Transform ``values`` in place, last-axis column k by the table of
        ``names[k]``; with a mask only the observed cells change."""
        for name in names:
            if name not in self.tables:
                raise SchemaError(f"quantile transform lacks a table for feature '{name}'")
        for k, name in enumerate(names):
            col = values[..., k]
            obs = ... if mask is None else mask[..., k]
            col[obs] = self.transform_values(name, col[obs])

    def canonical(self) -> dict:
        return {
            name: {"references": refs.tolist(), "targets": targets.tolist()}
            for name, (refs, targets) in self.tables.items()
        }

    @staticmethod
    def from_canonical(d: dict) -> "QuantileTransform":
        """Read back what ``canonical`` wrote. Each entry holds exactly
        ``references`` and ``targets``: equal-length, non-empty lists of
        finite numbers, the references nondecreasing. Else SchemaError."""
        tables = {}
        for name, entry in d.items():
            # a type scan, not _holds per number: a table holds up to 1000 of them
            if not (isinstance(entry, dict) and entry.keys() == {"references", "targets"}
                    and all(isinstance(v, list) and set(map(type, v)) <= {int, float}
                            for v in entry.values())
                    and 0 < len(entry["references"]) == len(entry["targets"])):
                raise SchemaError(f"quantile table '{name}' is malformed: {entry!r}")
            refs = np.array(entry["references"], dtype=np.float64)
            targets = np.array(entry["targets"], dtype=np.float64)
            if not (all_finite(refs) and all_finite(targets)) or np.any(np.diff(refs) < 0):
                raise SchemaError(
                    f"quantile table '{name}' needs finite values and nondecreasing references"
                )
            tables[name] = (refs, targets)
        return QuantileTransform(tables=tables)


def _fit_table(values: Array) -> tuple[Array, Array]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.zeros(1), np.zeros(1)
    n_q = min(_MAX_QUANTILES, values.size)
    probs = np.linspace(0.0, 1.0, n_q) if n_q > 1 else np.array([0.5])
    refs = np.quantile(values, probs)
    targets = np.array([_NORMAL.inv_cdf(p) for p in np.clip(probs, _PPF_CLIP, 1 - _PPF_CLIP)])
    return refs, targets


def fit_quantile_transform(ds: SurvivalDataset) -> QuantileTransform:
    """Fit per-feature quantile tables. Call on the training split only."""
    if len(ds) == 0:
        raise DomainError("cannot fit a quantile transform on an empty dataset")
    statics = np.stack([r.static_features for r in ds.records])
    rows = np.concatenate([r.series for r in ds.records])
    mask = np.concatenate([r.series_mask for r in ds.records])
    tables = {name: _fit_table(statics[:, j]) for j, name in enumerate(ds.schema.numeric_static)}
    for k, name in enumerate(ds.schema.time_varying):
        tables[name] = _fit_table(rows[mask[:, k], k])
    return QuantileTransform(tables=tables)


def apply_quantile_transform(qt: QuantileTransform, ds: SurvivalDataset) -> SurvivalDataset:
    """Return a transformed copy; inputs outside the fitted range clip to
    the range endpoints (the targets saturate). Records may be ragged: the
    series rows of all records are transformed as one block."""
    if not ds.records:
        return replace(ds, records=[])
    schema = ds.schema
    statics = np.stack([r.static_features for r in ds.records])
    rows = np.concatenate([r.series for r in ds.records])
    mask = np.concatenate([r.series_mask for r in ds.records])
    qt.apply(schema.numeric_static, statics[:, : len(schema.numeric_static)])
    qt.apply(schema.time_varying, rows, mask)
    ends = np.cumsum([r.n_steps for r in ds.records])[:-1]
    records = [
        replace(r, static_features=s, series=x)
        for r, s, x in zip(ds.records, statics, np.split(rows, ends))
    ]
    return SurvivalDataset(schema=schema, records=records, truth=ds.truth)


# ---------------------------------------------------------------------------
# missingness
# ---------------------------------------------------------------------------


def fill_series(series: Array, mask: Array) -> Array:
    """Fill the gaps of ``(..., J, M)`` series along the step axis into a
    new array: forward fill each column, backfill a leading gap from the
    first observation, and zero-fill columns with no observation (zero is
    the standardized training mean after the quantile transform)."""
    steps = np.arange(series.shape[-2])[:, None]
    idx = np.where(mask, steps, -1)
    np.maximum.accumulate(idx, axis=-2, out=idx)
    first = np.argmax(mask, axis=-2)[..., None, :]
    idx = np.where(idx < 0, first, idx)
    filled = np.take_along_axis(series, idx, axis=-2)
    return np.where(mask.any(axis=-2, keepdims=True), filled, 0.0)


def fill_dataset(ds: SurvivalDataset) -> SurvivalDataset:
    """``fill_series`` on each record. Idempotent; the records come back
    with fully observed masks."""
    records = [
        replace(r, series=fill_series(r.series, r.series_mask),
                series_mask=np.ones_like(r.series_mask))
        for r in ds.records
    ]
    return SurvivalDataset(schema=ds.schema, records=records, truth=ds.truth)

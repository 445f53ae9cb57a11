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

``load_csv`` takes the manifest's path. CSV files are UTF-8 with a header
row; the event column holds 1 for an observed event and 0 for censoring.
The series file is long format, one measurement per row. Relative paths
resolve against the manifest location.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field, replace
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

    def canonical(self) -> dict:
        return {
            "numeric_static": list(self.numeric_static),
            "categorical_static": {k: list(v) for k, v in self.categorical_static.items()},
            "time_varying": list(self.time_varying),
            "duration_col": self.duration_col,
            "event_col": self.event_col,
        }

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @staticmethod
    def from_canonical(d: dict) -> "FeatureSchema":
        return FeatureSchema(
            numeric_static=list(d["numeric_static"]),
            categorical_static={k: list(v) for k, v in d["categorical_static"].items()},
            time_varying=list(d["time_varying"]),
            duration_col=d["duration_col"],
            event_col=d["event_col"],
        )


@dataclass
class SubjectRecord:
    """One subject: encoded statics, a J x M series with observation mask,
    and the right-censored outcome. ``series_times`` keeps the measurement
    timestamps so the loss can condition on the end of the observation
    window; it is None for static-only data."""

    id: str
    static_features: Array
    series: Array
    series_mask: Array
    duration: float
    event: int
    series_times: Array | None = None

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
        if self.series_times is not None:
            self.series_times = np.asarray(self.series_times, dtype=np.float64)
            if self.series_times.shape != (self.n_steps,) or not all_finite(self.series_times):
                raise SchemaError(
                    f"record {self.id}: series_times must be {self.n_steps} finite values, "
                    f"got shape {self.series_times.shape}"
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


# ---------------------------------------------------------------------------
# manifest + CSV loading
# ---------------------------------------------------------------------------


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
    return raw


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty CSV") from None
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{lineno}: ragged row with {len(row)} cells, "
                        f"header has {len(header)}"
                    )
                rows.append(row)
    except FileNotFoundError as e:
        raise ParseError(f"CSV not found: {path}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from e
    return header, rows


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as e:
        raise ParseError(f"{where}: cannot parse '{text}' as a number") from e
    if not np.isfinite(value):
        raise ParseError(f"{where}: non-finite value '{text}'")
    return value


def load_csv(path: str | Path) -> SurvivalDataset:
    """Load the dataset described by the manifest at ``path``.

    Categorical statics are one-hot encoded with categories discovered from
    the file in sorted order. Each distinct series time is a visit, even when
    all its values are empty; a subject without series rows gets a single
    fully-missing visit at time 0.
    """
    manifest = load_manifest(path)
    base = Path(path).parent
    id_col = manifest["id_col"]
    dur_col = manifest["duration_col"]
    evt_col = manifest["event_col"]
    cat_cols = list(manifest["categorical_cols"])

    header, rows = _read_rows(base / manifest["static_csv"])
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
        seen = sorted({row[col_index[col]] for row in rows})
        categories[col] = seen

    ids: list[str] = []
    statics: list[Array] = []
    durations: list[float] = []
    events: list[int] = []
    seen_ids: set[str] = set()
    for lineno, row in enumerate(rows, start=2):
        where = f"{manifest['static_csv']}:{lineno}"
        rid = row[col_index[id_col]] if has_id else f"row{lineno - 1}"
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
        statics.append(np.array(vec, dtype=np.float64))
        durations.append(dur)
        events.append(evt)

    series_by_id: dict[str, dict[float, dict[str, float]]] = {}
    feature_names: list[str] = []
    if manifest.get("series_csv"):
        s_header, s_rows = _read_rows(base / manifest["series_csv"])
        s_index = {name: i for i, name in enumerate(s_header)}
        for col in (id_col, manifest["time_col"], manifest["feature_col"], manifest["value_col"]):
            if col not in s_index:
                raise SchemaError(f"series CSV lacks column '{col}'")
        known = set(ids)
        feats: set[str] = set()
        for lineno, row in enumerate(s_rows, start=2):
            where = f"{manifest['series_csv']}:{lineno}"
            rid = row[s_index[id_col]]
            if rid not in known:
                raise ReferentialError(f"{where}: series row for unknown subject '{rid}'")
            t = _parse_float(row[s_index[manifest["time_col"]]], f"{where} time")
            feat = row[s_index[manifest["feature_col"]]]
            raw_value = row[s_index[manifest["value_col"]]].strip()
            feats.add(feat)
            cell = series_by_id.setdefault(rid, {}).setdefault(t, {})
            if raw_value == "":
                continue  # the visit happened; this measurement is missing
            value = _parse_float(raw_value, f"{where} value")
            if feat in cell:
                raise SchemaError(f"{where}: duplicate measurement ({rid}, {t}, {feat})")
            cell[feat] = value
        feature_names = sorted(feats)

    schema = FeatureSchema(
        numeric_static=numeric_cols,
        categorical_static=categories,
        time_varying=feature_names,
        duration_col=dur_col,
        event_col=evt_col,
    )

    m = len(feature_names)
    feat_pos = {f: i for i, f in enumerate(feature_names)}
    records = []
    for rid, vec, dur, evt in zip(ids, statics, durations, events):
        per_time = series_by_id.get(rid, {0.0: {}})
        times = np.array(sorted(per_time), dtype=np.float64)
        ser = np.full((len(times), m), np.nan)
        mask = np.zeros((len(times), m), dtype=bool)
        for j, t in enumerate(times):
            for feat, value in per_time[t].items():
                ser[j, feat_pos[feat]] = value
                mask[j, feat_pos[feat]] = True
        records.append(
            SubjectRecord(
                id=rid,
                static_features=vec,
                series=ser,
                series_mask=mask,
                duration=dur,
                event=evt,
                series_times=times if m else None,
            )
        )
    return SurvivalDataset(schema=schema, records=records)


def _format_float(x: float) -> str:
    return repr(float(x))


def save_dataset_csv(ds: SurvivalDataset, out_dir: str | Path, stem: str = "data") -> Path:
    """Write a dataset back to manifest + CSV form.

    Static columns are written under their encoded names (one-hot expanded),
    so the emitted manifest has no categorical columns. Observed series
    cells are written, plus one empty-value row for each visit with none,
    so every visit loads back, and one under each feature observed nowhere,
    so every feature loads back. Returns the manifest path.
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
                times = np.arange(float(r.n_steps)) if r.series_times is None else r.series_times
                for j in range(r.n_steps):
                    t = _format_float(times[j])
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
    The returned dataset carries the true hazards for oracle comparisons.
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
    records = [
        SubjectRecord(
            id=f"s{i:0{width}d}",
            static_features=x[i],
            series=np.zeros((1, 0)),
            series_mask=np.zeros((1, 0), dtype=bool),
            duration=float(duration[i]),
            event=int(is_event[i]),
        )
        for i in range(n)
    ]
    truth = SyntheticTruth(
        weights=weights,
        bin_logits=bin_logits,
        pmf=pmf,
        survive_beyond=survive,
        n_bins=k,
    )
    return SurvivalDataset(schema=schema, records=records, truth=truth)


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
        return QuantileTransform(
            tables={
                name: (
                    np.asarray(entry["references"], dtype=np.float64),
                    np.asarray(entry["targets"], dtype=np.float64),
                )
                for name, entry in d.items()
            }
        )


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
    tables: dict[str, tuple[Array, Array]] = {}
    for j, name in enumerate(ds.schema.numeric_static):
        values = np.array([r.static_features[j] for r in ds.records])
        tables[name] = _fit_table(values)
    for k, name in enumerate(ds.schema.time_varying):
        observed = [r.series[r.series_mask[:, k], k] for r in ds.records]
        values = np.concatenate(observed) if observed else np.zeros(0)
        tables[name] = _fit_table(values)
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

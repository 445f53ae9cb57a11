"""Seeded workload inputs.

The program sees only what these functions produce: a ``--synth`` spec for
its own generator, or CSV files plus a JSON manifest in the format the
package README documents. The CSVs are written here with the standard
library, so a change to how the package stores records cannot change the
inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STATIC_NUMERIC = ("age", "bmi")
SERIES_FEATURES = ("hr", "map", "lactate", "creatinine")
# per-feature baseline level, loading on the subject's latent level and
# slope, and measurement noise
_SERIES_BASE = np.array([85.0, 75.0, 1.8, 1.1])
_SERIES_LOAD = np.array([8.0, -6.0, 0.6, 0.25])
_SERIES_NOISE = np.array([4.0, 3.5, 0.3, 0.1])
_WEIBULL_SHAPE = 1.5
_WEIBULL_SCALE = 30.0
_CENSOR_WINDOW = 60.0


@dataclass
class Cohort:
    """Where one written cohort is, and how many CSV rows it has."""

    manifest: Path
    n_subjects: int
    series_rows: int


def write_cohort(
    out_dir: Path,
    n: int,
    seed: int,
    *,
    n_visits: int = 12,
    missing: float = 0.4,
    whole_days: bool = False,
) -> Cohort:
    """Write a long-format cohort: 3 statics (one categorical), 4
    time-varying features on a fixed grid of visits at t = 0, 1, ...,
    n_visits - 1, and a Weibull event time after the last visit.

    About ``missing`` of the series cells are left out, but every visit
    keeps at least one measured feature, because the loader drops visits
    with no observed cell and would make the histories ragged. With
    ``whole_days`` the durations are rounded up to whole days, so event
    times tie; otherwise every duration is distinct.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    age = rng.normal(62.0, 12.0, n)
    bmi = rng.normal(27.0, 4.0, n)
    male = rng.random(n) < 0.55
    level = rng.standard_normal(n)
    slope = rng.standard_normal(n)
    t = np.arange(n_visits, dtype=np.float64)
    drift = level[:, None] + slope[:, None] * (t[None, :] / n_visits)
    values = (
        _SERIES_BASE[None, None, :]
        + _SERIES_LOAD[None, None, :] * drift[:, :, None]
        + _SERIES_NOISE[None, None, :] * rng.standard_normal((n, n_visits, len(SERIES_FEATURES)))
    )
    observed = rng.random(values.shape) >= missing
    empty = ~observed.any(axis=2)
    rescue = rng.integers(0, len(SERIES_FEATURES), size=values.shape[:2])
    vi, vj = np.nonzero(empty)
    observed[vi, vj, rescue[vi, vj]] = True

    risk = 0.03 * (age - 62.0) + 0.3 * male + 0.6 * level + 0.9 * slope
    scale = _WEIBULL_SCALE * np.exp(-risk / _WEIBULL_SHAPE)
    event_time = t[-1] + 1.0 + scale * rng.weibull(_WEIBULL_SHAPE, n)
    censor_time = t[-1] + 1.0 + rng.uniform(0.0, _CENSOR_WINDOW, n)
    duration = np.minimum(event_time, censor_time)
    event = (event_time <= censor_time).astype(np.int64)
    if whole_days:
        duration = np.ceil(duration)

    width = len(str(n))
    ids = [f"p{i:0{width}d}" for i in range(n)]
    static_path = out_dir / "static.csv"
    with open(static_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *STATIC_NUMERIC, "sex", "duration", "event"])
        for i in range(n):
            w.writerow([
                ids[i], f"{age[i]:.2f}", f"{bmi[i]:.2f}", "M" if male[i] else "F",
                repr(float(duration[i])), int(event[i]),
            ])
    series_path = out_dir / "series.csv"
    rows = 0
    with open(series_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "feature", "value"])
        for i in range(n):
            for j in range(n_visits):
                for k, name in enumerate(SERIES_FEATURES):
                    if observed[i, j, k]:
                        w.writerow([ids[i], f"{t[j]:.1f}", name, f"{values[i, j, k]:.4f}"])
                        rows += 1
    manifest = {
        "static_csv": static_path.name,
        "series_csv": series_path.name,
        "duration_col": "duration",
        "event_col": "event",
        "categorical_cols": ["sex"],
        "time_col": "time",
        "feature_col": "feature",
        "value_col": "value",
        "id_col": "id",
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return Cohort(manifest=manifest_path, n_subjects=n, series_rows=rows)

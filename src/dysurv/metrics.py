"""Censoring-aware evaluation for discrete-time survival predictions.

Implements the Kaplan-Meier product-limit estimator, time-dependent
concordance over comparable pairs, inverse-probability-of-censoring
weighted Brier score and binomial log likelihood with their integrated
forms, fixed-horizon binary classification metrics, and permutation
feature importance. Curves are piecewise linear on shared knots and are
queried with constant extension outside the knot range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalDataset, TimeGrid
from .errors import (
    ContractError,
    DomainError,
    MetricUndefinedError,
    WeightDegeneracyError,
)

Array = np.ndarray

EVAL_TIMES = 100
LOG_CLAMP = 1e-12


def _validate_outcomes(durations, events) -> tuple[Array, Array]:
    durations = np.asarray(durations, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if durations.ndim != 1 or durations.shape != events.shape:
        raise ContractError("durations and events must be matching 1-D arrays")
    if durations.size == 0:
        raise MetricUndefinedError("no subjects to evaluate")
    if np.any(durations < 0) or not np.all(np.isfinite(durations)):
        raise DomainError("durations must be finite and nonnegative")
    if np.any((events != 0) & (events != 1)):
        raise DomainError("events must be 0 or 1")
    return durations, events


class StepFunction:
    """Right-continuous step function starting at 1.0 with queryable left
    limits, the shape of a Kaplan-Meier curve."""

    def __init__(self, times: Array, values: Array):
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ContractError("times and values must be matching 1-D arrays")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ContractError("step times must be strictly increasing")

    def _lookup(self, t, side: str):
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t, side=side) - 1
        padded = np.concatenate([[1.0], self.values])
        out = padded[idx + 1]
        return out

    def at(self, t):
        """Value at t (right-continuous)."""
        out = self._lookup(t, "right")
        return float(out) if np.ndim(t) == 0 else out

    def left(self, t):
        """Left limit: the value just before t."""
        out = self._lookup(t, "left")
        return float(out) if np.ndim(t) == 0 else out


def km_estimator(durations, events) -> StepFunction:
    """Kaplan-Meier product-limit estimate of the survival function.

    Ties are grouped: at each distinct time with d events among n at risk
    the curve multiplies by (1 - d/n). Jumps happen only at event times.
    """
    durations, events = _validate_outcomes(durations, events)
    order = np.argsort(durations, kind="stable")
    sorted_t = durations[order]
    sorted_e = events[order]
    unique_t, start_idx, counts = np.unique(sorted_t, return_index=True, return_counts=True)
    n = durations.size
    at_risk = n - np.concatenate([[0], np.cumsum(counts)[:-1]])
    d = np.add.reduceat(sorted_e, start_idx)
    has_event = d > 0
    factors = 1.0 - d[has_event] / at_risk[has_event]
    return StepFunction(unique_t[has_event], np.cumprod(factors))


@dataclass
class SurvivalCurves:
    """Per-subject piecewise-linear survival curves on shared knots.

    ``values[i]`` are subject i's survival probabilities at ``times``.
    Queries clamp to the knot range, so the curve extends as a constant
    beyond the last knot (the mass past the horizon sits in the extra bin).
    """

    times: Array
    values: Array

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.values.ndim != 2:
            raise ContractError("times must be 1-D and values 2-D")
        if self.values.shape[1] != self.times.size:
            raise ContractError("values must have one column per knot")
        if self.times.size < 2 or np.any(np.diff(self.times) <= 0):
            raise ContractError("need at least two strictly increasing knots")

    def __len__(self) -> int:
        return self.values.shape[0]

    def at(self, t: float) -> Array:
        """All curves evaluated at scalar time t, shape (n,)."""
        t = float(t)
        if t <= self.times[0]:
            return self.values[:, 0].copy()
        if t >= self.times[-1]:
            return self.values[:, -1].copy()
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        left = self.values[:, k]
        return left + w * (self.values[:, k + 1] - left)

    def single(self, i: int) -> "SurvivalCurves":
        return SurvivalCurves(self.times, self.values[i : i + 1, :])

    @staticmethod
    def constant(value: float, n: int, t_max: float) -> "SurvivalCurves":
        return SurvivalCurves(
            np.array([0.0, t_max]), np.full((n, 2), float(value))
        )

    @staticmethod
    def from_bin_probs(probs: Array, grid: TimeGrid) -> "SurvivalCurves":
        """Curves through (0, 1) and (boundary_{k+1}, 1 - cumsum(probs)_k)."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[1] != grid.n_bins + 1:
            raise ContractError(
                f"probs must be (n, {grid.n_bins + 1}) for this grid, got {probs.shape}"
            )
        surv = 1.0 - np.cumsum(probs[:, :-1], axis=1)
        values = np.concatenate([np.ones((probs.shape[0], 1)), surv], axis=1)
        return SurvivalCurves(grid.boundaries, values)


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------


def concordance_td(curves: SurvivalCurves, durations, events) -> float:
    """Time-dependent concordance over comparable pairs.

    Pair (i, j) is comparable when T_i < T_j and subject i has an event,
    or T_i = T_j with i an event and j censored. It counts as concordant
    when the event subject's own curve is lower at T_i than the other
    subject's; equal predictions count half.
    """
    durations, events = _validate_outcomes(durations, events)
    if len(curves) != durations.size:
        raise ContractError("one curve per subject is required")
    concordant = 0
    tied = 0
    comparable = 0
    for i in np.where(events == 1)[0]:
        t_i = durations[i]
        row = curves.at(t_i)
        mask = (durations > t_i) | ((durations == t_i) & (events == 0))
        count = int(mask.sum())
        if count == 0:
            continue
        comparable += count
        s_own = row[i]
        others = row[mask]
        concordant += int((s_own < others).sum())
        tied += int((s_own == others).sum())
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs; concordance is undefined")
    return (concordant + 0.5 * tied) / comparable


# ---------------------------------------------------------------------------
# IPCW Brier score and binomial log likelihood
# ---------------------------------------------------------------------------


def _ipcw_terms(curves, durations, events, t: float, censor_sf: StepFunction):
    """Shared scaffolding: survival at t, the two indicator groups, and
    their censoring weights. Raises if a needed weight degenerates to 0."""
    s_t = curves.at(t)
    had_event = (durations <= t) & (events == 1)
    still_alive = durations > t
    g_event = censor_sf.left(durations[had_event])
    g_alive = censor_sf.at(t)
    if np.any(g_event <= 0.0) or (still_alive.any() and g_alive <= 0.0):
        raise WeightDegeneracyError(
            f"censoring weight is zero at evaluation time {t}"
        )
    return s_t, had_event, still_alive, g_event, g_alive


def brier_ipcw(
    curves: SurvivalCurves, durations, events, t: float,
    censor_sf: StepFunction | None = None,
) -> float:
    """IPCW Brier score at time t.

    Past events contribute S(t)^2 / G(T-), the still-at-risk contribute
    (1 - S(t))^2 / G(t); censored-before-t subjects contribute nothing but
    stay in the denominator n.
    """
    durations, events = _validate_outcomes(durations, events)
    if len(curves) != durations.size:
        raise ContractError("one curve per subject is required")
    if censor_sf is None:
        censor_sf = km_estimator(durations, 1 - events)
    s_t, had_event, still_alive, g_event, g_alive = _ipcw_terms(
        curves, durations, events, t, censor_sf
    )
    total = (s_t[had_event] ** 2 / g_event).sum()
    total += ((1.0 - s_t[still_alive]) ** 2 / g_alive).sum()
    return float(total / durations.size)


def binomial_ll(
    curves: SurvivalCurves, durations, events, t: float,
    censor_sf: StepFunction | None = None,
) -> float:
    """IPCW binomial log likelihood at time t (higher is better).

    Same weighting scheme as the Brier score; survival probabilities are
    clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    durations, events = _validate_outcomes(durations, events)
    if len(curves) != durations.size:
        raise ContractError("one curve per subject is required")
    if censor_sf is None:
        censor_sf = km_estimator(durations, 1 - events)
    s_t, had_event, still_alive, g_event, g_alive = _ipcw_terms(
        curves, durations, events, t, censor_sf
    )
    s_t = np.clip(s_t, LOG_CLAMP, 1.0 - LOG_CLAMP)
    total = (np.log(1.0 - s_t[had_event]) / g_event).sum()
    total += (np.log(s_t[still_alive]) / g_alive).sum()
    return float(total / durations.size)


def _integration_times(durations: Array, n_times: int) -> Array:
    if n_times < 2:
        raise DomainError(f"need at least 2 integration times, got {n_times}")
    t_max = float(durations.max())
    if t_max <= 0:
        raise DomainError("integration needs a positive maximum duration")
    return np.linspace(t_max / n_times, t_max, n_times)


def integrated_brier(
    curves: SurvivalCurves, durations, events, n_times: int = EVAL_TIMES
) -> float:
    """Trapezoidal average of the IPCW Brier score over ``n_times`` equally
    spaced times in (0, max duration]."""
    durations, events = _validate_outcomes(durations, events)
    times = _integration_times(durations, n_times)
    censor_sf = km_estimator(durations, 1 - events)
    scores = np.array(
        [brier_ipcw(curves, durations, events, t, censor_sf) for t in times]
    )
    return float(np.trapezoid(scores, times) / (times[-1] - times[0]))


def integrated_bll(
    curves: SurvivalCurves, durations, events, n_times: int = EVAL_TIMES
) -> float:
    """Negated trapezoidal average of the IPCW binomial log likelihood
    (INBLL, lower is better) over the same grid as the Brier integral."""
    durations, events = _validate_outcomes(durations, events)
    times = _integration_times(durations, n_times)
    censor_sf = km_estimator(durations, 1 - events)
    lls = np.array(
        [binomial_ll(curves, durations, events, t, censor_sf) for t in times]
    )
    return float(-np.trapezoid(lls, times) / (times[-1] - times[0]))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    c_td: float
    ibs: float
    inbll: float
    n_eval_times: int = EVAL_TIMES

    def to_json_dict(self) -> dict:
        return {
            "c_td": self.c_td,
            "ibs": self.ibs,
            "inbll": self.inbll,
            "n_eval_times": self.n_eval_times,
        }


@dataclass
class HorizonReport:
    auroc: float
    auprc: float
    sensitivity: float
    horizon: float

    def to_json_dict(self) -> dict:
        return {
            "auroc": self.auroc,
            "auprc": self.auprc,
            "sensitivity": self.sensitivity,
            "horizon": self.horizon,
        }


def evaluate_all(
    curves: SurvivalCurves, durations, events, n_times: int = EVAL_TIMES
) -> EvalReport:
    """Concordance plus integrated Brier and negated binomial likelihood."""
    return EvalReport(
        c_td=concordance_td(curves, durations, events),
        ibs=integrated_brier(curves, durations, events, n_times),
        inbll=integrated_bll(curves, durations, events, n_times),
        n_eval_times=n_times,
    )


# ---------------------------------------------------------------------------
# fixed-horizon binary metrics
# ---------------------------------------------------------------------------


def horizon_labels(durations, events, horizon: float) -> tuple[Array, Array]:
    """Binary outcome at a horizon: label 1 for an observed event at or
    before it. Subjects censored strictly before the horizon are excluded;
    returns (labels, include_mask)."""
    durations, events = _validate_outcomes(durations, events)
    if horizon <= 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    include = ~((events == 0) & (durations < horizon))
    labels = (events == 1) & (durations <= horizon)
    return labels[include].astype(np.int64), include


def horizon_binary_metrics(risks, labels, horizon: float) -> HorizonReport:
    """AUROC (Mann-Whitney U with ties counted half), AUPRC (step
    integration of the precision-recall curve), and sensitivity at the
    Youden-optimal threshold, all from one sweep over distinct risks."""
    risks = np.asarray(risks, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if risks.shape != labels.shape or risks.ndim != 1:
        raise ContractError("risks and labels must be matching 1-D arrays")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            "horizon metrics need at least one positive and one negative"
        )

    # sweep thresholds at distinct risk values, descending
    order = np.argsort(-risks, kind="stable")
    sorted_labels = labels[order]
    sorted_risks = risks[order]
    boundary = np.where(np.diff(sorted_risks) != 0)[0]
    cut = np.concatenate([boundary, [risks.size - 1]])  # last index per group
    tp = np.cumsum(sorted_labels)[cut]
    fp = cut + 1 - tp
    prev_tp = np.concatenate([[0], tp[:-1]])
    # trapezoids under the ROC steps (Hanley & McNeil 1982): each group's
    # negatives rank below the positives of earlier groups and tie with
    # its own; in integers, so the ratio is rounded once
    u_twice = int((np.diff(fp, prepend=0) * (tp + prev_tp)).sum())
    auroc = u_twice / 2 / (n_pos * n_neg)
    precision = tp / (cut + 1)
    recall = tp / n_pos
    auprc = float(((recall - prev_tp / n_pos) * precision).sum())

    youden = recall - fp / n_neg
    best = np.where(youden == youden.max())[0]
    sensitivity = float(recall[best].max())
    return HorizonReport(
        auroc=float(auroc), auprc=auprc, sensitivity=sensitivity, horizon=horizon
    )


# ---------------------------------------------------------------------------
# permutation importance
# ---------------------------------------------------------------------------


def _permute_feature(
    ds: SurvivalDataset, feature: str, rng: np.random.Generator
) -> SurvivalDataset:
    from dataclasses import replace as dc_replace

    schema = ds.schema
    n = len(ds)
    records = list(ds.records)
    blocks = [(name, 1) for name in schema.numeric_static]
    blocks += [(name, len(cats)) for name, cats in schema.categorical_static.items()]
    offset = 0
    for name, width in blocks:
        if name == feature:
            statics = np.stack([r.static_features for r in records])
            cols = slice(offset, offset + width)
            statics[:, cols] = statics[rng.permutation(n), cols]
            return SurvivalDataset(
                schema=schema,
                records=[dc_replace(r, static_features=s) for r, s in zip(records, statics)],
            )
        offset += width
    if feature in schema.time_varying:
        col = schema.time_varying.index(feature)
        # whole trajectories swap only between subjects with equal length
        by_len: dict[int, list[int]] = {}
        for i, r in enumerate(records):
            by_len.setdefault(r.n_steps, []).append(i)
        new_records = list(records)
        for _, idxs in sorted(by_len.items()):
            idxs = np.array(idxs)
            perm = idxs[rng.permutation(len(idxs))]
            for i, j in zip(idxs, perm):
                r = new_records[i]
                series = r.series.copy()
                mask = r.series_mask.copy()
                series[:, col] = records[j].series[:, col]
                mask[:, col] = records[j].series_mask[:, col]
                new_records[i] = dc_replace(r, series=series, series_mask=mask)
        return SurvivalDataset(schema=schema, records=new_records)
    raise ContractError(f"unknown feature '{feature}'")


def permutation_importance(
    predict,
    ds: SurvivalDataset,
    n_repeats: int = 5,
    seed: int = 0,
    baseline: float | None = None,
) -> list[tuple[str, float]]:
    """Concordance drop when one feature is shuffled across subjects.

    ``predict`` maps a SurvivalDataset to SurvivalCurves. Time-varying
    features are shuffled as whole per-subject trajectories. ``baseline``
    is the concordance on the unshuffled ``ds``; a caller that already
    has it passes it in and saves one prediction. Returns (feature, mean
    drop) pairs sorted by decreasing importance.
    """
    if n_repeats < 1:
        raise DomainError(f"n_repeats must be >= 1, got {n_repeats}")
    durations, events = ds.durations(), ds.events()
    if baseline is None:
        baseline = concordance_td(predict(ds), durations, events)
    rng = np.random.default_rng(seed)
    results = []
    for feature in ds.schema.feature_names():
        drops = []
        for _ in range(n_repeats):
            shuffled = _permute_feature(ds, feature, rng)
            score = concordance_td(predict(shuffled), durations, events)
            drops.append(baseline - score)
        results.append((feature, float(np.mean(drops))))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results

"""Censoring-aware evaluation for discrete-time survival predictions.

Implements the Kaplan-Meier product-limit estimator, time-dependent
concordance over comparable pairs (event times with one event subject are
counted in blocks of rows, times shared by several once per time),
the inverse-probability-of-censoring weighted (IPCW) Brier score and
binomial log likelihood with their integrated forms (one sweep over the
evaluation times yields both), fixed-horizon binary classification
metrics, and permutation feature importance. Curves are piecewise linear
on shared knots and extend as constants outside the knot range.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import all_finite
from .data import SurvivalDataset, TimeGrid
from .errors import (
    ContractError,
    DomainError,
    MetricUndefinedError,
    WeightDegeneracyError,
)

Array = np.ndarray

EVAL_TIMES = 100  # equally spaced times behind IBS and INBLL
LOG_CLAMP = 1e-12
# most entries of one working array in concordance and in the IPCW scores
CONCORDANCE_BLOCK = 1 << 15


def _validate_outcomes(durations, events, curves=None) -> tuple[Array, Array]:
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
    if curves is not None and len(curves) != durations.size:
        raise ContractError("one curve per subject is required")
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
        q = np.asarray(t, dtype=np.float64)
        if np.isnan(q).any():  # searchsorted would sort NaN past the last step
            raise DomainError("cannot evaluate a step function at NaN")
        idx = np.searchsorted(self.times, q, side=side)
        out = np.concatenate([[1.0], self.values])[idx]
        return float(out) if np.ndim(t) == 0 else out

    def at(self, t):
        """Value at t (right-continuous); a float for scalar t."""
        return self._lookup(t, "right")

    def left(self, t):
        """Left limit: the value just before t."""
        return self._lookup(t, "left")


def km_estimator(durations, events) -> StepFunction:
    """Kaplan-Meier product-limit estimate of the survival function.

    Ties are grouped: at each distinct time with d events among n at risk
    the curve multiplies by (1 - d/n). Jumps happen only at event times.
    """
    durations, events = _validate_outcomes(durations, events)
    order = np.argsort(durations, kind="stable")
    unique_t, start_idx, counts = np.unique(
        durations[order], return_index=True, return_counts=True
    )
    at_risk = durations.size - np.concatenate([[0], np.cumsum(counts)[:-1]])
    d = np.add.reduceat(events[order], start_idx)
    has_event = d > 0
    factors = 1.0 - d[has_event] / at_risk[has_event]
    return StepFunction(unique_t[has_event], np.cumprod(factors))


@dataclass
class SurvivalCurves:
    """Per-subject piecewise-linear survival curves on shared knots.

    ``values[i]`` are subject i's survival probabilities at ``times``.
    Queries clamp to the knot range, so the curve extends as a constant
    beyond the last knot (the mass past the horizon sits in the extra bin).
    A NaN or ±inf value raises DomainError.
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
        if self.times.size < 2 or not (self.times[1:] > self.times[:-1]).all():  # a NaN fails too
            raise ContractError("need at least two strictly increasing knots")
        if not all_finite(self.values):
            raise DomainError("survival values must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]

    def at(self, t) -> Array:
        """All curves at time t, (n,) for a scalar t and (len(t), n) for a 1-D
        array: left + w * (right - left) inside the knots, end columns outside."""
        ts = np.asarray(t, dtype=np.float64)
        if np.isnan(ts).any():
            raise DomainError("cannot evaluate survival curves at NaN")
        knots, cols = self.times, self.values.T
        inside = np.minimum(np.maximum(ts, knots[0]), knots[-1])  # so ±inf makes no inf * 0
        k = np.searchsorted(knots[:-1], inside, side="right") - 1
        w = (inside - knots[k]) / (knots[k + 1] - knots[k])
        left = cols[k]
        rows = cols[k + 1] - left
        rows *= w[..., None]
        rows += left
        rows[ts <= knots[0]] = cols[0]
        rows[ts >= knots[-1]] = cols[-1]
        return rows

    @staticmethod
    def from_bin_probs(probs: Array, grid: TimeGrid) -> "SurvivalCurves":
        """Curves through (0, 1) and (boundary_{k+1}, 1 - cumsum(probs)_k)."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[1] != grid.n_bins + 1:
            raise ContractError(
                f"probs must be (n, {grid.n_bins + 1}) for this grid, got {probs.shape}"
            )
        values = np.empty(probs.shape)
        values[:, 0] = 0.0  # 1 - 0 below: S(0) = 1
        np.cumsum(probs[:, :-1], axis=1, out=values[:, 1:])
        np.subtract(1.0, values, out=values)
        return SurvivalCurves(grid.boundaries, values)


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------


def _concordance(curves: SurvivalCurves, durations: Array, events: Array) -> float:
    is_event = events == 1
    event_idx = np.flatnonzero(is_event)
    times, inverse, counts = np.unique(
        durations[event_idx], return_inverse=True, return_counts=True
    )
    concordant = tied = comparable = 0
    # an event time with one event subject is one row of pairs, and blocks
    # of such rows are counted as whole arrays. Subject j is comparable with
    # an event at t when T_j > t, or T_j = t and j is censored; a censored
    # duration moved up by one float turns that into the one test later > t
    lone = event_idx[counts[inverse] == 1]
    later = np.where(is_event, durations, np.nextafter(durations, np.inf))
    step = max(1, CONCORDANCE_BLOCK // durations.size)
    for lo in range(0, lone.size, step):
        idx = lone[lo : lo + step]
        ts = durations[idx]
        rows = curves.at(ts)
        own = rows[np.arange(idx.size), idx][:, None]
        pairs = later > ts[:, None]
        comparable += int(np.count_nonzero(pairs))
        concordant += int(np.count_nonzero((own < rows) & pairs))
        tied += int(np.count_nonzero((own == rows) & pairs))
    # every event subject at a shared time t reads the same curve column and
    # the same comparable set, so those pairs are counted once per such time
    shared = times[counts > 1]
    for lo in range(0, shared.size, step):
        block = shared[lo : lo + step]
        for t, row in zip(block, curves.at(block)):
            own = row[(durations == t) & is_event]
            others = row[later > t]
            if others.size == 0:
                continue
            comparable += own.size * others.size
            per = max(1, CONCORDANCE_BLOCK // others.size)
            for first in range(0, own.size, per):
                part = own[first : first + per, None]
                concordant += int(np.count_nonzero(part < others))
                tied += int(np.count_nonzero(part == others))
    if comparable == 0:
        raise MetricUndefinedError("no comparable pairs; concordance is undefined")
    return (concordant + 0.5 * tied) / comparable


def concordance_td(curves: SurvivalCurves, durations, events) -> float:
    """Time-dependent concordance over comparable pairs.

    Pair (i, j) is comparable when T_i < T_j and subject i has an event,
    or T_i = T_j with i an event and j censored. It counts as concordant
    when the event subject's own curve is lower at T_i than the other
    subject's; equal predictions count half.
    """
    return _concordance(curves, *_validate_outcomes(durations, events, curves))


# ---------------------------------------------------------------------------
# IPCW Brier score and binomial log likelihood
# ---------------------------------------------------------------------------


def _ipcw_scores(curves, durations, events, times, censor_sf: StepFunction | None):
    """Brier scores and binomial log likelihoods at each of ``times``; the
    censoring curve G (Kaplan-Meier unless given) is read at each T- and
    time, the curves per block of times. Raises if a needed weight is 0."""
    if censor_sf is None:
        censor_sf = km_estimator(durations, 1 - events)
    g_own = censor_sf.left(durations)
    g_times = censor_sf.at(np.asarray(times, dtype=np.float64))
    is_event = events == 1
    brier, loglik = np.empty((2, len(times)))
    step = max(1, CONCORDANCE_BLOCK // durations.size)
    for k, t in enumerate(times):
        if k % step == 0:
            surv = curves.at(times[k : k + step])
        s_t = surv[k % step]
        had_event = (durations <= t) & is_event
        still_alive = durations > t
        g_event = g_own[had_event]
        g_alive = g_times[k]
        if np.any(g_event <= 0.0) or (still_alive.any() and g_alive <= 0.0):
            raise WeightDegeneracyError(f"censoring weight is zero at evaluation time {t}")
        total = (s_t[had_event] ** 2 / g_event).sum()
        total += ((1.0 - s_t[still_alive]) ** 2 / g_alive).sum()
        brier[k] = total / durations.size
        s_t = np.clip(s_t, LOG_CLAMP, 1.0 - LOG_CLAMP)
        total = (np.log(1.0 - s_t[had_event]) / g_event).sum()
        total += (np.log(s_t[still_alive]) / g_alive).sum()
        loglik[k] = total / durations.size
    return brier, loglik


def brier_ipcw(
    curves: SurvivalCurves, durations, events, t: float,
    censor_sf: StepFunction | None = None,
) -> float:
    """IPCW Brier score at time t.

    Past events contribute S(t)^2 / G(T-), the still-at-risk contribute
    (1 - S(t))^2 / G(t); censored-before-t subjects contribute nothing but
    stay in the denominator n.
    """
    durations, events = _validate_outcomes(durations, events, curves)
    return float(_ipcw_scores(curves, durations, events, [t], censor_sf)[0][0])


def binomial_ll(
    curves: SurvivalCurves, durations, events, t: float,
    censor_sf: StepFunction | None = None,
) -> float:
    """IPCW binomial log likelihood at time t (higher is better).

    Same weighting scheme as the Brier score; survival probabilities are
    clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    durations, events = _validate_outcomes(durations, events, curves)
    return float(_ipcw_scores(curves, durations, events, [t], censor_sf)[1][0])


def _ipcw_integrals(curves, durations, events) -> tuple[float, float]:
    """(IBS, INBLL): trapezoidal averages of the Brier score and of the
    negated binomial log likelihood over ``EVAL_TIMES`` equally spaced times
    in (0, max duration], from one fit of the censoring distribution."""
    t_max = float(durations.max())
    if t_max <= 0:
        raise DomainError("integration needs a positive maximum duration")
    times = np.linspace(t_max / EVAL_TIMES, t_max, EVAL_TIMES)
    brier, loglik = _ipcw_scores(curves, durations, events, times, None)
    span = times[-1] - times[0]
    return (float(np.trapezoid(brier, times) / span),
            float(-np.trapezoid(loglik, times) / span))


def integrated_brier(curves: SurvivalCurves, durations, events) -> float:
    """Trapezoidal average of the IPCW Brier score over ``EVAL_TIMES``
    equally spaced times in (0, max duration]."""
    return _ipcw_integrals(curves, *_validate_outcomes(durations, events, curves))[0]


def integrated_bll(curves: SurvivalCurves, durations, events) -> float:
    """Negated trapezoidal average of the IPCW binomial log likelihood
    (INBLL, lower is better) over the same grid as the Brier integral."""
    return _ipcw_integrals(curves, *_validate_outcomes(durations, events, curves))[1]


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
        return asdict(self)


@dataclass
class HorizonReport:
    auroc: float
    auprc: float
    sensitivity: float
    horizon: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def evaluate_all(curves: SurvivalCurves, durations, events) -> EvalReport:
    """Concordance plus integrated Brier and negated binomial likelihood,
    from one check of the outcomes and one censoring fit."""
    durations, events = _validate_outcomes(durations, events, curves)
    c_td = _concordance(curves, durations, events)
    return EvalReport(c_td, *_ipcw_integrals(curves, durations, events))


# ---------------------------------------------------------------------------
# fixed-horizon binary metrics
# ---------------------------------------------------------------------------


def horizon_labels(durations, events, horizon: float) -> tuple[Array, Array]:
    """Binary outcome at a horizon: label 1 for an observed event at or
    before it. Subjects censored strictly before the horizon are excluded;
    returns (labels, include_mask)."""
    durations, events = _validate_outcomes(durations, events)
    if not 0.0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
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
    """``ds`` with one feature shuffled across subjects: a static block as a
    whole, a series feature as whole trajectories within each group of equal
    length, by increasing length. The other columns are shared with ``ds``."""
    schema = ds.schema
    blocks = [(name, 1) for name in schema.numeric_static]
    blocks += [(name, len(cats)) for name, cats in schema.categorical_static.items()]
    offset = 0
    for name, width in blocks:
        if name == feature:
            statics = ds.statics.copy()
            cols = slice(offset, offset + width)
            statics[:, cols] = statics[rng.permutation(len(ds)), cols]
            return ds.replace(statics=statics, truth=None)
        offset += width
    if feature in schema.time_varying:
        col = schema.time_varying.index(feature)
        series, mask = ds.series.copy(), ds.mask.copy()
        for length in np.unique(ds.lengths):
            idxs = np.flatnonzero(ds.lengths == length)
            perm = idxs[rng.permutation(len(idxs))]
            series[idxs, :, col] = ds.series[perm, :, col]
            mask[idxs, :, col] = ds.mask[perm, :, col]
        return ds.replace(series=series, mask=mask, truth=None)
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

"""Slow brute-force metric implementations used as oracles by the metric
tests and the acceptance gate, the per-event-subject concordance and
per-time IPCW scores that the batched metrics replace, numpy references
for the tape losses, the tape primitives and compositions that the fused
LSTM, dense, latent and loss nodes replace, the tape-recording inference
that the forward-only one replaces, the fused LSTM kernel and its
backpropagation through time as they ran before their buffers were
reused, the per-parameter Adam loop that the
flat update replaces, the serial grid search and seed refits that the
worker pool replaces, the record-by-record data preparation and quantile
fit that the stacked ones replace, the row-by-row CSV loader that the
column parse replaces, the ``dataclasses.replace`` shuffle of permutation
importance, and the synthetic generator's true cumulative incidence. Kept deliberately naive: different formulation, same
definition as the fast paths. ``static_record`` builds a hand-made record
of static data."""

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from dysurv import training
from dysurv.autodiff import _ACTIVATIONS, Param, Tape, Tensor, _check_finite, _operand
from dysurv.data import (
    FeatureSchema,
    QuantileTransform,
    SubjectRecord,
    SurvivalDataset,
    TimeGrid,
    _fit_table,
    discretize,
    load_manifest,
)
from dysurv.errors import (
    ContractError,
    DomainError,
    DySurvError,
    MetricUndefinedError,
    NumericalError,
    ParseError,
    ReferentialError,
    SchemaError,
    SearchFailureError,
    WeightDegeneracyError,
)
from dysurv.metrics import (
    EVAL_TIMES,
    EvalReport,
    LOG_CLAMP,
    Array,
    StepFunction,
    SurvivalCurves,
    _validate_outcomes,
    evaluate_all,
    km_estimator,
)
from dysurv.model import PROB_FLOOR, forward_graph, predict_risk_batch
from dysurv.nn import glorot_uniform
from dysurv.training import (
    GridSearchResult,
    MultiSeedReport,
    SeedResult,
    SplitArrays,
    TrialResult,
)


def true_cif(truth):
    """Cumulative incidence of a synthetic generator's ``SyntheticTruth``,
    shape (n, n_bins)."""
    return np.cumsum(truth.pmf, axis=1)


def static_record(rid, statics, duration=1.0, event=1):
    """A record with no series feature: one visit, at time 0."""
    return SubjectRecord(rid, statics, np.zeros((1, 0)), np.zeros((1, 0), dtype=bool),
                         duration, event, np.zeros(1))


def max_rel_diff(got, want):
    """Largest absolute difference relative to the largest reference entry."""
    return float(np.max(np.abs(got - want)) / max(1e-300, np.max(np.abs(want))))


def naive_km_value(durations, events, t, strict=False):
    """Product over distinct event times <= t (or < t), one factor at a time."""
    durations = np.asarray(durations, dtype=np.float64)
    events = np.asarray(events)
    s = 1.0
    for u in np.unique(durations):
        if (u < t) if strict else (u <= t):
            r = int((durations >= u).sum())
            d = int(((durations == u) & (events == 1)).sum())
            if d > 0:
                s = s * (1.0 - d / r)
    return s


def naive_concordance(curves, durations, events):
    """Pairwise double loop; returns None when no pair is comparable."""
    concordant = 0.0
    comparable = 0
    n = len(durations)
    for i in range(n):
        if events[i] != 1:
            continue
        row = curves.at(durations[i])
        s_i = row[i]
        for j in range(n):
            if j == i:
                continue
            ok = durations[j] > durations[i] or (
                durations[j] == durations[i] and events[j] == 0
            )
            if not ok:
                continue
            comparable += 1
            if s_i < row[j]:
                concordant += 1
            elif s_i == row[j]:
                concordant += 0.5
    if comparable == 0:
        return None
    return concordant / comparable


def naive_auroc(risks, labels):
    """Pairwise count over positive x negative pairs, ties counted half."""
    pos = [r for r, y in zip(risks, labels) if y == 1]
    neg = [r for r, y in zip(risks, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def naive_brier(curves, durations, events, t):
    """Per-subject loop with a from-scratch censoring weight per term."""
    n = len(durations)
    total = 0.0
    for i in range(n):
        s = float(SurvivalCurves(curves.times, curves.values[i : i + 1]).at(t)[0])
        if durations[i] <= t and events[i] == 1:
            g = naive_km_value(durations, 1 - np.asarray(events), durations[i], strict=True)
            total += (0.0 - s) ** 2 / g
        elif durations[i] > t:
            g = naive_km_value(durations, 1 - np.asarray(events), t)
            total += (1.0 - s) ** 2 / g
    return total / n


# The per-event-subject concordance and the per-time IPCW functions that
# the metrics module replaced with whole-array counts over event times and
# one sweep over the evaluation times, kept verbatim; the fast paths must
# match them bit for bit, errors included.


def concordance_td_reference(curves: SurvivalCurves, durations, events) -> float:
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


def _ipcw_terms_reference(curves, durations, events, t: float, censor_sf: StepFunction):
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


def brier_ipcw_reference(
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
    s_t, had_event, still_alive, g_event, g_alive = _ipcw_terms_reference(
        curves, durations, events, t, censor_sf
    )
    total = (s_t[had_event] ** 2 / g_event).sum()
    total += ((1.0 - s_t[still_alive]) ** 2 / g_alive).sum()
    return float(total / durations.size)


def binomial_ll_reference(
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
    s_t, had_event, still_alive, g_event, g_alive = _ipcw_terms_reference(
        curves, durations, events, t, censor_sf
    )
    s_t = np.clip(s_t, LOG_CLAMP, 1.0 - LOG_CLAMP)
    total = (np.log(1.0 - s_t[had_event]) / g_event).sum()
    total += (np.log(s_t[still_alive]) / g_alive).sum()
    return float(total / durations.size)


def _integration_times_reference(durations: Array, n_times: int) -> Array:
    if n_times < 2:
        raise DomainError(f"need at least 2 integration times, got {n_times}")
    t_max = float(durations.max())
    if t_max <= 0:
        raise DomainError("integration needs a positive maximum duration")
    return np.linspace(t_max / n_times, t_max, n_times)


def integrated_brier_reference(
    curves: SurvivalCurves, durations, events, n_times: int = EVAL_TIMES
) -> float:
    """Trapezoidal average of the IPCW Brier score over ``n_times`` equally
    spaced times in (0, max duration]."""
    durations, events = _validate_outcomes(durations, events)
    times = _integration_times_reference(durations, n_times)
    censor_sf = km_estimator(durations, 1 - events)
    scores = np.array(
        [brier_ipcw_reference(curves, durations, events, t, censor_sf) for t in times]
    )
    return float(np.trapezoid(scores, times) / (times[-1] - times[0]))


def integrated_bll_reference(
    curves: SurvivalCurves, durations, events, n_times: int = EVAL_TIMES
) -> float:
    """Negated trapezoidal average of the IPCW binomial log likelihood
    (INBLL, lower is better) over the same grid as the Brier integral."""
    durations, events = _validate_outcomes(durations, events)
    times = _integration_times_reference(durations, n_times)
    censor_sf = km_estimator(durations, 1 - events)
    lls = np.array(
        [binomial_ll_reference(curves, durations, events, t, censor_sf) for t in times]
    )
    return float(-np.trapezoid(lls, times) / (times[-1] - times[0]))


# The shuffle that permutation importance scores, as it was before the
# records were built with the constructor, kept verbatim.


def permute_feature_reference(
    ds: SurvivalDataset, feature: str, rng: np.random.Generator
) -> SurvivalDataset:
    """The shuffled copy of ``ds`` that ``permutation_importance`` scores,
    each record rebuilt with ``dataclasses.replace``."""
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
                records=[replace(r, static_features=s) for r, s in zip(records, statics)],
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
                new_records[i] = replace(r, series=series, series_mask=mask)
        return SurvivalDataset(schema=schema, records=new_records)
    raise ContractError(f"unknown feature '{feature}'")


def constant_curves(value: float, n: int, t_max: float) -> SurvivalCurves:
    """n identical flat curves at ``value`` on the knots 0 and t_max."""
    return SurvivalCurves(np.array([0.0, t_max]), np.full((n, 2), float(value)))


def random_instance(rng, n, n_bins=8):
    """Random durations, events, and valid survival curves for oracle runs."""
    durations = rng.uniform(0.1, 10.0, size=n)
    events = rng.integers(0, 2, size=n)
    logits = rng.standard_normal((n, n_bins + 1))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    grid = TimeGrid(n_bins=n_bins, t_max=10.0)
    return durations, events, SurvivalCurves.from_bin_probs(probs, grid)


def _suffix_sums(probs):
    """suffix[i, k] = sum of probs[i, k:]; column K+1 would be zero."""
    return np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]


def _validate_nll_inputs(probs, bins, events, last_obs_bins):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ContractError("probs must be (n, n_bins + 1)")
    n, kp1 = probs.shape
    bins = np.asarray(bins, dtype=np.int64)
    events = np.asarray(events, dtype=np.int64)
    if last_obs_bins is None:
        last_obs_bins = np.full(n, -1, dtype=np.int64)
    else:
        last_obs_bins = np.asarray(last_obs_bins, dtype=np.int64)
    if not (bins.shape == events.shape == last_obs_bins.shape == (n,)):
        raise ContractError("bins, events and last_obs_bins must all be (n,)")
    if np.any(bins < 0) or np.any(bins > kp1 - 2):
        raise DomainError("event/censor bins must lie in [0, n_bins - 1]")
    if np.any((events != 0) & (events != 1)):
        raise DomainError("events must be 0 or 1")
    if np.any(last_obs_bins < -1) or np.any(last_obs_bins > bins):
        raise DomainError(
            "last observed bin must lie in [-1, bin]; -1 means no observation window"
        )
    return probs, bins, events, last_obs_bins


def loss_survival_nll(probs, bins, events, last_obs_bins=None) -> float:
    """Discrete-time negative log likelihood, summed over the batch.

    Event subjects contribute -log(a_bin / sum_{n > l} a_n) with l the last
    observed bin (l = -1 conditions on nothing); censored subjects
    contribute -log(sum_{n > bin} a_n). Probabilities are clamped to
    [1e-12, 1] before the log.
    """
    probs, bins, events, last_obs = _validate_nll_inputs(probs, bins, events, last_obs_bins)
    n = probs.shape[0]
    idx = np.arange(n)
    suffix = _suffix_sums(probs)
    pick = probs[idx, bins]
    den_evt = suffix[idx, last_obs + 1]
    den_cen = suffix[idx, bins + 1]
    bad_evt = (events == 1) & (den_evt <= 0)
    bad_cen = (events == 0) & (den_cen <= 0)
    if bad_evt.any() or bad_cen.any():
        offenders = np.where(bad_evt | bad_cen)[0][:8].tolist()
        raise NumericalError(
            f"nonpositive likelihood denominator for subjects {offenders}"
        )
    clamp = lambda v: np.clip(v, PROB_FLOOR, 1.0)
    evt_terms = -(np.log(clamp(pick)) - np.log(clamp(den_evt)))
    cen_terms = -np.log(clamp(den_cen))
    return float(np.where(events == 1, evt_terms, cen_terms).sum())


def loss_vae(x, x_recon, mu, sigma) -> float:
    """Reconstruction MSE plus Gaussian KL, summed over the batch.

    The MSE is the mean over each subject's input entries, so its scale
    does not grow with the sequence length or feature count.
    """
    x = np.asarray(x, dtype=np.float64)
    x_recon = np.asarray(x_recon, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.ndim == 1:
        mu, sigma = mu[None, :], sigma[None, :]
        x, x_recon = x[None, ...], x_recon[None, ...]
    if x.shape != x_recon.shape:
        raise ContractError(f"x {x.shape} and x_recon {x_recon.shape} differ")
    if mu.shape != sigma.shape:
        raise ContractError("mu and sigma must share a shape")
    if np.any(sigma <= 0):
        raise DomainError("sigma must be strictly positive")
    n = mu.shape[0]
    mse = ((x - x_recon) ** 2).reshape(n, -1).mean(axis=1)
    kl = 0.5 * (mu**2 + sigma**2 - 1.0 - np.log(sigma**2)).sum(axis=1)
    return float((mse + kl).sum())


# ---------------------------------------------------------------------------
# primitives the model no longer records
# ---------------------------------------------------------------------------


class ReferenceTape(Tape):
    """A tape with the elementwise, matmul and reduction primitives that
    the fused LSTM, dense, reparameterisation, decoder-input and loss nodes
    replaced. The composed references below and the finite-difference tests
    build on it."""

    def _binary(self, a, b, fwd, vjp_ab, vjp_scalar, op: str) -> Tensor:
        """Shared plumbing for add/sub/mul with scalar and bias broadcast."""
        if isinstance(b, (int, float)):
            av, a = _operand(a)
            out = fwd(av, float(b))
            return self._push(out, (a,), vjp_scalar(av, float(b)), op)
        (av, a), (bv, b) = _operand(a), _operand(b)
        row_bias = av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]
        if not row_bias and av.shape != bv.shape:
            raise ContractError(f"{op} shape mismatch: {av.shape} vs {bv.shape}")
        out = fwd(av, bv)
        return self._push(out, (a, b), vjp_ab(av, bv, row_bias), op)

    def add(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            def vjp(g):
                gb = g.sum(axis=0) if row_bias else g
                return g, gb

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g,)

        return self._binary(a, b, lambda x, y: x + y, vjp_ab, vjp_scalar, "add")

    def mul(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            if row_bias:

                def vjp(g):
                    return g * bv, (g * av).sum(axis=0)

            else:

                def vjp(g):
                    return g * bv, g * av

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g * s,)

        return self._binary(a, b, lambda x, y: x * y, vjp_ab, vjp_scalar, "mul")

    def exp(self, a) -> Tensor:
        av, a = _operand(a)
        out = np.exp(av)

        def vjp(g):
            return (g * out,)

        return self._push(out, (a,), vjp, "exp")

    def concat(self, parts: Sequence, axis: int = 1) -> Tensor:
        values, refs = zip(*(_operand(p) for p in parts))
        out = np.concatenate(values, axis=axis)
        sizes = [v.shape[axis] for v in values]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._push(out, refs, vjp, "concat")

    def matmul(self, a, b) -> Tensor:
        (av, a), (bv, b) = _operand(a), _operand(b)
        if av.ndim != 2 or bv.ndim != 2:
            raise ContractError(
                f"matmul expects 2-D operands, got {av.shape} @ {bv.shape}"
            )
        if av.shape[1] != bv.shape[0]:
            raise ContractError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = av @ bv

        def vjp(g):
            return g @ bv.T, av.T @ g

        return self._push(out, (a, b), vjp, "matmul")

    def sub(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            def vjp(g):
                gb = -(g.sum(axis=0)) if row_bias else -g
                return g, gb

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g,)

        return self._binary(a, b, lambda x, y: x - y, vjp_ab, vjp_scalar, "sub")

    def _activation(self, a, name: str) -> Tensor:
        av, a = _operand(a)
        fwd, act_vjp = _ACTIVATIONS[name]
        out = fwd(av)
        return self._push(out, (a,), lambda g: (act_vjp(out, g),), name)

    def sigmoid(self, a) -> Tensor:
        return self._activation(a, "sigmoid")

    def tanh(self, a) -> Tensor:
        return self._activation(a, "tanh")

    def softmax(self, a) -> Tensor:
        """Row-wise softmax over the last axis; stable under shift."""
        return self._activation(a, "softmax")

    def log(self, a) -> Tensor:
        av, a = _operand(a)
        if np.any(av <= 0.0):
            raise DomainError("log of nonpositive value; clamp probabilities first")
        out = np.log(av)

        def vjp(g):
            return (g / av,)

        return self._push(out, (a,), vjp, "log")

    def square(self, a) -> Tensor:
        av, a = _operand(a)

        def vjp(g):
            return (2.0 * av * g,)

        return self._push(av * av, (a,), vjp, "square")

    def sum(self, a, axis: int | None = None) -> Tensor:
        av, a = _operand(a)
        out = av.sum(axis=axis)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, av.shape).copy(),)
            return (np.expand_dims(g, axis).repeat(av.shape[axis], axis=axis),)

        return self._push(np.asarray(out), (a,), vjp, "sum")

    def mean(self, a, axis: int | None = None) -> Tensor:
        av, a = _operand(a)
        count = av.size if axis is None else av.shape[axis]
        out = av.mean(axis=axis)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g / count, av.shape).copy(),)
            return (np.expand_dims(g / count, axis).repeat(count, axis=axis),)

        return self._push(np.asarray(out), (a,), vjp, "mean")

    def clip(self, a, lo: float, hi: float) -> Tensor:
        """Clamp values; gradient passes through the unclipped region."""
        av, a = _operand(a)
        out = np.clip(av, lo, hi)
        inside = (av >= lo) & (av <= hi)

        def vjp(g):
            return (g * inside,)

        return self._push(out, (a,), vjp, "clip")


# ---------------------------------------------------------------------------
# LSTM as a composition of per-gate tape ops
# ---------------------------------------------------------------------------

LSTM_GATES = ("i", "f", "o", "g")


def init_lstm_reference(rng, d_in, hidden, name):
    """Twelve per-gate Params, drawn in the order the per-gate encoder drew
    them: w_x then w_h for each gate i, f, o, g; biases zero except b_f."""

    def w(tag, rows):
        return Param(f"{name}.{tag}", glorot_uniform(rng, d_in + hidden, hidden, (rows, hidden)))

    def b(tag, value):
        return Param(f"{name}.{tag}", np.full(hidden, value))

    return {
        "w_xi": w("w_xi", d_in), "w_hi": w("w_hi", hidden), "b_i": b("b_i", 0.0),
        "w_xf": w("w_xf", d_in), "w_hf": w("w_hf", hidden), "b_f": b("b_f", 1.0),
        "w_xo": w("w_xo", d_in), "w_ho": w("w_ho", hidden), "b_o": b("b_o", 0.0),
        "w_xg": w("w_xg", d_in), "w_hg": w("w_hg", hidden), "b_g": b("b_g", 0.0),
    }


def split_lstm_cell(cell, name="enc"):
    """Per-gate copies of a stacked cell's weights, keyed like
    ``init_lstm_reference``."""
    h = cell.hidden
    gates = {}
    for k, gate in enumerate(LSTM_GATES):
        cols = slice(k * h, (k + 1) * h)
        gates[f"w_x{gate}"] = Param(f"{name}.w_x{gate}", cell.w_x.value[:, cols].copy())
        gates[f"w_h{gate}"] = Param(f"{name}.w_h{gate}", cell.w_h.value[:, cols].copy())
        gates[f"b_{gate}"] = Param(f"{name}.b_{gate}", cell.b.value[cols].copy())
    return gates


def stack_lstm_grads(grads, name="enc"):
    """Per-gate gradients of ``lstm_forward_reference`` laid out like the
    stacked (w_x, w_h, b)."""
    return tuple(
        np.concatenate([grads[f"{name}.{prefix}{gate}"] for gate in LSTM_GATES], axis=-1)
        for prefix in ("w_x", "w_h", "b_")
    )


def _gate(tape, x, h, w_x, w_h, b):
    z = tape.add(tape.matmul(x, w_x), b)
    if h is not None:
        z = tape.add(z, tape.matmul(h, w_h))
    return z


def lstm_forward_reference(tape, gates, steps):
    """The encoder as one tape node per matmul, add, activation and
    product; h and c start at zero, so the first step has no forget gate."""
    h = None
    c = None
    for x in steps:
        i = tape.sigmoid(_gate(tape, x, h, gates["w_xi"], gates["w_hi"], gates["b_i"]))
        o = tape.sigmoid(_gate(tape, x, h, gates["w_xo"], gates["w_ho"], gates["b_o"]))
        g = tape.tanh(_gate(tape, x, h, gates["w_xg"], gates["w_hg"], gates["b_g"]))
        gain = tape.mul(i, g)
        if c is None:
            c = gain
        else:
            f = tape.sigmoid(_gate(tape, x, h, gates["w_xf"], gates["w_hf"], gates["b_f"]))
            c = tape.add(tape.mul(f, c), gain)
        h = tape.mul(o, tape.tanh(c))
    return h


def _sigmoid_reference(x):
    # split by sign so exp never overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_values_reference(xs, wx, wh, b, keep=False):
    """The fused LSTM forward over a list of (batch, d_in) steps as it ran
    before its buffers were reused: the ``where`` sigmoid, one input
    check per step, and a new array for every product."""
    hid = wh.shape[0]
    if wx.ndim != 2 or wx.shape[1] != 4 * hid or wh.shape != (hid, 4 * hid) \
            or b.shape != (4 * hid,):
        raise ContractError(
            f"lstm weights {wx.shape}, {wh.shape}, {b.shape} are not stacked "
            f"(d_in, 4h), (h, 4h), (4h,)"
        )
    if not xs or any(x.ndim != 2 or x.shape != (xs[0].shape[0], wx.shape[0]) for x in xs):
        raise ContractError(
            f"lstm needs one or more (batch, {wx.shape[0]}) steps, "
            f"got shapes {[x.shape for x in xs]}"
        )
    for x in xs:
        _check_finite(x, "lstm")
    batch = xs[0].shape[0]
    gi, gf, go, gg = (slice(k * hid, (k + 1) * hid) for k in range(4))
    n = len(xs) if keep else 1
    gates = np.empty((n, batch, 4 * hid))
    cells = np.empty((n, batch, hid))
    tanh_cells = np.empty((n, batch, hid))
    h = c_prev = None
    for t, x in enumerate(xs):
        k = t if keep else 0
        z, c, tc = gates[k], cells[k], tanh_cells[k]
        np.matmul(x, wx, out=z)
        z += b
        if t:
            z += h @ wh
        _check_finite(z, "lstm")
        if t:  # i, f and o are one contiguous column block
            z[:, : 3 * hid] = _sigmoid_reference(z[:, : 3 * hid])
        else:
            for blk in (gi, go):
                z[:, blk] = _sigmoid_reference(z[:, blk])
        np.tanh(z[:, gg], out=z[:, gg])
        if t:
            np.add(z[:, gf] * c_prev, z[:, gi] * z[:, gg], out=c)
        else:
            np.multiply(z[:, gi], z[:, gg], out=c)
        np.tanh(c, out=tc)
        h = z[:, go] * tc
        c_prev = c
    _check_finite(h, "lstm")
    return (h, gates, cells, tanh_cells) if keep else h


def lstm_vjp_reference(steps, wx, wh, b, g):
    """``(d_wx, d_wh, d_b)`` for upstream gradient ``g`` on the final h:
    the fused node's backpropagation through time as it ran before its
    buffers were reused, over ``lstm_values_reference``'s kept buffers."""
    xs = [np.asarray(x, dtype=np.float64) for x in steps]
    h, gates, cells, tanh_cells = lstm_values_reference(xs, wx, wh, b, keep=True)
    hid, n = wh.shape[0], len(xs)
    gi, gf, go, gg = (slice(k * hid, (k + 1) * hid) for k in range(4))
    dz = np.empty_like(gates)
    dh, dc_next, f_next = g, None, None
    for t in range(n - 1, -1, -1):
        a, d, tc = gates[t], dz[t], tanh_cells[t]
        i, f, o, cand = a[:, gi], a[:, gf], a[:, go], a[:, gg]
        d[:, go] = dh * tc * o * (1.0 - o)
        dc = dh * o * (1.0 - tc * tc)
        if dc_next is not None:
            dc = dc_next * f_next + dc
        d[:, gi] = dc * cand * i * (1.0 - i)
        d[:, gg] = dc * i * (1.0 - cand * cand)
        if t:
            d[:, gf] = dc * cells[t - 1] * f * (1.0 - f)
            dh = d[:, gf] @ wh[:, gf].T
            for blk in (gg, go, gi):
                dh += d[:, blk] @ wh[:, blk].T
        else:
            d[:, gf] = 0.0
        dc_next, f_next = dc, f
    # weight gradients accumulate over steps in forward order
    d_wx, d_b = xs[0].T @ dz[0], dz[0].sum(axis=0)
    d_wh = np.zeros_like(wh)
    for t in range(1, n):
        d_wx = d_wx + xs[t].T @ dz[t]
        d_b = d_b + dz[t].sum(axis=0)
        h_prev = gates[t - 1][:, go] * tanh_cells[t - 1]
        d_wh = d_wh + h_prev.T @ dz[t]
    return d_wx, d_wh, d_b


# ---------------------------------------------------------------------------
# dense layers, losses and Adam as one tape node per primitive
# ---------------------------------------------------------------------------


def dense_forward_reference(tape, layer, x):
    """act(x W + b) as a matmul node, a bias add node and an activation node."""
    z = tape.add(tape.matmul(x, layer.weight), layer.bias)
    if layer.activation == "identity":
        return z
    if layer.activation == "sigmoid":
        return tape.sigmoid(z)
    if layer.activation == "tanh":
        return tape.tanh(z)
    return tape.softmax(z)


def nll_graph_reference(tape, a_hat, masks):
    """The survival likelihood composed from mask products, sums, clips and logs."""
    pick = tape.sum(tape.mul(a_hat, masks.onehot), axis=1)
    den_evt = tape.sum(tape.mul(a_hat, masks.after_last), axis=1)
    den_cen = tape.sum(tape.mul(a_hat, masks.after_bin), axis=1)
    log_pick = tape.log(tape.clip(pick, PROB_FLOOR, 1.0))
    log_den_evt = tape.log(tape.clip(den_evt, PROB_FLOOR, 1.0))
    log_den_cen = tape.log(tape.clip(den_cen, PROB_FLOOR, 1.0))
    evt_terms = tape.sub(log_den_evt, log_pick)
    cen_terms = tape.mul(log_den_cen, -1.0)
    per_subject = tape.add(
        tape.mul(evt_terms, masks.is_event),
        tape.mul(cen_terms, masks.is_censored),
    )
    return tape.sum(per_subject)


def vae_graph_reference(tape, x_flat, x_recon, mu, logvar):
    """Reconstruction MSE plus Gaussian KL composed from elementwise nodes."""
    diff = tape.sub(x_recon, x_flat)
    mse = tape.mean(tape.square(diff), axis=1)
    sig2 = tape.exp(logvar)
    inner = tape.sub(tape.sub(tape.add(tape.square(mu), sig2), 1.0), logvar)
    kl = tape.mul(tape.sum(inner, axis=1), 0.5)
    return tape.sum(tape.add(mse, kl))


def reparameterize_reference(tape, mu, logvar, eps):
    """z = mu + sigma * eps composed from scale, exp, product and add nodes."""
    sigma = tape.exp(tape.mul(logvar, 0.5))
    return tape.add(mu, tape.mul(sigma, eps))


def decoder_input_reference(tape, z, cond):
    """[z | cond] as a concat node over z and the constant cond."""
    return tape.concat([z, cond], axis=1)


def total_loss_reference(tape, l1, l2, alpha):
    """alpha * l1 + (1 - alpha) * l2 as two scale nodes and an add node."""
    return tape.add(tape.mul(l1, alpha), tape.mul(l2, 1.0 - alpha))


def predict_risk_batch_reference(params, x):
    """Bin masses from the whole forward graph recorded on a tape, the
    logvar head included, as inference ran before it stopped recording."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (params.seq_len, params.d_in):
        raise ContractError(
            f"expected (batch, {params.seq_len}, {params.d_in}) inputs, got {x.shape}"
        )
    steps = [x[:, j, :] for j in range(params.seq_len)]
    _, _, _, a_hat, _ = forward_graph(Tape(), params, steps)
    return a_hat.value.copy()


@dataclass
class AdamStateReference:
    """Adam moments kept per parameter name."""

    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def init(params):
        return AdamStateReference(
            m={p.name: np.zeros_like(p.value) for p in params},
            v={p.name: np.zeros_like(p.value) for p in params},
        )


def adam_step_reference(state, params, grads, lr):
    """One bias-corrected Adam update, one parameter at a time."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p in params:
        g = grads[p.name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter '{p.name}'")
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.value = p.value - lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# grid search and seed refits, one fit after another
# ---------------------------------------------------------------------------


def grid_search_reference(train, val, space, base, model_config=None):
    """The sweep as a serial loop. ``training.fit`` is looked up at call
    time, so a test that patches it patches this loop too."""
    leaderboard = []
    for config in space.configs(base):
        try:
            _, history = training.fit(train, val, config, model_config=model_config)
        except DySurvError as err:
            leaderboard.append(TrialResult(config=config, status="failed", error=str(err)))
            continue
        leaderboard.append(TrialResult(
            config=config, status="ok", val_total=history.best_val_total(),
            val_l1=history.best_val_l1(), val_l2=history.best_val_l2(),
            best_epoch=history.best_epoch, n_epochs=history.n_epochs(),
        ))
    ok = [t for t in leaderboard if t.status == "ok"]
    if not ok:
        details = "; ".join(
            f"(lr={t.config.learning_rate}, batch={t.config.batch_size}, "
            f"alpha={t.config.alpha}, keep={t.config.dropout_keep}): {t.error}"
            for t in leaderboard
        )
        raise SearchFailureError(f"every grid trial failed: {details}")
    best = min(ok, key=lambda t: (t.val_l1, t.config.learning_rate, -t.config.batch_size))
    return GridSearchResult(best_config=best.config, leaderboard=leaderboard)


def multi_seed_report_reference(train, val, test, grid, config, seeds, model_config=None):
    """Seed refits as a serial loop, ``training.fit`` looked up at call time."""
    rows = []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        try:
            params, history = training.fit(train, val, cfg, model_config=model_config)
            curves = SurvivalCurves.from_bin_probs(predict_risk_batch(params, test.x), grid)
            report = evaluate_all(curves, test.durations, test.events)
        except DySurvError as err:
            rows.append(SeedResult(seed=seed, error=str(err)))
            continue
        rows.append(SeedResult(seed=seed, report=report, val_nll=history.best_val_l1(),
                               val_total=history.best_val_total()))
    done = [r for r in rows if r.report is not None]
    mean = mean_val_nll = None
    if done:
        mean = EvalReport(
            c_td=float(np.mean([r.report.c_td for r in done])),
            ibs=float(np.mean([r.report.ibs for r in done])),
            inbll=float(np.mean([r.report.inbll for r in done])),
            n_eval_times=done[0].report.n_eval_times,
        )
        mean_val_nll = float(np.mean([r.val_nll for r in done]))
    return MultiSeedReport(rows=rows, mean=mean, mean_val_nll=mean_val_nll,
                           incomplete=len(done) < len(seeds))


# ---------------------------------------------------------------------------
# data preparation one record at a time
# ---------------------------------------------------------------------------


def fit_quantile_transform_reference(ds):
    """Each feature's values gathered record by record, then fitted."""
    tables = {}
    for j, name in enumerate(ds.schema.numeric_static):
        tables[name] = _fit_table(np.array([r.static_features[j] for r in ds.records]))
    for k, name in enumerate(ds.schema.time_varying):
        observed = [r.series[r.series_mask[:, k], k] for r in ds.records]
        tables[name] = _fit_table(np.concatenate(observed))
    return QuantileTransform(tables=tables)


def _transform_record(qt, schema, record):
    """Quantile-transform one record: one interp per numeric static value,
    one per observed cell column."""
    statics = record.static_features.copy()
    for j, name in enumerate(schema.numeric_static):
        statics[j] = qt.transform_values(name, statics[j])
    series = record.series.copy()
    for k, name in enumerate(schema.time_varying):
        obs = record.series_mask[:, k]
        if obs.any():
            series[obs, k] = qt.transform_values(name, series[obs, k])
    return statics, series


def _fill_record(series, mask):
    """Per column: forward fill, backfill a leading gap from the first
    observation, zero-fill a column with no observations."""
    series = series.copy()
    for k in range(series.shape[1]):
        obs = np.where(mask[:, k])[0]
        if obs.size == 0:
            series[:, k] = 0.0
            continue
        for j in range(series.shape[0]):
            before = obs[obs <= j]
            series[j, k] = series[before[-1] if before.size else obs[0], k]
    return series


def _last_observed_time(record):
    """Latest timestamp with at least one observed cell, or None."""
    rows = np.where(record.series_mask.any(axis=1))[0]
    if rows.size == 0:
        return None
    return float(record.series_times[rows[-1]])


def dataset_to_arrays_reference(ds, qt, grid, condition_mode="both"):
    """Transform, fill and replicate each record on its own, then stack."""
    events = ds.events()
    bins = discretize(grid, ds.durations())
    last_obs = np.full(len(ds), -1, dtype=np.int64)
    mats = []
    for i, record in enumerate(ds.records):
        t_last = _last_observed_time(record)
        if t_last is not None:
            window = discretize(grid, max(t_last, 0.0))
            cap = bins[i] - 1 if events[i] == 1 else bins[i]
            last_obs[i] = min(window, cap)
        statics, series = _transform_record(qt, ds.schema, record)
        filled = _fill_record(series, record.series_mask)
        tiled = np.tile(statics, (record.n_steps, 1))
        mats.append(np.concatenate([tiled, filled], axis=1))
    return SplitArrays(
        x=np.stack(mats), bins=bins, events=events, last_obs=last_obs,
        durations=ds.durations(), n_bins=grid.n_bins, condition_mode=condition_mode,
    )


def condition_matrix_reference(events, bins, n_bins, mode):
    """The decoder's outcome condition one subject at a time: [censored,
    event] for "labels", the bin one-hot over n_bins + 1 for "times", both
    in that order for "both"."""
    rows = []
    for event, b in zip(events, bins):
        labels = [float(event == 0), float(event == 1)]
        times = [float(k == b) for k in range(n_bins + 1)]
        rows.append({"labels": labels, "times": times, "both": labels + times}[mode])
    return np.array(rows)


# ---------------------------------------------------------------------------
# CSV loading one row at a time
# ---------------------------------------------------------------------------


def _read_rows_reference(path: Path):
    """Header and ``(line, row)`` for each non-blank row, whole file held."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty CSV") from None
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{reader.line_num}: ragged row with {len(row)} cells, "
                        f"header has {len(header)}"
                    )
                rows.append((reader.line_num, row))
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
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value '{text}'")
    return value


def load_csv_reference(path) -> SurvivalDataset:
    """The row-by-row loader: nested dicts per subject and time, one record
    built at a time. Errors name the physical line of the faulty row."""
    manifest = load_manifest(path)
    base = Path(path).parent
    id_col = manifest["id_col"]
    dur_col = manifest["duration_col"]
    evt_col = manifest["event_col"]
    cat_cols = list(manifest["categorical_cols"])

    header, rows = _read_rows_reference(base / manifest["static_csv"])
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

    categories: dict[str, list[str]] = {}
    for col in cat_cols:
        seen = sorted({row[col_index[col]] for _, row in rows})
        categories[col] = seen

    ids: list[str] = []
    statics: list[Array] = []
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
        statics.append(np.array(vec, dtype=np.float64))
        durations.append(dur)
        events.append(evt)

    series_by_id: dict[str, dict[float, dict[str, float]]] = {}
    feature_names: list[str] = []
    if manifest.get("series_csv"):
        s_header, s_rows = _read_rows_reference(base / manifest["series_csv"])
        s_index = {name: i for i, name in enumerate(s_header)}
        for col in (id_col, manifest["time_col"], manifest["feature_col"], manifest["value_col"]):
            if col not in s_index:
                raise SchemaError(f"series CSV lacks column '{col}'")
        known = set(ids)
        feats: set[str] = set()
        for lineno, row in s_rows:
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
        order = manifest.get("time_varying")
        if order is not None and feats != set(order):
            raise SchemaError(f"{manifest['series_csv']} holds the features {sorted(feats)}, "
                              f"but the manifest's time_varying lists {order}")
        feature_names = sorted(feats) if order is None else list(order)

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
                series_times=times,
            )
        )
    return SurvivalDataset(schema=schema, records=records)

"""Censoring-aware evaluation metrics checked against hand-computed values
and slow brute-force implementations written independently of the fast
paths (different formulation, same definition)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysurv.data import generate_synthetic
from dysurv.errors import (
    ContractError,
    MetricUndefinedError,
    WeightDegeneracyError,
)
from dysurv.metrics import (
    StepFunction,
    SurvivalCurves,
    binomial_ll,
    brier_ipcw,
    concordance_td,
    evaluate_all,
    horizon_binary_metrics,
    horizon_labels,
    integrated_bll,
    integrated_brier,
    km_estimator,
    permutation_importance,
)
from oracles import naive_brier, naive_concordance, naive_km_value, random_instance


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------


def test_km_frozen_values():
    km = km_estimator([2.0, 3.0, 5.0, 7.0], [1, 0, 1, 0])
    assert km.at(1.9) == 1.0
    assert km.at(2.0) == 0.75
    assert km.at(4.9) == 0.75
    assert km.at(5.0) == 0.375
    assert km.at(100.0) == 0.375
    assert km.left(2.0) == 1.0
    assert km.left(5.0) == 0.75


def test_km_censor_distribution():
    g = km_estimator([2.0, 3.0, 5.0, 7.0], [0, 1, 0, 1])
    assert g.at(3.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert g.at(7.0) == 0.0


def test_km_no_events_is_constant_one():
    km = km_estimator([1.0, 2.0, 3.0], [0, 0, 0])
    assert km.at(0.5) == 1.0 and km.at(10.0) == 1.0


@given(st.integers(0, 1000))
@settings(max_examples=50)
def test_km_matches_naive_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    durations = rng.integers(1, 20, size=n).astype(np.float64)  # force ties
    events = rng.integers(0, 2, size=n)
    km = km_estimator(durations, events)
    for t in [0.0, 0.5, 3.0, 7.5, 19.0, 25.0]:
        assert km.at(t) == naive_km_value(durations, events, t)
        assert km.left(t) == naive_km_value(durations, events, t, strict=True)


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------


def test_concordance_two_subject_anchors():
    curves = SurvivalCurves(np.array([0.0, 10.0]), np.array([[0.2, 0.2], [0.9, 0.9]]))
    assert concordance_td(curves, [2.0, 5.0], [1, 1]) == 1.0
    flipped = SurvivalCurves(np.array([0.0, 10.0]), np.array([[0.9, 0.9], [0.2, 0.2]]))
    assert concordance_td(flipped, [2.0, 5.0], [1, 1]) == 0.0


def test_concordance_identical_predictions_is_half():
    curves = SurvivalCurves.constant(0.5, 6, 10.0)
    rng = np.random.default_rng(0)
    assert concordance_td(curves, rng.uniform(1, 9, 6), np.ones(6)) == 0.5


def test_concordance_undefined_without_comparable_pairs():
    curves = SurvivalCurves.constant(0.5, 3, 10.0)
    with pytest.raises(MetricUndefinedError):
        concordance_td(curves, [1.0, 2.0, 3.0], [0, 0, 0])
    with pytest.raises(MetricUndefinedError):
        concordance_td(SurvivalCurves.constant(0.5, 0, 1.0), [], [])
    with pytest.raises(ContractError):
        concordance_td(curves, [1.0, 2.0], [1, 0])


@given(st.integers(0, 1000))
@settings(max_examples=50)
def test_concordance_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    durations = rng.integers(1, 8, size=n).astype(np.float64)
    events = rng.integers(0, 2, size=n)
    _, _, curves = random_instance(rng, n)
    expected = naive_concordance(curves, durations, events)
    if expected is None:
        with pytest.raises(MetricUndefinedError):
            concordance_td(curves, durations, events)
    else:
        assert concordance_td(curves, durations, events) == expected


def test_concordance_invariant_to_rescaling():
    # only the ordering of survival values matters, not their scale
    rng = np.random.default_rng(4)
    durations, events, curves = random_instance(rng, 40)
    if not events.any():
        events[0] = 1
    base = concordance_td(curves, durations, events)
    scaled = SurvivalCurves(curves.times, curves.values * 0.5)
    assert concordance_td(scaled, durations, events) == base


# ---------------------------------------------------------------------------
# Brier and binomial log likelihood
# ---------------------------------------------------------------------------


def test_brier_hand_value():
    curves = SurvivalCurves(
        np.array([0.0, 5.0]),
        np.array([[0.3, 0.3], [0.6, 0.6], [0.8, 0.8]]),
    )
    bs = brier_ipcw(curves, [1.0, 2.0, 3.0], [1, 0, 1], t=2.5)
    assert bs == pytest.approx(0.17 / 3.0, rel=1e-14)


def test_binomial_ll_hand_value():
    curves = SurvivalCurves(
        np.array([0.0, 5.0]),
        np.array([[0.3, 0.3], [0.8, 0.8], [0.8, 0.8]]),
    )
    nbll = -binomial_ll(curves, [1.0, 3.0, 3.0], [1, 1, 1], t=2.0)
    assert nbll == pytest.approx(0.26765401552238396, abs=1e-15)


def test_constant_half_prediction_uncensored():
    rng = np.random.default_rng(5)
    durations = rng.uniform(1.0, 9.0, 30)
    events = np.ones(30)
    curves = SurvivalCurves.constant(0.5, 30, 10.0)
    assert brier_ipcw(curves, durations, events, 4.0) == pytest.approx(0.25, rel=1e-14)
    assert -binomial_ll(curves, durations, events, 4.0) == pytest.approx(
        math.log(2.0), rel=1e-14
    )
    assert integrated_brier(curves, durations, events) == pytest.approx(0.25, rel=1e-12)
    assert integrated_bll(curves, durations, events) == pytest.approx(
        math.log(2.0), rel=1e-12
    )


def test_all_events_reduces_to_plain_brier():
    rng = np.random.default_rng(6)
    durations, _, curves = random_instance(rng, 25)
    events = np.ones(25)
    t = 5.0
    s = curves.at(t)
    labels = (durations > t).astype(np.float64)
    plain = np.mean((labels - s) ** 2)
    assert brier_ipcw(curves, durations, events, t) == pytest.approx(plain, rel=1e-12)


@given(st.integers(0, 500))
@settings(max_examples=30)
def test_brier_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    durations = rng.integers(1, 10, size=n).astype(np.float64)
    events = rng.integers(0, 2, size=n)
    _, _, curves = random_instance(rng, n)
    for t in [0.5, 2.5, 6.0, 9.5]:
        assert brier_ipcw(curves, durations, events, t) == pytest.approx(
            naive_brier(curves, durations, events, t), rel=1e-12
        )


def test_integrated_brier_matches_fine_grid_oracle():
    rng = np.random.default_rng(7)
    durations, events, curves = random_instance(rng, 80)
    fast = integrated_brier(curves, durations, events)
    t_max = durations.max()
    fine = np.linspace(t_max / 100, t_max, 10_000)
    censor = km_estimator(durations, 1 - events)
    scores = [brier_ipcw(curves, durations, events, t, censor) for t in fine]
    oracle = np.trapezoid(scores, fine) / (fine[-1] - fine[0])
    assert fast == pytest.approx(oracle, abs=1e-3)


def test_metrics_invariant_to_subject_order():
    rng = np.random.default_rng(8)
    durations, events, curves = random_instance(rng, 40)
    events[0] = 1
    perm = rng.permutation(40)
    shuffled = SurvivalCurves(curves.times, curves.values[perm])
    assert concordance_td(shuffled, durations[perm], events[perm]) == concordance_td(
        curves, durations, events
    )
    assert integrated_brier(shuffled, durations[perm], events[perm]) == pytest.approx(
        integrated_brier(curves, durations, events), rel=1e-12
    )


def test_zero_censoring_weight_raises():
    curves = SurvivalCurves.constant(0.5, 2, 5.0)
    dead_weight = StepFunction(np.array([1.0]), np.array([0.0]))
    with pytest.raises(WeightDegeneracyError):
        brier_ipcw(curves, [0.5, 4.0], [1, 0], t=2.0, censor_sf=dead_weight)
    with pytest.raises(WeightDegeneracyError):
        binomial_ll(curves, [2.0, 4.0], [1, 0], t=3.0, censor_sf=dead_weight)


def test_evaluate_all_bundles_the_three_metrics():
    rng = np.random.default_rng(9)
    durations, events, curves = random_instance(rng, 50)
    events[:5] = 1
    report = evaluate_all(curves, durations, events)
    assert report.c_td == concordance_td(curves, durations, events)
    assert report.ibs == integrated_brier(curves, durations, events)
    assert report.inbll == integrated_bll(curves, durations, events)
    d = report.to_json_dict()
    assert set(d) == {"c_td", "ibs", "inbll", "n_eval_times"}
    assert d["n_eval_times"] == 100


# ---------------------------------------------------------------------------
# fixed-horizon binary metrics
# ---------------------------------------------------------------------------


def test_horizon_labels_exclude_early_censoring():
    labels, include = horizon_labels([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 1], 2.5)
    assert include.tolist() == [True, False, True, True]
    assert labels.tolist() == [1, 0, 0]
    # exactly at the horizon: events count, censored stay included
    labels, include = horizon_labels([2.5, 2.5], [1, 0], 2.5)
    assert include.tolist() == [True, True]
    assert labels.tolist() == [1, 0]


def test_auroc_frozen_value():
    rep = horizon_binary_metrics([0.9, 0.8, 0.2, 0.1], [1, 0, 1, 0], 5.0)
    assert rep.auroc == 0.75
    assert rep.auprc == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert rep.sensitivity == 1.0  # Youden tie resolved toward recall
    assert rep.horizon == 5.0


def test_perfect_and_constant_classifiers():
    perfect = horizon_binary_metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 5.0)
    assert (perfect.auroc, perfect.auprc, perfect.sensitivity) == (1.0, 1.0, 1.0)
    flat = horizon_binary_metrics([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], 5.0)
    assert flat.auroc == 0.5
    assert flat.auprc == 0.5  # collapses to prevalence
    with pytest.raises(MetricUndefinedError):
        horizon_binary_metrics([0.4, 0.6], [1, 1], 5.0)


@given(st.integers(0, 500))
@settings(max_examples=40)
def test_auroc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 80))
    risks = rng.integers(0, 6, size=n).astype(np.float64)  # heavy ties
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    pos = risks[labels == 1]
    neg = risks[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    expected = wins / (len(pos) * len(neg))
    rep = horizon_binary_metrics(risks, labels, 1.0)
    assert rep.auroc == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# permutation importance
# ---------------------------------------------------------------------------


def truth_predictor(weights, t_max):
    def predict(ds):
        x = np.stack([r.static_features for r in ds.records])
        s = 1.0 / (1.0 + np.exp(x @ weights))
        return SurvivalCurves(np.array([0.0, t_max]), np.repeat(s[:, None], 2, axis=1))

    return predict


def test_permutation_importance_recovers_ground_truth():
    ds = generate_synthetic(400, 4, 0.3, seed=10)
    weights = ds.truth.weights
    t_max = float(ds.durations().max())
    ranking = permutation_importance(
        truth_predictor(weights, t_max), ds, n_repeats=3, seed=0
    )
    names = [name for name, _ in ranking]
    assert sorted(names) == sorted(ds.schema.feature_names())
    assert names[0] == "x0"  # largest true weight
    drops = dict(ranking)
    assert abs(drops[f"x{len(weights) - 1}"]) <= 0.01  # true weight is zero
    assert drops["x0"] > 0.05


def test_permutation_importance_deterministic():
    ds = generate_synthetic(120, 3, 0.3, seed=11)
    predict = truth_predictor(ds.truth.weights, float(ds.durations().max()))
    a = permutation_importance(predict, ds, n_repeats=1, seed=42)
    b = permutation_importance(predict, ds, n_repeats=1, seed=42)
    assert a == b


def test_permutation_importance_reuses_a_given_baseline():
    ds = generate_synthetic(120, 3, 0.3, seed=12)
    predict = truth_predictor(ds.truth.weights, float(ds.durations().max()))
    calls = []

    def counted(d):
        calls.append(d)
        return predict(d)

    computed = permutation_importance(counted, ds, n_repeats=2, seed=5)
    assert len(calls) == 1 + 3 * 2
    baseline = concordance_td(predict(ds), ds.durations(), ds.events())
    calls.clear()
    given = permutation_importance(counted, ds, n_repeats=2, seed=5, baseline=baseline)
    assert len(calls) == 3 * 2
    assert given == computed

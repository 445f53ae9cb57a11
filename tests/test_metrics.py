"""Censoring-aware evaluation metrics checked against hand-computed values
and slow brute-force implementations written independently of the fast
paths (different formulation, same definition)."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysurv import metrics
from dysurv.data import FeatureSchema, SubjectRecord, SurvivalDataset, generate_synthetic
from dysurv.errors import (
    ContractError,
    DomainError,
    DySurvError,
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
    _permute_feature,
    permutation_importance,
)
from oracles import (
    binomial_ll_reference,
    brier_ipcw_reference,
    concordance_td_reference,
    constant_curves,
    integrated_bll_reference,
    integrated_brier_reference,
    naive_auroc,
    naive_brier,
    naive_concordance,
    naive_km_value,
    permute_feature_reference,
    random_instance,
)


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


def test_km_rejects_nan_times():
    km = km_estimator([1.0, 2.0, 3.0], [1, 1, 0])
    for query in (km.at, km.left):
        with pytest.raises(DomainError, match="NaN"):
            query(float("nan"))
        with pytest.raises(DomainError, match="NaN"):
            query(np.array([0.5, np.nan, 2.5]))
        assert np.array_equal(query(np.array([0.5, 2.5])), [1.0, km.at(2.0)])


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


def test_curves_at_nan_is_a_domain_error():
    curves = SurvivalCurves(np.array([0.0, 1.0, 2.0, 3.0]), np.array([[1.0, 0.8, 0.5, 0.1]]))
    with pytest.raises(DomainError, match="NaN"):
        curves.at(float("nan"))
    assert curves.at(-math.inf).tolist() == [1.0]
    assert curves.at(math.inf).tolist() == [0.1]
    # a 1-D array of times gives one row per time, each the scalar call's
    times = np.array([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.75, 3.0, 4.0, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = curves.at(times)
    assert np.array_equal(rows, np.stack([curves.at(t) for t in times]))
    with pytest.raises(DomainError, match="NaN"):
        curves.at(np.array([1.0, float("nan")]))


KNOTS = [0.0, 5.0, 10.0]
FINITE = [[1.0, 0.6, 0.2], [1.0, 0.5, 0.3], [1.0, 0.7, 0.4]]


@pytest.mark.parametrize("values,durations,events,error,message", [
    ([[1.0, math.nan, 0.2], *FINITE[1:]], [2, 6, 8], [1, 1, 0], DomainError,
     "^survival values must be finite$"),
    ([[1.0, math.inf, 0.2], *FINITE[1:]], [2, 6, 8], [1, 1, 0], DomainError,
     "^survival values must be finite$"),
    ([*FINITE[:2], [1.0, 0.5, -math.inf]], [2, 6, 8], [1, 1, 0], DomainError,
     "^survival values must be finite$"),
    (FINITE, [2, 6], [1, 1, 0], ContractError, "^durations and events must be matching 1-D"),
    (FINITE, [[2, 6, 8]], [[1, 1, 0]], ContractError, "^durations and events must be matching"),
    (FINITE, [2, -6, 8], [1, 1, 0], DomainError, "^durations must be finite and nonnegative$"),
    (FINITE, [2, math.nan, 8], [1, 1, 0], DomainError, "^durations must be finite"),
    (FINITE, [2, math.inf, 8], [1, 1, 0], DomainError, "^durations must be finite"),
    (FINITE, [2, 6, 8], [1, 2, 0], DomainError, "^events must be 0 or 1$"),
    (FINITE, [2, 6, 8], [1, -1, 0], DomainError, "^events must be 0 or 1$"),
], ids=["nan-value", "inf-value", "minus-inf-value", "shorter-durations", "2-d-outcomes",
        "negative-duration", "nan-duration", "inf-duration", "event-code-2",
        "event-code-minus-1"])
def test_metrics_refuse_non_finite_curves_and_bad_outcomes(values, durations, events, error,
                                                           message):
    with pytest.raises(error, match=message):
        evaluate_all(SurvivalCurves(KNOTS, values), durations, events)


@pytest.mark.parametrize("times", [[0.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan, 2.0]],
                         ids=["one", "tied", "decreasing", "nan"])
def test_survival_curves_refuse_knots_that_do_not_increase(times):
    with pytest.raises(ContractError, match="at least two strictly increasing knots"):
        SurvivalCurves(np.array(times), np.full((2, len(times)), 0.5))


def test_concordance_identical_predictions_is_half():
    curves = constant_curves(0.5, 6, 10.0)
    rng = np.random.default_rng(0)
    assert concordance_td(curves, rng.uniform(1, 9, 6), np.ones(6)) == 0.5


def test_concordance_undefined_without_comparable_pairs():
    curves = constant_curves(0.5, 3, 10.0)
    with pytest.raises(MetricUndefinedError):
        concordance_td(curves, [1.0, 2.0, 3.0], [0, 0, 0])
    with pytest.raises(MetricUndefinedError):
        concordance_td(constant_curves(0.5, 0, 1.0), [], [])
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
    curves = constant_curves(0.5, 30, 10.0)
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
    curves = constant_curves(0.5, 2, 5.0)
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
# batched metrics against the per-subject and per-time references
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except DySurvError as exc:
        return type(exc), exc.message


def assert_same_as_references(curves, durations, events, censor_sf=None):
    for fast, ref in ((concordance_td, concordance_td_reference),
                      (integrated_brier, integrated_brier_reference),
                      (integrated_bll, integrated_bll_reference)):
        assert outcome(fast, curves, durations, events) == outcome(ref, curves, durations, events)
    for t in (0.2, 1.0, 2.0, 3.5, 7.5, float(np.max(durations))):
        for fast, ref in ((brier_ipcw, brier_ipcw_reference),
                          (binomial_ll, binomial_ll_reference)):
            args = (curves, durations, events, t, censor_sf)
            assert outcome(fast, *args) == outcome(ref, *args)
    want = [outcome(ref, curves, durations, events) for ref in
            (concordance_td_reference, integrated_brier_reference, integrated_bll_reference)]
    errors = [w for w in want if isinstance(w, tuple)]
    got = outcome(evaluate_all, curves, durations, events)
    if errors:
        assert got == errors[0]
    else:
        assert got.to_json_dict() == dict(zip(("c_td", "ibs", "inbll"), want), n_eval_times=100)


@pytest.mark.parametrize("ties", ["integer durations", "all distinct"])
@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_batched_metrics_equal_the_references(ties, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    durations, events, curves = random_instance(rng, n, n_bins=int(rng.integers(2, 12)))
    if ties == "integer durations":
        durations = rng.integers(1, int(rng.integers(2, 12)), size=n).astype(np.float64)
    else:
        assert np.unique(durations).size == n
    assert_same_as_references(curves, durations, events)


def test_batched_metrics_equal_the_references_on_edge_cases():
    curves = constant_curves(0.5, 3, 5.0)
    # no comparable pairs: nobody has an event, or the only event comes last
    assert_same_as_references(curves, np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0]))
    assert_same_as_references(curves, np.array([1.0, 2.0, 3.0]), np.array([0, 0, 1]))
    # degenerate censoring weights, at T- for past events and at t for the at-risk
    dead_weight = StepFunction(np.array([1.0]), np.array([0.0]))
    two = constant_curves(0.5, 2, 5.0)
    for durations in ([0.5, 4.0], [2.0, 4.0]):
        assert_same_as_references(two, np.array(durations), np.array([1, 0]), dead_weight)
    with pytest.raises(WeightDegeneracyError, match="at evaluation time 3.0"):
        brier_ipcw(two, [2.0, 4.0], [1, 0], t=3.0, censor_sf=dead_weight)


@pytest.mark.parametrize("cap", [1, 7])
def test_concordance_blocks_do_not_change_the_count(monkeypatch, cap):
    rng = np.random.default_rng(13)
    _, _, curves = random_instance(rng, 300)
    instances = [(curves, rng.integers(1, 6, size=300).astype(np.float64),
                  rng.integers(0, 2, size=300))]
    # ten events at t = 1 against three censored there: blocks of 7 // 3 = 2 rows
    _, _, small = random_instance(rng, 13)
    instances.append((small, np.array([1.0] * 13), np.array([1] * 10 + [0] * 3)))
    want = [concordance_td(*inst) for inst in instances]
    monkeypatch.setattr(metrics, "CONCORDANCE_BLOCK", cap)
    for inst, w in zip(instances, want):
        assert concordance_td(*inst) == w == concordance_td_reference(*inst)


def lone_time_instance(seed, censored_ties, event_ties):
    """Distinct durations on curves whose knots lie inside (0, 10): event
    times before the first knot, on the first and last knots and past the
    last, then ``censored_ties`` censored subjects moved onto event times and
    up to ``event_ties`` event subjects moved onto other event times. A
    quarter of the curves copy another curve and a quarter copy another's
    end values, so some pairs tie, some only outside the knot range."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 80))
    knots = np.sort(rng.choice(np.arange(1, 100) / 10, int(rng.integers(2, 9)), replace=False))
    values = np.sort(rng.random((n, knots.size)), axis=1)[:, ::-1]
    values[rng.integers(0, n, n // 4)] = values[rng.integers(0, n, n // 4)]
    ends = rng.integers(0, n, (2, n // 4))
    values[ends[0][:, None], [0, -1]] = values[ends[1][:, None], [0, -1]]
    durations = rng.uniform(0.0, 12.0, size=n)
    durations[:4] = [knots[0] * rng.random(), knots[0], knots[-1], knots[-1] + rng.random()]
    assert np.unique(durations).size == n
    events = rng.integers(0, 2, size=n)
    events[:4] = 1
    event_idx = np.flatnonzero(events)
    for i in rng.choice(np.flatnonzero(events == 0), min(censored_ties, n - event_idx.size),
                        replace=False):
        durations[i] = durations[rng.choice(event_idx)]
    movers = event_idx[4:]  # the first subject's time stays a lone event time
    for i in rng.choice(movers, min(event_ties, movers.size), replace=False):
        durations[i] = durations[rng.choice(event_idx[1:])]
    return SurvivalCurves(knots, values), durations, events


@given(seed=st.integers(0, 10_000), censored_ties=st.integers(0, 6),
       event_ties=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_concordance_over_lone_event_times_equals_the_references(seed, censored_ties,
                                                                  event_ties):
    curves, durations, events = lone_time_instance(seed, censored_ties, event_ties)
    times, counts = np.unique(durations[events == 1], return_counts=True)
    assert np.any(counts == 1) and times[0] < curves.times[0] < curves.times[-1] < times[-1]
    naive = naive_concordance(curves, durations, events)
    want = outcome(concordance_td_reference, curves, durations, events)
    assert want == (naive if naive is not None else
                    (MetricUndefinedError, "no comparable pairs; concordance is undefined"))
    for cap in (1, 7, metrics.CONCORDANCE_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "CONCORDANCE_BLOCK", cap)
            assert outcome(concordance_td, curves, durations, events) == want


def test_evaluate_all_checks_and_fits_once(monkeypatch):
    rng = np.random.default_rng(14)
    durations, events, curves = random_instance(rng, 60)
    events[0] = 1
    calls = {"km": 0, "check": 0}
    km, check = metrics.km_estimator, metrics._validate_outcomes

    def counted_km(*args):
        calls["km"] += 1
        return km(*args)

    def counted_check(*args):
        calls["check"] += 1
        return check(*args)

    monkeypatch.setattr(metrics, "km_estimator", counted_km)
    monkeypatch.setattr(metrics, "_validate_outcomes", counted_check)
    evaluate_all(curves, durations, events)
    # the outcomes once, and the censoring indicators once inside the KM fit
    assert calls == {"km": 1, "check": 2}


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(DomainError, match="finite and positive"):
        horizon_labels([1.0, 2.0], [1, 0], horizon)


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
    n = int(rng.integers(4, 200))
    # heavy ties: risks rounded to 1-3 decimals
    risks = np.round(rng.random(n), int(rng.integers(1, 4)))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    rep = horizon_binary_metrics(risks, labels, 1.0)
    assert rep.auroc == naive_auroc(risks, labels)  # bit for bit


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


def test_permuting_a_static_moves_whole_blocks():
    rng = np.random.default_rng(0)
    schema = FeatureSchema(["age"], {"site": ["a", "b", "c"], "sex": ["f", "m"]},
                           ["hr"], "duration", "event")
    n = 30
    records = [
        SubjectRecord(
            f"s{i}",
            np.concatenate([[rng.normal()], np.eye(3)[rng.integers(3)], np.eye(2)[rng.integers(2)]]),
            rng.standard_normal((2, 1)), np.ones((2, 1), dtype=bool), 1.0 + i, i % 2,
            np.arange(2.0),
        )
        for i in range(n)
    ]
    ds = SurvivalDataset(schema, records)
    before = np.stack([r.static_features for r in records])
    perm = np.random.default_rng(7).permutation(n)
    for feature, cols, rest in (("site", [1, 2, 3], [0, 4, 5]), ("age", [0], [1, 2, 3, 4, 5])):
        out = _permute_feature(ds, feature, np.random.default_rng(7))
        after = np.stack([r.static_features for r in out.records])
        assert np.array_equal(after[:, cols], before[perm][:, cols])
        assert np.array_equal(after[:, rest], before[:, rest])
        assert np.all(after[:, 1:4].sum(axis=1) == 1) and np.all(after[:, 4:].sum(axis=1) == 1)
        assert [r.id for r in out.records] == [r.id for r in records]
        assert out.series is ds.series and out.mask is ds.mask
    assert np.array_equal(np.stack([r.static_features for r in records]), before)


def test_permuting_a_series_feature_moves_whole_trajectories_within_a_length():
    rng = np.random.default_rng(1)
    schema = FeatureSchema(["age"], {}, ["hr", "map"], "duration", "event")
    lengths = [2, 3] * 10
    records = [
        SubjectRecord(f"s{i}", [rng.normal()], rng.standard_normal((j, 2)),
                      rng.random((j, 2)) < 0.7, 1.0 + i, i % 2,
                      series_times=np.arange(float(j)))
        for i, j in enumerate(lengths)
    ]
    ds = SurvivalDataset(schema, records)
    snapshot = [(r.series.copy(), r.series_mask.copy()) for r in records]
    out = _permute_feature(ds, "hr", np.random.default_rng(4))
    # each output hr trajectory (values and mask) is some equal-length
    # subject's input trajectory, and every input one is used once
    source = []
    for r_out in out.records:
        matches = [i for i, r_in in enumerate(records)
                   if r_in.n_steps == r_out.n_steps
                   and np.array_equal(r_in.series[:, 0], r_out.series[:, 0])
                   and np.array_equal(r_in.series_mask[:, 0], r_out.series_mask[:, 0])]
        assert len(matches) == 1
        source.append(matches[0])
    assert sorted(source) == list(range(len(records)))
    assert source != list(range(len(records)))
    for r_in, r_out in zip(records, out.records):
        assert r_out.id == r_in.id
        assert (r_out.duration, r_out.event) == (r_in.duration, r_in.event)
        assert np.array_equal(r_out.static_features, r_in.static_features)
        assert np.array_equal(r_out.series[:, 1], r_in.series[:, 1])
        assert np.array_equal(r_out.series_mask[:, 1], r_in.series_mask[:, 1])
        assert np.array_equal(r_out.series_times, r_in.series_times)
    for r, (series, mask) in zip(records, snapshot):
        assert np.array_equal(r.series, series) and np.array_equal(r.series_mask, mask)


def ragged_dataset(seed, n=40):
    """Numeric, categorical and series features, with 1 to 4 visits per
    subject."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(["age", "bmi"], {"site": ["a", "b", "c"], "sex": ["f", "m"]},
                           ["hr", "map"], "duration", "event")
    records = []
    for i in range(n):
        j = int(rng.integers(1, 5))
        statics = np.concatenate([rng.normal(size=2), np.eye(3)[rng.integers(3)],
                                  np.eye(2)[rng.integers(2)]])
        records.append(SubjectRecord(f"s{i}", statics, rng.standard_normal((j, 2)),
                                     rng.random((j, 2)) < 0.7, float(rng.uniform(1, 9)),
                                     int(rng.integers(2)), np.sort(rng.uniform(0, 1, j))))
    return SurvivalDataset(schema, records)


def test_permuted_records_equal_the_replace_reference():
    ds = ragged_dataset(2)
    fast, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(2):  # a second round draws from the advanced generators
        for feature in ds.schema.feature_names():
            got = _permute_feature(ds, feature, fast)
            want = permute_feature_reference(ds, feature, ref)
            assert got.schema is want.schema and got.truth is want.truth
            assert len(got.records) == len(want.records) == len(ds.records)
            for g, w in zip(got.records, want.records):
                for f in fields(SubjectRecord):
                    a, b = getattr(g, f.name), getattr(w, f.name)
                    if isinstance(b, np.ndarray):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    else:
                        assert type(a) is type(b) and a == b
            # a column the shuffle leaves alone is the input's own
            static = feature not in ds.schema.time_varying
            assert (got.statics is ds.statics) != static
            assert (got.series is ds.series) == (got.mask is ds.mask) == static
            assert got.times is ds.times and got.lengths is ds.lengths
            assert fast.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ContractError, match="unknown feature 'nope'"):
        _permute_feature(ds, "nope", fast)


def test_permutation_importance_ranking_equals_the_replace_reference(monkeypatch):
    ds = ragged_dataset(3, n=120)
    w_static = np.random.default_rng(4).normal(size=7)

    def predict(d):
        last = np.array([np.where(r.series_mask[-1], r.series[-1], 0.0) for r in d.records])
        x = np.stack([r.static_features for r in d.records]) @ w_static + last @ [1.5, -0.5]
        s = 1.0 / (1.0 + np.exp(x))
        return SurvivalCurves(np.array([0.0, 10.0]), np.stack([s, s * 0.5], axis=1))

    got = permutation_importance(predict, ds, n_repeats=3, seed=6)
    monkeypatch.setattr(metrics, "_permute_feature", permute_feature_reference)
    assert got == permutation_importance(predict, ds, n_repeats=3, seed=6)
    static = generate_synthetic(200, 4, 0.3, seed=8)
    predict = truth_predictor(static.truth.weights, float(static.durations().max()))
    want = permutation_importance(predict, static, n_repeats=2, seed=1)
    monkeypatch.undo()
    assert permutation_importance(predict, static, n_repeats=2, seed=1) == want

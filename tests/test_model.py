"""Model-level contracts: the discrete-time likelihood and VAE loss (numpy
references in oracles.py), curve construction, conditioning layout, and the
tape losses checked against those references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dysurv.autodiff import Tape
from dysurv.data import TimeGrid
from dysurv.errors import ContractError, DomainError, NumericalError
from dysurv.metrics import SurvivalCurves
from dysurv.model import (
    LossMasks,
    ModelConfig,
    condition_dim,
    condition_matrix,
    forward_graph,
    init_dysurv_params,
    loss_total,
    nll_graph,
    predict_risk_batch,
    total_loss_graph,
    vae_graph,
)
from oracles import loss_survival_nll, loss_vae


def softmax_rows(rng, n, k):
    logits = rng.standard_normal((n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


def test_nll_event_without_conditioning():
    probs = np.array([[0.5, 0.3, 0.2]])
    nll = loss_survival_nll(probs, bins=[0], events=[1])
    assert nll == 0.6931471805599453  # -log(0.5)


def test_nll_event_with_conditioning_window():
    probs = np.array([[0.2, 0.5, 0.3]])
    nll = loss_survival_nll(probs, bins=[1], events=[1], last_obs_bins=[0])
    assert nll == pytest.approx(0.4700036292457356, abs=1e-15)  # -log(0.5 / 0.8)


def test_nll_censored():
    probs = np.array([[0.2, 0.5, 0.3]])
    nll = loss_survival_nll(probs, bins=[0], events=[0])
    assert nll == pytest.approx(0.22314355131420976, abs=1e-15)  # -log(0.8)


def test_nll_round_trips_to_bin_mass():
    rng = np.random.default_rng(0)
    probs = softmax_rows(rng, 1, 6)
    for b in range(5):
        nll = loss_survival_nll(probs, bins=[b], events=[1])
        assert np.exp(-nll) == pytest.approx(probs[0, b], rel=1e-12)


@given(st.integers(0, 300))
def test_conditioning_never_raises_the_event_term(seed):
    rng = np.random.default_rng(seed)
    probs = softmax_rows(rng, 1, 8)
    b = int(rng.integers(0, 7))
    plain = loss_survival_nll(probs, bins=[b], events=[1])
    for last in range(-1, b + 1):
        conditioned = loss_survival_nll(probs, bins=[b], events=[1], last_obs_bins=[last])
        assert conditioned <= plain + 1e-12


def test_nll_batch_is_a_sum():
    rng = np.random.default_rng(1)
    probs = softmax_rows(rng, 4, 5)
    bins = [0, 1, 2, 3]
    events = [1, 0, 1, 0]
    whole = loss_survival_nll(probs, bins, events)
    parts = sum(
        loss_survival_nll(probs[i : i + 1], [bins[i]], [events[i]]) for i in range(4)
    )
    assert whole == pytest.approx(parts, rel=1e-14)


def test_nll_error_contracts():
    probs = np.array([[0.5, 0.3, 0.2]])
    with pytest.raises(DomainError):
        loss_survival_nll(probs, bins=[2], events=[1])  # bin n_bins is not allowed
    with pytest.raises(DomainError):
        loss_survival_nll(probs, bins=[-1], events=[1])
    with pytest.raises(DomainError):
        loss_survival_nll(probs, bins=[0], events=[2])
    with pytest.raises(DomainError):
        loss_survival_nll(probs, bins=[0], events=[1], last_obs_bins=[1])
    with pytest.raises(ContractError):
        loss_survival_nll(probs, bins=[0, 1], events=[1])
    degenerate = np.array([[0.5, 0.5, 0.0]])
    with pytest.raises(NumericalError):
        loss_survival_nll(degenerate, bins=[1], events=[0])
    with pytest.raises(NumericalError):
        loss_survival_nll(np.array([[1.0, 0.0, 0.0]]), bins=[1], events=[1],
                          last_obs_bins=[0])


# ---------------------------------------------------------------------------
# VAE loss
# ---------------------------------------------------------------------------


def test_vae_loss_zero_at_prior_with_perfect_reconstruction():
    x = np.ones((2, 6))
    assert loss_vae(x, x, np.zeros((2, 3)), np.ones((2, 3))) == 0.0


def test_vae_kl_frozen_value():
    x = np.zeros((1, 4))
    # each unit-variance coordinate at mu=1 costs 0.5
    assert loss_vae(x, x, np.ones((1, 3)), np.ones((1, 3))) == pytest.approx(1.5)


def test_vae_mse_is_per_subject_mean():
    x = np.zeros((1, 8))
    recon = np.full((1, 8), 2.0)
    assert loss_vae(x, recon, np.zeros((1, 2)), np.ones((1, 2))) == pytest.approx(4.0)


def test_vae_kl_nonnegative():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    mu = rng.standard_normal((5, 3))
    sigma = np.exp(rng.standard_normal((5, 3)))
    assert loss_vae(x, x, mu, sigma) >= 0.0
    with pytest.raises(DomainError):
        loss_vae(x, x, mu, np.zeros_like(sigma))


def test_loss_total_blend():
    assert loss_total(2.0, 4.0, 1.0) == 2.0
    assert loss_total(2.0, 4.0, 0.0) == 4.0
    assert loss_total(2.0, 4.0, 0.5) == 3.0
    with pytest.raises(DomainError):
        loss_total(1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# tape twins
# ---------------------------------------------------------------------------


@given(st.integers(0, 200))
def test_nll_graph_matches_numpy_reference(seed):
    rng = np.random.default_rng(seed)
    n, kp1 = 6, 5
    probs = softmax_rows(rng, n, kp1)
    bins = rng.integers(0, kp1 - 1, size=n)
    events = rng.integers(0, 2, size=n)
    last = np.where(bins > 0, bins - 1, -1)
    ref = loss_survival_nll(probs, bins, events, last)
    tape = Tape()
    masks = LossMasks.build(bins, events, last, kp1 - 1)
    out = nll_graph(tape, tape.leaf(probs), masks)
    assert out.value == pytest.approx(ref, abs=1e-10)


@given(st.integers(0, 200))
def test_vae_graph_matches_numpy_reference(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 6))
    recon = rng.standard_normal((4, 6))
    mu = rng.standard_normal((4, 3))
    logvar = rng.standard_normal((4, 3))
    ref = loss_vae(x, recon, mu, np.exp(0.5 * logvar))
    tape = Tape()
    out = vae_graph(tape, x, tape.leaf(recon), tape.leaf(mu), tape.leaf(logvar))
    assert out.value == pytest.approx(ref, abs=1e-10)


def test_total_loss_graph_contracts():
    tape = Tape()
    l1 = tape.leaf(np.array(2.0))
    l2 = tape.leaf(np.array(4.0))
    assert total_loss_graph(tape, l1, l2, 0.5).value == pytest.approx(3.0)
    assert total_loss_graph(tape, l1, None, 1.0) is l1
    with pytest.raises(ContractError):
        total_loss_graph(tape, l1, None, 0.5)


# ---------------------------------------------------------------------------
# estimates and curves
# ---------------------------------------------------------------------------


def test_uniform_masses_give_linear_cif():
    k = 10
    grid = TimeGrid(n_bins=k, t_max=10.0)
    curves = SurvivalCurves.from_bin_probs(np.full((1, k + 1), 1.0 / (k + 1)), grid)
    for j in range(k):
        t_knot = grid.boundaries[j + 1]
        assert curves.at(t_knot)[0] == pytest.approx(1.0 - (j + 1) / (k + 1), rel=1e-12)
    assert np.all(np.diff(curves.values[0]) < 0)


def test_interpolate_survival_contracts():
    probs = np.array([[0.1, 0.2, 0.3, 0.4]])
    grid = TimeGrid(n_bins=3, t_max=9.0)
    curves = SurvivalCurves.from_bin_probs(probs, grid)
    survival = 1.0 - np.cumsum(probs[0, :-1])
    assert curves.at(0.0)[0] == 1.0
    for j in range(3):
        t_knot = grid.boundaries[j + 1]
        assert curves.at(t_knot)[0] == pytest.approx(survival[j])
    mid = curves.at(1.5)[0]
    assert mid == pytest.approx((1.0 + survival[0]) / 2.0)
    vals = np.array([curves.at(t)[0] for t in np.linspace(0, 9, 50)])
    assert np.all(np.diff(vals) <= 1e-15)
    with pytest.raises(ContractError):
        SurvivalCurves.from_bin_probs(probs, TimeGrid(n_bins=5, t_max=9.0))


def test_midpoint_between_point_nine_and_point_seven_is_point_eight():
    probs = np.array([[0.1, 0.2, 0.3, 0.4]])
    # survival knots 0.9, 0.7, 0.4; halfway between the first two
    grid = TimeGrid(n_bins=3, t_max=3.0)
    curves = SurvivalCurves.from_bin_probs(probs, grid)
    assert curves.at(1.5)[0] == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def test_condition_matrix_layout():
    events = [0, 1]
    bins = [2, 0]
    both = condition_matrix(events, bins, n_bins=3, mode="both")
    assert np.array_equal(both, [
        [1, 0, 0, 0, 1, 0],
        [0, 1, 1, 0, 0, 0],
    ])
    labels = condition_matrix(events, bins, n_bins=3, mode="labels")
    assert np.array_equal(labels, both[:, :2])
    times = condition_matrix(events, bins, n_bins=3, mode="times")
    assert np.array_equal(times, both[:, 2:])
    # the extra column absorbs beyond-horizon bins
    edge = condition_matrix([0], [3], n_bins=3, mode="times")
    assert np.array_equal(edge, [[0, 0, 0, 1]])
    for mode, width in (("labels", 2), ("times", 4), ("both", 6)):
        assert condition_dim(mode, 3) == width
    with pytest.raises(DomainError):
        condition_matrix([0], [4], n_bins=3, mode="times")
    with pytest.raises(ContractError):
        condition_matrix([0], [0], n_bins=3, mode="full")


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def small_params(seed=0, mode="both"):
    rng = np.random.default_rng(seed)
    config = ModelConfig(hidden_size=5, z_dim=3, decoder_hidden=(4,),
                         survival_hidden=(4,), condition_mode=mode)
    return init_dysurv_params(rng, d_in=4, seq_len=3, n_bins=6, config=config)


def test_predict_risk_is_a_distribution():
    params = small_params()
    rng = np.random.default_rng(1)
    probs = predict_risk_batch(params, rng.standard_normal((1, 3, 4)))
    assert probs.shape == (1, 7)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)
    with pytest.raises(ContractError):
        predict_risk_batch(params, rng.standard_normal((1, 2, 4)))


def test_predict_batch_matches_single():
    params = small_params()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3, 4))
    batch = predict_risk_batch(params, x)
    for i in range(5):
        assert np.allclose(batch[i], predict_risk_batch(params, x[i : i + 1])[0], atol=1e-12)


def test_forward_graph_modes():
    params = small_params()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4))
    steps = [x[:, j, :] for j in range(3)]

    tape = Tape()
    mu, logvar, z, a_hat, recon = forward_graph(tape, params, steps)
    assert z is mu  # deterministic latent when eps is absent
    assert recon is None
    assert a_hat.value.shape == (2, 7)

    cond = condition_matrix([1, 0], [2, 5], n_bins=6, mode="both")
    eps = rng.standard_normal((2, 3))
    tape = Tape()
    mu, logvar, z, a_hat, recon = forward_graph(
        tape, params, steps, cond=cond, eps=eps)
    assert recon.value.shape == (2, 12)
    sigma = np.exp(0.5 * logvar.value)
    assert np.allclose(z.value, mu.value + eps * sigma, atol=1e-12)

    # the survival head reads mu whether or not z is sampled; only the
    # decoder sees eps
    _, _, _, a_mean, recon_mean = forward_graph(Tape(), params, steps, cond=cond)
    assert np.array_equal(a_hat.value, a_mean.value)
    assert not np.allclose(recon.value, recon_mean.value)

    with pytest.raises(ContractError):
        forward_graph(Tape(), params, steps, keep=0.5, training=True)

"""Model-level contracts: the discrete-time likelihood and VAE loss (numpy
references in oracles.py), curve construction, conditioning layout, and the
tape losses checked against those references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dysurv.autodiff import Param, Tape
from dysurv.data import TimeGrid
from dysurv.errors import ContractError, DomainError, NumericalError
from dysurv.metrics import SurvivalCurves
from dysurv.model import (
    LossMasks,
    ModelConfig,
    condition_dim,
    condition_matrix,
    decoder_input_graph,
    forward_graph,
    init_dysurv_params,
    loss_total,
    nll_graph,
    predict_risk_batch,
    reparameterize_graph,
    total_loss_graph,
    vae_graph,
)
from oracles import (
    ReferenceTape,
    decoder_input_reference,
    loss_survival_nll,
    loss_vae,
    max_rel_diff,
    nll_graph_reference,
    predict_risk_batch_reference,
    reparameterize_reference,
    total_loss_reference,
    vae_graph_reference,
)


def computed(tape, operand):
    """``operand`` as a computed value: the latent nodes read a Tensor's
    shape as well as its value, and its gradient passes through exactly."""
    return tape.mul(operand, 1.0)


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
    out = nll_graph(tape, Param("probs", probs), masks)
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
    out = vae_graph(tape, x, Param("recon", recon), Param("mu", mu), Param("logvar", logvar))
    assert out.value == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("batch,event", [(1, 0), (1, 1), (256, None)])
def test_fused_nll_matches_composed_reference(batch, event):
    rng = np.random.default_rng(batch)
    kp1 = 9
    probs = softmax_rows(rng, batch, kp1)
    bins = rng.integers(1, kp1 - 1, size=batch)
    events = rng.integers(0, 2, size=batch) if event is None else np.full(batch, event)
    last = rng.integers(0, bins + 1)
    if batch > 1:
        last[:8] = -1
        probs[0] = np.eye(kp1)[(bins[0] + 1) % kp1]  # a zero pick hits the clamp
    a = Param("a", probs)

    def run(loss):
        tape = ReferenceTape()
        out = loss(tape, a, LossMasks.build(bins, events, last, kp1 - 1))
        return out.value, tape.backward(tape.mul(out, 0.37), [a])["a"]

    value, grad = run(nll_graph)
    ref_value, ref_grad = run(nll_graph_reference)
    assert np.array_equal(value, ref_value)
    assert max_rel_diff(grad, ref_grad) <= 1e-12


@pytest.mark.parametrize("batch", [1, 256])
def test_fused_vae_matches_composed_reference(batch):
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 6))
    params = [Param(name, rng.standard_normal(shape)) for name, shape in
              (("recon", (batch, 6)), ("mu", (batch, 3)), ("logvar", (batch, 3)))]

    def run(loss):
        tape = ReferenceTape()
        recon, mu, logvar = params
        # mu and logvar also feed an earlier consumer, as in the model
        other = tape.sum(tape.mul(mu, logvar))
        out = tape.add(loss(tape, x, recon, mu, logvar), other)
        return out.value, tape.backward(tape.mul(out, 0.37), params)

    value, grads = run(vae_graph)
    ref_value, ref_grads = run(vae_graph_reference)
    assert np.array_equal(value, ref_value)
    for p in params:
        assert max_rel_diff(grads[p.name], ref_grads[p.name]) <= 1e-12, p.name


def test_loss_node_overflows_raise():
    tape = Tape()
    logvar = np.full((2, 3), 800.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'vae'"):
        vae_graph(tape, np.zeros((2, 4)), Param("recon", np.zeros((2, 4))),
                  Param("mu", np.zeros((2, 3))), Param("logvar", logvar))
    # a masked sum that overflows is caught before the clamp hides it
    masks = LossMasks.build([0, 1], [1, 0], [-1, -1], 2)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'nll'"):
        nll_graph(tape, Param("a", np.full((2, 3), 1e308)), masks)


@pytest.mark.parametrize("bins, events, error", [
    ([1, 0], [1, 2], "^events must be 0 or 1$"),  # would be neither an event nor censored
    ([1, 0], [1, -1], "^events must be 0 or 1$"),
    ([-1, 0], [1, 0], r"^duration bins outside \[0, n_bins\]$"),
    ([1, 4], [1, 0], r"^duration bins outside \[0, n_bins\]$"),  # n_bins + 1
], ids=["event_2", "event_minus_1", "bin_minus_1", "bin_past_the_grid"])
def test_loss_masks_refuse_what_condition_matrix_refuses(bins, events, error):
    with pytest.raises(DomainError, match=error):
        LossMasks.build(bins, events, [-1, -1], 3)
    # bin n_bins, the beyond-horizon column, is in range
    assert LossMasks.build([3, 0], [0, 1], [-1, -1], 3).after_bin[0].tolist() == [0, 0, 0, 0]


def test_total_loss_graph_contracts():
    tape = Tape()
    l1 = Param("l1", np.array(2.0))
    l2 = Param("l2", np.array(4.0))
    assert total_loss_graph(tape, l1, l2, 0.5).value == pytest.approx(3.0)
    assert total_loss_graph(tape, l1, None, 1.0) is l1
    with pytest.raises(ContractError):
        total_loss_graph(tape, l1, None, 0.5)


@pytest.mark.parametrize("batch", [1, 256])
def test_fused_reparameterize_matches_composed_reference(batch):
    rng = np.random.default_rng(batch)
    params = [Param(name, rng.standard_normal((batch, 3))) for name in ("mu", "logvar")]
    eps = rng.standard_normal((batch, 3))
    weights = rng.standard_normal((batch, 3))

    def run(reparameterize):
        tape = ReferenceTape()
        mu, logvar = (computed(tape, p) for p in params)
        z = reparameterize(tape, mu, logvar, eps)
        # mu and logvar also feed later consumers, as in the model
        other = tape.sum(tape.mul(mu, logvar))
        out = tape.add(tape.sum(tape.mul(z, weights)), other)
        return z.value, tape.backward(tape.mul(out, 0.37), params)

    value, grads = run(reparameterize_graph)
    ref_value, ref_grads = run(reparameterize_reference)
    assert np.array_equal(value, ref_value)
    for p in params:
        assert np.array_equal(grads[p.name], ref_grads[p.name]), p.name


@pytest.mark.parametrize("batch", [1, 256])
def test_fused_decoder_input_matches_composed_reference(batch):
    rng = np.random.default_rng(batch)
    z_param = Param("z", rng.standard_normal((batch, 3)))
    cond = condition_matrix(rng.integers(0, 2, size=batch), rng.integers(0, 7, size=batch),
                            n_bins=6, mode="both")
    weights = rng.standard_normal((batch, 3 + cond.shape[1]))

    def run(decoder_input):
        tape = ReferenceTape()
        d = decoder_input(tape, computed(tape, z_param), cond)
        loss = tape.sum(tape.mul(d, weights))
        return d.value, tape.backward(tape.mul(loss, 0.37), [z_param])["z"]

    value, grad = run(decoder_input_graph)
    ref_value, ref_grad = run(decoder_input_reference)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("alpha", [0.0, 0.37, 0.8])
@pytest.mark.parametrize("batch", [1, 256])
def test_fused_total_loss_matches_composed_reference(batch, alpha):
    rng = np.random.default_rng(batch)
    params = [Param(name, rng.standard_normal((batch, 3))) for name in ("a", "b")]

    def run(total_loss):
        tape = ReferenceTape()
        a, b = params
        l1, l2 = tape.sum(tape.square(a)), tape.sum(tape.exp(b))
        total = total_loss(tape, l1, l2, alpha)
        return total.value, tape.backward(tape.mul(total, 1.0 / batch), params)

    value, grads = run(total_loss_graph)
    ref_value, ref_grads = run(total_loss_reference)
    assert np.array_equal(value, ref_value)
    for p in params:
        assert np.array_equal(grads[p.name], ref_grads[p.name]), p.name


def test_fused_latent_nodes_name_themselves_on_non_finite_values():
    tape = Tape()
    mu, logvar = computed(tape, np.zeros((2, 3))), computed(tape, np.full((2, 3), 1500.0))
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'reparameterize'"):
        reparameterize_graph(tape, mu, logvar, np.ones((2, 3)))
    # only z is checked: sigma = inf against eps = 0, a sigma that underflows
    # to 0 against an infinite eps, and a non-finite eps all make z non-finite
    message = r"^non-finite value produced by op 'reparameterize'$"
    for logvar_entry, eps_entry in [(1500.0, 0.0), (-1500.0, np.inf), (0.0, np.nan),
                                    (0.0, np.inf), (0.0, -np.inf)]:
        logvar, eps = computed(tape, np.zeros((2, 3))), np.ones((2, 3))
        logvar.value[1, 2], eps[1, 2] = logvar_entry, eps_entry
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=message):
            reparameterize_graph(tape, mu, logvar, eps)
    with pytest.raises(NumericalError, match="'decoder_input'"):
        decoder_input_graph(tape, mu, np.full((2, 4), np.nan))


def test_fused_latent_node_contracts():
    tape = Tape()
    mu = computed(tape, np.zeros((2, 3)))
    with pytest.raises(ContractError):
        reparameterize_graph(tape, mu, mu, np.ones((2, 4)))
    with pytest.raises(ContractError):
        decoder_input_graph(tape, mu, np.ones((3, 4)))
    with pytest.raises(ContractError):
        tape.mul(mu, mu)


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
    for bad in ([2], [-1]):
        with pytest.raises(DomainError, match="^events must be 0 or 1$"):
            condition_matrix(bad, [0], n_bins=3, mode="labels")


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


def serving_params(seq_len, survival_hidden, seed=0):
    """The benchmark's encoder (h 24, z 8, d_in 9) with every parameter
    moved off its initial value, so no bias is zero."""
    config = ModelConfig(hidden_size=24, z_dim=8, decoder_hidden=(24,),
                         survival_hidden=survival_hidden)
    rng = np.random.default_rng(seed)
    params = init_dysurv_params(rng, d_in=9, seq_len=seq_len, n_bins=10, config=config)
    for p in params.parameters():
        p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
    return params


@pytest.mark.parametrize("survival_hidden", [(), (24, 16)])
@pytest.mark.parametrize("seq_len", [1, 12])
@pytest.mark.parametrize("rows", [1, 2, 1024, 1025])
def test_predict_equals_the_recorded_forward_bit_for_bit(rows, seq_len, survival_hidden):
    params = serving_params(seq_len, survival_hidden)
    x = np.random.default_rng(rows + seq_len).standard_normal((rows, seq_len, 9))
    assert np.array_equal(predict_risk_batch(params, x),
                          predict_risk_batch_reference(params, x))


def test_predict_records_no_tape(monkeypatch):
    params = serving_params(12, (24,))
    x = np.random.default_rng(1).standard_normal((3, 12, 9))
    want = predict_risk_batch(params, x)

    def no_tape(self):
        raise AssertionError("inference built a Tape")

    monkeypatch.setattr(Tape, "__init__", no_tape)
    assert np.array_equal(predict_risk_batch(params, x), want)


def test_predict_peak_memory_holds_one_step_of_buffers():
    params = serving_params(12, (24,))
    x = np.random.default_rng(2).standard_normal((1024, 12, 9))
    predict_risk_batch(params, x)  # warm numpy's caches before measuring
    tracemalloc.start()
    try:
        predict_risk_batch(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # recording kept the (12, 1024, 96) gate buffer and two cell buffers:
    # about 17 MB
    assert peak < 8e6


def _raises_like_the_recorded_forward(params, x, op):
    for predict in (predict_risk_batch, predict_risk_batch_reference):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=f"op '{op}'$"):
            predict(params, x)


def test_predict_numerical_errors_name_the_op_the_tape_names():
    x = np.random.default_rng(3).standard_normal((4, 12, 9))
    nan_step = x.copy()
    nan_step[2, 5, 3] = np.nan
    _raises_like_the_recorded_forward(serving_params(12, (24,)), nan_step, "lstm")

    gates = serving_params(12, (24,))
    gates.encoder.w_x.value[0, :] = 1e308  # every gate pre-activation overflows
    _raises_like_the_recorded_forward(gates, x * 1e3, "lstm")

    survival = serving_params(12, (24,))
    survival.survival[0].weight.value[:] = 1e308  # tanh would saturate it away
    survival.mu_head.bias.value[:] = 1e3
    _raises_like_the_recorded_forward(survival, x, "dense")


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

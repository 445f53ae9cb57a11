"""Dense and LSTM building blocks: initialization contracts, forward
values on frozen inputs, and gradient agreement through time."""

import itertools

import numpy as np
import pytest

from dysurv import autodiff
from dysurv.autodiff import Param, Tape, finite_difference_check, lstm_values
from dysurv.errors import ContractError, NumericalError
from dysurv.nn import (
    ACTIVATIONS,
    dense_forward,
    glorot_uniform,
    init_dense,
    init_lstm,
    lstm_forward,
)
from oracles import (
    LSTM_GATES,
    ReferenceTape,
    dense_forward_reference,
    init_lstm_reference,
    lstm_forward_reference,
    lstm_values_reference,
    lstm_vjp_reference,
    max_rel_diff,
    split_lstm_cell,
    stack_lstm_grads,
)


def gate_block(hidden, gate):
    k = LSTM_GATES.index(gate)
    return slice(k * hidden, (k + 1) * hidden)


def test_glorot_bounds_and_determinism():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 20, 30, (20, 30))
    limit = np.sqrt(6.0 / 50.0)
    assert np.all(np.abs(w) <= limit)
    again = glorot_uniform(np.random.default_rng(0), 20, 30, (20, 30))
    assert np.array_equal(w, again)


def test_dense_init_shapes_and_zero_bias():
    layer = init_dense(np.random.default_rng(1), 4, 7, "tanh", "head")
    assert layer.weight.value.shape == (4, 7)
    assert np.array_equal(layer.bias.value, np.zeros(7))
    assert layer.weight.name == "head.weight"
    with pytest.raises(ContractError):
        init_dense(np.random.default_rng(1), 4, 7, "relu", "head")


def test_lstm_forget_bias_is_one_and_others_zero():
    cell = init_lstm(np.random.default_rng(2), 3, 5, "enc")
    assert cell.b.value.shape == (20,)
    for gate in LSTM_GATES:
        want = np.ones(5) if gate == "f" else np.zeros(5)
        assert np.array_equal(cell.b.value[gate_block(5, gate)], want)


def test_init_lstm_stacks_the_per_gate_draws():
    cell = init_lstm(np.random.default_rng(7), 3, 5, "enc")
    ref = init_lstm_reference(np.random.default_rng(7), 3, 5, "enc")
    assert [p.name for p in cell.parameters()] == ["enc.w_x", "enc.w_h", "enc.b"]
    for gate in LSTM_GATES:
        cols = gate_block(5, gate)
        assert np.array_equal(cell.w_x.value[:, cols], ref[f"w_x{gate}"].value)
        assert np.array_equal(cell.w_h.value[:, cols], ref[f"w_h{gate}"].value)
        assert np.array_equal(cell.b.value[cols], ref[f"b_{gate}"].value)


@pytest.mark.parametrize("batch,n_steps,d_in,hidden", [(1, 1, 3, 4), (4, 3, 2, 3), (128, 12, 8, 24)])
def test_fused_lstm_matches_per_gate_reference(batch, n_steps, d_in, hidden):
    rng = np.random.default_rng(batch + n_steps + d_in + hidden)
    cell = init_lstm(rng, d_in, hidden, "enc")
    cell.b.value = cell.b.value + 0.1 * rng.standard_normal(cell.b.value.shape)
    steps = [rng.standard_normal((batch, d_in)) for _ in range(n_steps)]
    weights = rng.standard_normal((batch, hidden))
    gates = split_lstm_cell(cell)

    tape = ReferenceTape()
    h = lstm_forward(tape, cell, steps)
    grads = tape.backward(tape.sum(tape.mul(h, weights)), cell.parameters())
    ref_tape = ReferenceTape()
    ref_h = lstm_forward_reference(ref_tape, gates, steps)
    ref_grads = stack_lstm_grads(
        ref_tape.backward(ref_tape.sum(ref_tape.mul(ref_h, weights)), list(gates.values()))
    )

    assert np.array_equal(h.value, ref_h.value)
    for p, ref in zip(cell.parameters(), ref_grads, strict=True):
        rel = np.max(np.abs(grads[p.name] - ref)) / max(1e-300, np.max(np.abs(ref)))
        assert rel <= 1e-12, p.name


def test_zeroed_lstm_produces_zero_hidden_state():
    cell = init_lstm(np.random.default_rng(3), 3, 4, "enc")
    for p in cell.parameters():
        p.value = np.zeros_like(p.value)
    tape = Tape()
    h = lstm_forward(tape, cell, [np.ones((2, 3)), np.ones((2, 3))])
    # tanh(c)=0 whenever the candidate gate is zero, regardless of gates
    assert np.array_equal(h.value, np.zeros((2, 4)))


def test_dense_forward_identity_matches_affine():
    rng = np.random.default_rng(4)
    layer = init_dense(rng, 3, 2, "identity", "out")
    layer.bias.value = np.array([1.0, -1.0])
    x = rng.standard_normal((5, 3))
    tape = Tape()
    out = dense_forward(tape, layer, x)
    assert np.allclose(out.value, x @ layer.weight.value + layer.bias.value)


@pytest.mark.parametrize("batch", [1, 256])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_fused_dense_matches_composed_reference(activation, batch):
    rng = np.random.default_rng(batch + len(activation))
    layer = init_dense(rng, 6, 5, activation, "layer")
    layer.bias.value = 0.1 * rng.standard_normal(5)
    x = Param("x", rng.standard_normal((batch, 6)))
    weights = rng.standard_normal((batch, 5))
    params = [x, *layer.parameters()]

    def run(forward):
        tape = ReferenceTape()
        out = forward(tape, layer, x)
        return out.value, tape.backward(tape.sum(tape.mul(out, weights)), params)

    out, grads = run(dense_forward)
    ref_out, ref_grads = run(dense_forward_reference)
    assert np.array_equal(out, ref_out)
    for p in params:
        assert max_rel_diff(grads[p.name], ref_grads[p.name]) <= 1e-12, p.name


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_dense_pre_activation_overflow_raises_though_saturated(activation):
    layer = init_dense(np.random.default_rng(11), 2, 3, activation, "head")
    layer.weight.value = np.full((2, 3), 1e200)
    x = np.full((1, 2), 1e200)
    saturate = {"sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)), "tanh": np.tanh}[activation]
    with np.errstate(over="ignore"):
        z = x @ layer.weight.value
    # the activation saturates the overflow, so a check on the output alone would pass
    assert np.isinf(z).all() and np.isfinite(saturate(z)).all()
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'dense'"):
        dense_forward(Tape(), layer, x)


def test_dense_contracts():
    tape = Tape()
    with pytest.raises(ContractError):
        tape.dense(np.ones((2, 3)), np.ones((2, 3)), np.zeros(3), "identity")
    with pytest.raises(ContractError):
        tape.dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(3), "identity")
    with pytest.raises(ContractError):
        tape.dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(2), "relu")


def test_lstm_three_step_gradients_match_fd():
    rng = np.random.default_rng(5)
    cell = init_lstm(rng, 2, 3, "enc")
    steps = [rng.standard_normal((2, 2)) for _ in range(3)]

    def build():
        tape = ReferenceTape()
        h = lstm_forward(tape, cell, steps)
        return tape, tape.mean(tape.square(h))

    worst = finite_difference_check(build, cell.parameters())
    assert worst < 1e-5


def test_single_step_keeps_forget_gate_out_of_the_graph():
    # with one step c0 = 0, so no forget-gate parameter can influence the
    # loss; analytic and numeric gradients must agree that they are zero
    rng = np.random.default_rng(6)
    cell = init_lstm(rng, 2, 3, "enc")
    x = rng.standard_normal((4, 2))

    def build():
        tape = ReferenceTape()
        h = lstm_forward(tape, cell, [x])
        return tape, tape.mean(tape.square(h))

    tape, loss = build()
    grads = tape.backward(loss, cell.parameters())
    forget = gate_block(3, "f")
    for name in ("enc.w_x", "enc.w_h", "enc.b"):
        block = grads[name][..., forget]
        assert np.array_equal(block, np.zeros_like(block))
    assert finite_difference_check(build, cell.parameters()) < 1e-5


def test_lstm_step_shape_errors():
    cell = init_lstm(np.random.default_rng(8), 3, 4, "enc")
    tape = Tape()
    with pytest.raises(ContractError):
        lstm_forward(tape, cell, [])
    with pytest.raises(ContractError):
        lstm_forward(tape, cell, [np.ones((2, 5))])


@pytest.mark.parametrize(
    "steps",
    [
        [np.ones((2, 3)), np.ones((2, 4))],  # ragged widths
        [np.ones((2, 3)), np.ones((3, 3))],  # ragged batch sizes
        [np.ones((2, 3)), np.ones((2, 3, 1))],  # a step of the wrong rank
        np.ones((2, 3)),  # a stacked input of the wrong rank
        [[[1.0, 2.0, 3.0]]],  # a step that is not an array
        [np.ones((1, 3)), 1.0],  # a number among the steps
        np.ones((0, 2, 3)),  # no step, stacked
        np.ones((4, 2, 5)),  # the wrong width for the weights, stacked
    ],
    ids=["widths", "batches", "step_rank", "stacked_rank", "nested_list", "number",
         "empty_array", "stacked_width"],
)
def test_lstm_steps_that_do_not_stack_raise_contract_error(steps):
    cell = init_lstm(np.random.default_rng(8), 3, 4, "enc")
    values = [p.value for p in cell.parameters()]
    with pytest.raises(ContractError, match="got shapes"):
        lstm_values(steps, *values)
    with pytest.raises(ContractError, match="got shapes"):
        Tape().lstm(steps, *cell.parameters())


def test_lstm_non_finite_step_input_raises():
    # the input is not checked on its own: a bad entry at any (step, row,
    # feature) reaches every gate column of its step's pre-activation, even
    # through an all-zero row of w_x (inf * 0 is NaN), for the gemv path at
    # batch 1 and the gemm path above it
    cell = init_lstm(np.random.default_rng(9), 3, 4, "enc")
    zeroed = cell.w_x.value.copy()
    zeroed[1] = 0.0
    message = r"^non-finite value produced by op 'lstm'$"
    cases = itertools.product((cell.w_x, Param("enc.w_x", zeroed)), (1, 3),
                              (np.nan, np.inf, -np.inf))
    with np.errstate(invalid="ignore"):
        for w_x, batch, bad in cases:
            for pos in np.ndindex(3, batch, 3):
                x = np.ones((3, batch, 3))
                x[pos] = bad
                with pytest.raises(NumericalError, match=message):
                    lstm_values(x, w_x.value, cell.w_h.value, cell.b.value)
                with pytest.raises(NumericalError, match=message):
                    Tape().lstm(list(x), w_x, cell.w_h, cell.b)


def test_lstm_pre_activation_overflow_raises():
    cell = init_lstm(np.random.default_rng(10), 3, 4, "enc")
    cell.w_x.value = np.full_like(cell.w_x.value, 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="'lstm'"):
        lstm_forward(Tape(), cell, [np.full((2, 3), 10.0)])


def count_checks(monkeypatch):
    calls = []
    check = autodiff.all_finite
    monkeypatch.setattr(autodiff, "all_finite", lambda v: calls.append(v.shape) or check(v))
    return calls


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_node_checks_each_value_once(monkeypatch, activation):
    layer = init_dense(np.random.default_rng(12), 3, 4, activation, "head")
    calls = count_checks(monkeypatch)
    Tape().dense(np.ones((2, 3)), layer.weight, layer.bias, activation)
    # the pre-activation only: every activation maps finite to finite
    assert calls == [(2, 4)]


def test_lstm_node_checks_each_value_once(monkeypatch):
    cell = init_lstm(np.random.default_rng(13), 3, 4, "enc")
    calls = count_checks(monkeypatch)
    Tape().lstm([np.ones((2, 3))] * 5, *cell.parameters())
    # each step's pre-activation, which every input entry reaches; once
    # the gates are finite, so is h
    assert calls == [(2, 16)] * 5


# the encoder kernel against its frozen pre-buffer form, bit for bit

LAYOUTS = ("strided_list", "contiguous_list", "stacked_view", "stacked")


def steps_in_layout(x, layout):
    """A (batch, T, d_in) stack as the steps in one of the accepted layouts."""
    if layout == "strided_list":
        return [x[:, t, :] for t in range(x.shape[1])]
    if layout == "contiguous_list":
        return [np.ascontiguousarray(x[:, t, :]) for t in range(x.shape[1])]
    if layout == "stacked_view":
        return x.transpose(1, 0, 2)
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def kernel_case(batch, n_steps, d_in=9, hidden=24):
    """A cell with noisy biases, inputs that saturate some gates, and an
    upstream gradient on h; the reference reads contiguous steps, as
    training passed them."""
    rng = np.random.default_rng(1000 * batch + n_steps)
    cell = init_lstm(rng, d_in, hidden, "enc")
    cell.b.value += 0.5 * rng.standard_normal(cell.b.value.shape)
    x = 3.0 * rng.standard_normal((batch, n_steps, d_in))
    g = rng.standard_normal((batch, hidden))
    return cell, x, g, steps_in_layout(x, "contiguous_list")


def without_step0_forget(gates):
    # step 0 leaves its forget block unwritten, so its content is arbitrary
    gates = gates.copy()
    hid = gates.shape[-1] // 4
    gates[0, :, hid : 2 * hid] = 0.0
    return gates


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("n_steps", [1, 12])
@pytest.mark.parametrize("batch", [1, 2, 3, 128, 1024])
def test_lstm_kernel_equals_the_frozen_reference(batch, n_steps, keep, layout):
    cell, x, _, ref_steps = kernel_case(batch, n_steps)
    values = [p.value for p in cell.parameters()]
    got = lstm_values(steps_in_layout(x, layout), *values, keep=keep)
    want = lstm_values_reference(ref_steps, *values, keep=keep)
    if not keep:
        assert np.array_equal(got, want)
        return
    (h, gates, cells, tanh_cells), (rh, rgates, rcells, rtanh) = got, want
    assert np.array_equal(h, rh)
    assert np.array_equal(without_step0_forget(gates), without_step0_forget(rgates))
    assert np.array_equal(cells, rcells)
    assert np.array_equal(tanh_cells, rtanh)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n_steps", [1, 12])
@pytest.mark.parametrize("batch", [1, 2, 3, 128, 1024])
def test_lstm_vjp_equals_the_frozen_reference(batch, n_steps, layout):
    cell, x, g, ref_steps = kernel_case(batch, n_steps)
    tape = ReferenceTape()
    h = tape.lstm(steps_in_layout(x, layout), cell.w_x, cell.w_h, cell.b)
    # the sum of h * g hands the lstm node g itself
    grads = tape.backward(tape.sum(tape.mul(h, g)), cell.parameters())
    want = lstm_vjp_reference(ref_steps, *(p.value for p in cell.parameters()), g)
    for p, ref in zip(cell.parameters(), want, strict=True):
        assert np.array_equal(grads[p.name], ref), p.name

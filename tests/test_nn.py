"""Dense and LSTM building blocks: initialization contracts, forward
values on frozen inputs, and gradient agreement through time."""

import numpy as np
import pytest

from dysurv.autodiff import Param, Tape, finite_difference_check
from dysurv.errors import ContractError
from dysurv.nn import (
    dense_forward,
    glorot_uniform,
    init_dense,
    init_lstm,
    lstm_forward,
)


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
    assert np.array_equal(cell.b_f.value, np.ones(5))
    for b in (cell.b_i.value, cell.b_o.value, cell.b_g.value):
        assert np.array_equal(b, np.zeros(5))


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
    out = dense_forward(tape, layer, tape.leaf(x))
    assert np.allclose(out.value, x @ layer.weight.value + layer.bias.value)


def test_lstm_three_step_gradients_match_fd():
    rng = np.random.default_rng(5)
    cell = init_lstm(rng, 2, 3, "enc")
    steps = [rng.standard_normal((2, 2)) for _ in range(3)]

    def build():
        tape = Tape()
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
        tape = Tape()
        h = lstm_forward(tape, cell, [x])
        return tape, tape.mean(tape.square(h))

    tape, loss = build()
    grads = tape.backward(loss, cell.parameters())
    for name in ("enc.w_xf", "enc.w_hf", "enc.b_f"):
        assert np.array_equal(grads[name], np.zeros_like(grads[name]))
    assert finite_difference_check(build, cell.parameters()) < 1e-5


def test_lstm_step_shape_errors():
    cell = init_lstm(np.random.default_rng(8), 3, 4, "enc")
    tape = Tape()
    with pytest.raises(ContractError):
        lstm_forward(tape, cell, [])
    with pytest.raises(ContractError):
        lstm_forward(tape, cell, [np.ones((2, 5))])

"""Tape engine: frozen gradients, finite-difference agreement per
primitive, purity, and the error contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dysurv.autodiff import Param, Tape, finite_difference_check
from dysurv.errors import (
    ContractError,
    DomainError,
    NumericalError,
    ReproducibilityError,
)


def rnd(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def test_matmul_identity_values_and_grads():
    a = Param("a", rnd(0, 3, 3))
    tape = Tape()
    out = tape.matmul(tape.param(a), np.eye(3))
    assert np.array_equal(out.value, a.value)
    loss = tape.sum(out)
    grads = tape.backward(loss, [a])
    assert np.array_equal(grads["a"], np.ones((3, 3)))


def test_sigmoid_and_softmax_fixed_points():
    tape = Tape()
    sig = tape.sigmoid(np.zeros((2, 2)))
    assert np.allclose(sig.value, 0.5)
    soft = tape.softmax(np.full((1, 3), 7.0))
    assert np.allclose(soft.value, 1.0 / 3.0)
    # large logits stay finite under the shift in both primitives
    assert np.all(np.isfinite(tape.softmax(np.array([[1e4, 0.0, -1e4]])).value))
    assert np.all(np.isfinite(tape.sigmoid(np.array([[1e4, -1e4]])).value))


def _fd(build, params, eps=1e-5):
    return finite_difference_check(build, params, eps=eps)


@pytest.mark.parametrize(
    "name",
    ["matmul", "add", "add_bias", "add_scalar", "sub", "mul", "mul_bias",
     "sigmoid", "tanh", "exp", "log", "square", "softmax", "sum_all",
     "sum_axis0", "sum_axis1", "mean_all", "mean_axis1", "concat", "clip",
     "dropout"],
)
def test_each_primitive_matches_finite_differences(name):
    rng = np.random.default_rng(17)
    p = Param("p", rng.standard_normal((4, 3)))
    q = Param("q", rng.standard_normal((3, 5)))
    b = Param("b", rng.standard_normal(3))
    mask = (rng.random((4, 3)) < 0.7).astype(np.float64)

    def build():
        tape = Tape()
        x = tape.param(p)
        if name == "matmul":
            out = tape.matmul(x, tape.param(q))
        elif name == "add":
            out = tape.add(x, tape.mul(x, 0.5))
        elif name == "add_bias":
            out = tape.add(x, tape.param(b))
        elif name == "add_scalar":
            out = tape.add(x, 2.5)
        elif name == "sub":
            out = tape.sub(x, tape.mul(x, -1.0))
        elif name == "mul":
            out = tape.mul(x, tape.add(x, 1.5))
        elif name == "mul_bias":
            out = tape.mul(x, tape.param(b))
        elif name == "sigmoid":
            out = tape.sigmoid(x)
        elif name == "tanh":
            out = tape.tanh(x)
        elif name == "exp":
            out = tape.exp(x)
        elif name == "log":
            out = tape.log(tape.add(tape.square(x), 0.5))
        elif name == "square":
            out = tape.square(x)
        elif name == "softmax":
            out = tape.softmax(x)
        elif name == "sum_all":
            return tape, tape.sum(x)
        elif name == "sum_axis0":
            out = tape.square(tape.sum(x, axis=0))
        elif name == "sum_axis1":
            out = tape.square(tape.sum(x, axis=1))
        elif name == "mean_all":
            return tape, tape.mean(tape.square(x))
        elif name == "mean_axis1":
            out = tape.square(tape.mean(x, axis=1))
        elif name == "concat":
            out = tape.square(tape.concat([x, tape.mul(x, 2.0)], axis=1))
        elif name == "clip":
            # keep values away from the clip edges so the kink cannot land
            # inside the finite-difference stencil
            out = tape.clip(tape.mul(x, 0.1), -5.0, 5.0)
        elif name == "dropout":
            out = tape.dropout(x, 0.7, mask)
        else:
            raise AssertionError(name)
        return tape, tape.sum(tape.square(out))

    params = [p] + ([q] if name == "matmul" else []) + (
        [b] if name in ("add_bias", "mul_bias") else []
    )
    assert _fd(build, params) < 1e-5


def test_lstm_sized_composite_graph_matches_fd():
    rng = np.random.default_rng(5)
    w = Param("w", rng.standard_normal((3, 4)))
    u = Param("u", rng.standard_normal((4, 4)))
    bias = Param("bias", rng.standard_normal(4))
    x = rng.standard_normal((2, 3))

    def build():
        tape = Tape()
        h = tape.tanh(tape.add(tape.matmul(tape.leaf(x), tape.param(w)), tape.param(bias)))
        h = tape.sigmoid(tape.matmul(h, tape.param(u)))
        probs = tape.softmax(h)
        return tape, tape.mean(tape.square(tape.log(tape.clip(probs, 1e-12, 1.0))))

    assert _fd(build, [w, u, bias]) < 1e-6


def test_backward_is_pure_and_repeatable():
    p = Param("p", rnd(2, 3, 3))
    tape = Tape()
    loss = tape.sum(tape.square(tape.param(p)))
    first = tape.backward(loss, [p])
    second = tape.backward(loss, [p])
    assert np.array_equal(first["p"], second["p"])
    assert np.array_equal(first["p"], 2.0 * p.value)


def test_params_off_tape_get_zero_gradients():
    used = Param("used", rnd(3, 2, 2))
    unused = Param("unused", rnd(4, 5))
    tape = Tape()
    loss = tape.sum(tape.param(used))
    grads = tape.backward(loss, [used, unused])
    assert np.array_equal(grads["unused"], np.zeros(5))
    assert np.array_equal(grads["used"], np.ones((2, 2)))


def test_duplicate_param_leaves_accumulate():
    p = Param("p", np.array([1.0, 2.0]))
    tape = Tape()
    loss = tape.sum(tape.add(tape.param(p), tape.param(p)))
    grads = tape.backward(loss, [p])
    assert np.array_equal(grads["p"], np.array([2.0, 2.0]))


def test_error_contracts():
    tape = Tape()
    with pytest.raises(NumericalError):
        tape.leaf(np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        tape.log(tape.leaf(np.array([0.0, 1.0])))
    with pytest.raises(ContractError):
        tape.matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ContractError):
        tape.add(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ContractError):
        tape.backward(tape.leaf(np.ones(3)))
    with pytest.raises(ContractError):
        tape.dropout(tape.leaf(np.ones((2, 2))), 0.5, None)
    with pytest.raises(DomainError):
        tape.dropout(tape.leaf(np.ones((2, 2))), 0.0, np.ones((2, 2)))


def test_fd_checker_rejects_nondeterministic_builders():
    p = Param("p", np.ones(2))

    def build():
        tape = Tape()
        noisy = tape.add(tape.param(p), float(np.random.default_rng().random()))
        return tape, tape.sum(noisy)

    with pytest.raises(ReproducibilityError):
        finite_difference_check(build, [p])


def test_fd_checker_rejects_bad_eps():
    p = Param("p", np.ones(2))

    def build():
        tape = Tape()
        return tape, tape.sum(tape.param(p))

    with pytest.raises(DomainError):
        finite_difference_check(build, [p], eps=1e-1)


@given(st.integers(0, 10_000))
def test_sigmoid_bounds_and_softmax_rows_sum_to_one(seed):
    x = np.random.default_rng(seed).standard_normal((3, 4)) * 5.0
    tape = Tape()
    s = tape.sigmoid(tape.leaf(x)).value
    assert np.all((s > 0.0) & (s < 1.0))
    rows = tape.softmax(tape.leaf(x)).value.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-12)


@given(st.integers(0, 10_000))
def test_add_mul_gradients_match_calculus(seed):
    rng = np.random.default_rng(seed)
    a = Param("a", rng.standard_normal((2, 3)))
    bv = rng.standard_normal((2, 3))
    tape = Tape()
    loss = tape.sum(tape.mul(tape.param(a), tape.leaf(bv)))
    grads = tape.backward(loss, [a])
    assert np.allclose(grads["a"], bv, atol=1e-12)

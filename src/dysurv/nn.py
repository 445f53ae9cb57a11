"""LSTM and dense layers expressed through the autodiff tape.

Weights initialize from uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out));
biases start at zero except the LSTM forget gate, which starts at one so
early training does not erase the cell state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Param, Tape, Tensor
from .errors import ContractError

Array = np.ndarray

ACTIVATIONS = ("identity", "sigmoid", "tanh", "softmax")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class DenseLayerParams:
    """Affine map plus activation: act(x W + b), W shaped (d_in, d_out)."""

    weight: Param
    bias: Param
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ContractError(
                f"unknown activation '{self.activation}'; expected one of {ACTIVATIONS}"
            )

    @property
    def d_in(self) -> int:
        return self.weight.value.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.value.shape[1]

    def parameters(self) -> list[Param]:
        return [self.weight, self.bias]


def init_dense(
    rng: np.random.Generator, d_in: int, d_out: int, activation: str, name: str
) -> DenseLayerParams:
    return DenseLayerParams(
        weight=Param(f"{name}.weight", glorot_uniform(rng, d_in, d_out, (d_in, d_out))),
        bias=Param(f"{name}.bias", np.zeros(d_out)),
        activation=activation,
    )


def dense_forward(tape: Tape, layer: DenseLayerParams, x: Tensor) -> Tensor:
    z = tape.add(tape.matmul(x, tape.param(layer.weight)), tape.param(layer.bias))
    if layer.activation == "identity":
        return z
    if layer.activation == "sigmoid":
        return tape.sigmoid(z)
    if layer.activation == "tanh":
        return tape.tanh(z)
    return tape.softmax(z)


@dataclass
class LSTMCellParams:
    """Gate weights for a single-layer LSTM.

    ``w_x*`` maps the input (d_in, hidden), ``w_h*`` the previous hidden
    state (hidden, hidden); suffixes i/f/o/g are the input, forget, output
    and candidate gates.
    """

    w_xi: Param
    w_hi: Param
    b_i: Param
    w_xf: Param
    w_hf: Param
    b_f: Param
    w_xo: Param
    w_ho: Param
    b_o: Param
    w_xg: Param
    w_hg: Param
    b_g: Param

    @property
    def d_in(self) -> int:
        return self.w_xi.value.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_xi.value.shape[1]

    def parameters(self) -> list[Param]:
        return [
            self.w_xi, self.w_hi, self.b_i,
            self.w_xf, self.w_hf, self.b_f,
            self.w_xo, self.w_ho, self.b_o,
            self.w_xg, self.w_hg, self.b_g,
        ]


def init_lstm(rng: np.random.Generator, d_in: int, hidden: int, name: str) -> LSTMCellParams:
    def w(tag: str, rows: int) -> Param:
        return Param(f"{name}.{tag}", glorot_uniform(rng, d_in + hidden, hidden, (rows, hidden)))

    def b(tag: str, value: float) -> Param:
        return Param(f"{name}.{tag}", np.full(hidden, value))

    return LSTMCellParams(
        w_xi=w("w_xi", d_in), w_hi=w("w_hi", hidden), b_i=b("b_i", 0.0),
        w_xf=w("w_xf", d_in), w_hf=w("w_hf", hidden), b_f=b("b_f", 1.0),
        w_xo=w("w_xo", d_in), w_ho=w("w_ho", hidden), b_o=b("b_o", 0.0),
        w_xg=w("w_xg", d_in), w_hg=w("w_hg", hidden), b_g=b("b_g", 0.0),
    )


def _gate(tape: Tape, x: Tensor, h: Tensor | None, w_x: Param, w_h: Param, b: Param) -> Tensor:
    z = tape.add(tape.matmul(x, tape.param(w_x)), tape.param(b))
    if h is not None:
        z = tape.add(z, tape.matmul(h, tape.param(w_h)))
    return z


def lstm_forward(tape: Tape, cell: LSTMCellParams, steps: list[Array]) -> Tensor:
    """Run the cell over a sequence of (batch, d_in) inputs; returns the
    final hidden state (batch, hidden). h and c start at zero, so on the
    first step the forget gate multiplies nothing and is skipped.
    """
    if not steps:
        raise ContractError("lstm_forward needs at least one step")
    h: Tensor | None = None
    c: Tensor | None = None
    for x_step in steps:
        if x_step.ndim != 2 or x_step.shape[1] != cell.d_in:
            raise ContractError(
                f"lstm step shape {x_step.shape} incompatible with d_in {cell.d_in}"
            )
        x = tape.leaf(x_step)
        i = tape.sigmoid(_gate(tape, x, h, cell.w_xi, cell.w_hi, cell.b_i))
        o = tape.sigmoid(_gate(tape, x, h, cell.w_xo, cell.w_ho, cell.b_o))
        g = tape.tanh(_gate(tape, x, h, cell.w_xg, cell.w_hg, cell.b_g))
        gain = tape.mul(i, g)
        if c is None:
            c = gain
        else:
            f = tape.sigmoid(_gate(tape, x, h, cell.w_xf, cell.w_hf, cell.b_f))
            c = tape.add(tape.mul(f, c), gain)
        h = tape.mul(o, tape.tanh(c))
    return h


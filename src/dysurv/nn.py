"""LSTM and dense layers: parameters, initializers and their tape nodes.

For training, a dense layer runs as the tape's fused ``dense`` node and the
LSTM encoder as its fused ``lstm`` node over stacked gate weights.
Inference calls the same forward kernels, ``dense_values`` and
``lstm_values`` in ``autodiff.py``, without recording a tape.
Weights initialize from uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out));
biases start at zero except the LSTM forget gate, which starts at one so
early training does not erase the cell state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _ACTIVATIONS, Param, Tape, Tensor
from .errors import ContractError

Array = np.ndarray

ACTIVATIONS = ("identity", *_ACTIVATIONS)


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
    """act(x W + b), recorded as one fused tape node."""
    return tape.dense(x, layer.weight, layer.bias, layer.activation)


@dataclass
class LSTMCellParams:
    """Stacked gate weights for a single-layer LSTM.

    ``w_x`` maps the input (d_in, 4 hidden), ``w_h`` the previous hidden
    state (hidden, 4 hidden), and ``b`` is (4 hidden); each holds the
    input, forget, output and candidate gates as column blocks in the
    order i, f, o, g.
    """

    w_x: Param
    w_h: Param
    b: Param

    @property
    def d_in(self) -> int:
        return self.w_x.value.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_h.value.shape[0]

    def parameters(self) -> list[Param]:
        return [self.w_x, self.w_h, self.b]


def init_lstm(rng: np.random.Generator, d_in: int, hidden: int, name: str) -> LSTMCellParams:
    """Draw each gate's input and recurrent blocks in turn (gates i, f, o,
    g) and stack them; only the forget bias starts at one."""
    fan_in = d_in + hidden
    blocks = [
        (glorot_uniform(rng, fan_in, hidden, (d_in, hidden)),
         glorot_uniform(rng, fan_in, hidden, (hidden, hidden)))
        for _ in range(4)
    ]
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0
    return LSTMCellParams(
        w_x=Param(f"{name}.w_x", np.concatenate([wx for wx, _ in blocks], axis=1)),
        w_h=Param(f"{name}.w_h", np.concatenate([wh for _, wh in blocks], axis=1)),
        b=Param(f"{name}.b", bias),
    )


def lstm_forward(tape: Tape, cell: LSTMCellParams, steps: Array | list[Array]) -> Tensor:
    """Run the cell over T steps of (batch, d_in) inputs, given as one
    (T, batch, d_in) array (a strided view is read in place) or as a list
    of (batch, d_in) arrays, stacked once; returns the final hidden state
    (batch, hidden), recorded as one fused tape node that holds the input
    and the (T, batch, ·) gate and cell buffers its backward reads.
    Raises ContractError for no step, a step that is not a 2-D numpy
    array, or steps of different or wrong shapes.
    """
    return tape.lstm(steps, cell.w_x, cell.w_h, cell.b)

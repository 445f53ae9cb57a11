"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays,
and the forward kernels that the tape and tape-free inference share.

A ``Tape`` records the computed values of a forward pass, one node per
primitive. An operand of a node is one of three things: a ``Tensor``, a
computed value that refers to its node; a ``Param``, read in place; or a
plain array, a constant. Only computed values are recorded. Calling
``Tape.backward`` on a scalar loss replays the nodes once in reverse and
routes each vector-Jacobian product to its operand: to the operand's node,
straight into a gradient store keyed by parameter name, or, for a
constant, nowhere. The op set is deliberately small: exactly what a
training batch of the model records. That is ``mul`` by a number (the
batch mean), ``dropout``, the fused ``lstm`` and ``dense`` nodes below,
and ``record`` for a node whose value and vector-Jacobian product the
caller computes.

Two module functions compute the model's layers, and each is the one copy
of its formula:

- :func:`lstm_values` runs a single-layer LSTM over stacked gate weights.
  :meth:`Tape.lstm` calls it with ``keep=True`` and records one node whose
  vector-Jacobian product is hand-written backpropagation through time
  over the gate, cell and tanh-cell buffers it keeps. It computes the same
  values, in the same summation order, as the per-gate composition of
  matmul, add, sigmoid, tanh and mul nodes it replaces.
- :func:`dense_values` computes ``act(x @ w + b)`` and checks the
  pre-activation as well as the output, so an overflow that ``tanh`` or
  ``softmax`` would saturate away still raises. :meth:`Tape.dense` records
  its output as one node whose vector-Jacobian product runs the
  activation → add → matmul chain in that order.

Inference calls the two kernels directly and records nothing: a tape is
kept only where a reverse sweep will read it. ``model.py`` records the
reparameterisation, the decoder input, the survival likelihood, the VAE
loss and the loss blend through :meth:`Tape.record`, one node each, with
the formulas kept there.

Every value is checked for NaN and ±inf once, where it is computed: by a
kernel or as a node is recorded. Operands are not checked on their own: a
non-finite parameter or constant makes the value of the node that reads
it non-finite, and that check raises naming the node's op. The check sums
the array first and scans it entry by entry only when the sum is not
finite, which an overflowing sum of finite entries also makes.

Shapes are restricted to what the model uses: 2-D dense layers and
elementwise ops on equal shapes. General numpy broadcasting is out of
scope on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericalError, ReproducibilityError

Array = np.ndarray

FD_EPS = 1e-5  # finite-difference step of :func:`finite_difference_check`


@dataclass
class Param:
    """Named trainable array. Every writer (optimizer, best-epoch restore,
    checkpoint loader, finite-difference check) writes into ``value`` in
    place and never rebinds it, so a holder of the array sees each update."""

    name: str
    value: Array

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)


class Tensor:
    """Value plus its position on the tape."""

    __slots__ = ("value", "idx")

    def __init__(self, value: Array, idx: int):
        self.value = value
        self.idx = idx

    @property
    def shape(self):
        return self.value.shape


def _operand(x) -> tuple[Array, int | Param | None]:
    """``(value, ref)`` for one operand of a node. A ``Tensor`` refers to its
    node by index; a ``Param`` is read in place and refers to itself, so its
    gradient goes to the store under its name; anything else is a float64
    constant and gets no gradient."""
    if isinstance(x, Tensor):
        return x.value, x.idx
    if isinstance(x, Param):
        return x.value, x
    return np.asarray(x, dtype=np.float64), None


def all_finite(value: Array) -> bool:
    """True when no entry is NaN or ±inf. Any such entry makes the sum
    non-finite; a sum of finite entries is non-finite only on overflow,
    which the entrywise scan then clears."""
    return math.isfinite(value.sum()) or bool(np.isfinite(value).all())


def _check_finite(value: Array, op: str) -> None:
    if not all_finite(value):
        raise NumericalError(f"non-finite value produced by op '{op}'")


def _sigmoid(x: Array) -> Array:
    # split by sign so exp never overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _softmax(x: Array) -> Array:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# name -> (forward, vjp from the output and the upstream gradient)
_ACTIVATIONS = {
    "sigmoid": (_sigmoid, lambda out, g: g * out * (1.0 - out)),
    "tanh": (np.tanh, lambda out, g: g * (1.0 - out * out)),
    "softmax": (_softmax, lambda out, g: out * (g - (g * out).sum(axis=-1, keepdims=True))),
}


def dense_values(x: Array, w: Array, b: Array, activation: str) -> Array:
    """``act(x @ w + b)`` with ``w`` (d_in, d_out), ``b`` (d_out,) and
    ``activation`` one of identity, sigmoid, tanh or a row-wise softmax;
    the forward of :meth:`Tape.dense` and of tape-free inference.

    The pre-activation is checked as well as the output, so an overflow
    that a saturating activation would hide still raises
    ``NumericalError`` naming ``'dense'``.
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ContractError(f"dense expects 2-D operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ContractError(f"dense shape mismatch: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ContractError(f"dense bias {b.shape} does not fit {w.shape[1]} outputs")
    if activation != "identity" and activation not in _ACTIVATIONS:
        raise ContractError(f"unknown dense activation '{activation}'")
    z = x @ w
    z += b
    _check_finite(z, "dense")
    if activation == "identity":
        return z
    out = _ACTIVATIONS[activation][0](z)
    _check_finite(out, "dense")
    return out


def lstm_values(xs: Sequence[Array], wx: Array, wh: Array, b: Array, keep: bool = False):
    """Single-layer LSTM over float64 (batch, d_in) steps; the forward of
    :meth:`Tape.lstm` and of tape-free inference.

    Gate weights are stacked in the order i, f, o, g: ``wx`` is (d_in, 4
    hidden), ``wh`` (hidden, 4 hidden) and ``b`` (4 hidden). h and c start
    at zero, so the first step has no recurrent term and its forget gate
    multiplies nothing. Every step input, every step's pre-activation and
    the final h are checked, and a non-finite one raises
    ``NumericalError`` naming ``'lstm'``.

    Returns the final hidden state (batch, hidden). With ``keep`` it
    returns ``(h, gates, cells, tanh_cells)``, what backpropagation through
    time reads: the gate activations, written over their pre-activations
    in one (T, batch, 4 hidden) buffer (step 0 leaves its unused forget
    block as it is), and c_t and tanh(c_t) as (T, batch, hidden).
    Without it every step reuses one step's buffers.
    """
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
            z[:, : 3 * hid] = _sigmoid(z[:, : 3 * hid])
        else:
            for blk in (gi, go):
                z[:, blk] = _sigmoid(z[:, blk])
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


class Tape:
    """Wengert list of primitive applications.

    One tape per forward pass; build the graph, call :meth:`backward`,
    discard. ``backward`` is pure: repeated calls on the same tape return
    identical gradients.
    """

    def __init__(self):
        self._nodes: list[tuple[tuple, Callable]] = []  # (operand refs, vjp)

    def __len__(self) -> int:
        return len(self._nodes)

    def _push(self, value: Array, parents: tuple, vjp, op: str) -> Tensor:
        _check_finite(value, op)
        return self._append(value, parents, vjp)

    def _append(self, value: Array, parents: tuple, vjp) -> Tensor:
        """Record a node whose value a forward kernel has already checked.
        ``parents`` holds one :func:`_operand` ref per operand."""
        self._nodes.append((parents, vjp))
        return Tensor(value, len(self._nodes) - 1)

    def record(
        self,
        op: str,
        value: Array,
        parents: Sequence[Tensor | Param],
        vjp,
        intermediates: Sequence[Array] = (),
    ) -> Tensor:
        """Record a caller-computed ``value`` as one node over ``parents``.

        ``vjp`` maps the upstream gradient to one gradient per parent, in
        order. ``value`` is checked like every primitive's output; pass as
        ``intermediates`` any value on the way to it whose overflow the
        result could hide (a clip, a saturating activation), and a
        non-finite one raises ``NumericalError`` naming ``op`` as well.
        """
        for inner in intermediates:
            _check_finite(inner, op)
        return self._push(value, tuple(_operand(p)[1] for p in parents), vjp, op)

    # -- primitives -----------------------------------------------------

    def dense(self, x, w, b, activation: str) -> Tensor:
        """``act(x @ w + b)`` as one node, computed by :func:`dense_values`.

        The vector-Jacobian product runs the activation, the bias add and
        the matmul in the order separate nodes would.
        """
        (xv, x), (wv, w), (bv, b) = _operand(x), _operand(w), _operand(b)
        out = dense_values(xv, wv, bv, activation)
        act_vjp = _ACTIVATIONS[activation][1] if activation != "identity" else None

        def vjp(g):
            if act_vjp is not None:
                g = act_vjp(out, g)
            return g @ wv.T, xv.T @ g, g.sum(axis=0)

        return self._append(out, (x, w, b), vjp)

    def mul(self, a, s: float) -> Tensor:
        """``a * s`` for a Python number ``s``: the batch mean and the
        loss scales. Products of two tensors live inside the fused nodes."""
        if not isinstance(s, (int, float)):
            raise ContractError(f"mul scales by a number, got {type(s).__name__}")
        av, a = _operand(a)
        s = float(s)
        return self._push(av * s, (a,), lambda g: (g * s,), "mul")

    def dropout(self, a, keep: float, mask: Array | None) -> Tensor:
        """Inverted dropout.

        ``mask`` is a caller-supplied 0/1 array from a seeded generator so
        that a forward pass is a deterministic function of its inputs.
        """
        av, a = _operand(a)
        if not (0.0 < keep <= 1.0):
            raise DomainError(f"dropout keep probability {keep} outside (0, 1]")
        if mask is None:
            raise ContractError("dropout requires a mask")
        if mask.shape != av.shape:
            raise ContractError(f"dropout mask shape {mask.shape} != input shape {av.shape}")
        scale = mask / keep
        out = av * scale

        def vjp(g):
            return (g * scale,)

        return self._push(out, (a,), vjp, "dropout")

    def lstm(self, steps: Sequence[Array], w_x, w_h, b) -> Tensor:
        """Single-layer LSTM over (batch, d_in) steps; returns the final
        hidden state (batch, hidden) as one node, computed by
        :func:`lstm_values`, whose docstring gives the weight layout.

        The steps are constants: the node's parents are the three weights
        and backward computes no input gradient.
        """
        (wx, w_x), (wh, w_h), (bv, b) = _operand(w_x), _operand(w_h), _operand(b)
        xs = [np.asarray(x, dtype=np.float64) for x in steps]
        h, gates, cells, tanh_cells = lstm_values(xs, wx, wh, bv, keep=True)
        hid, n = wh.shape[0], len(xs)
        gi, gf, go, gg = (slice(k * hid, (k + 1) * hid) for k in range(4))

        def vjp(g):
            # every product and sum is taken in the order the per-gate
            # composition of tape ops takes it, so the gradients equal that
            # graph's wherever BLAS sums a column block as it would alone
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

        return self._append(h, (w_x, w_h, b), vjp)

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Tensor, params: Iterable[Param]) -> dict[str, Array]:
        """d(loss)/d(param), keyed by name, for every parameter in ``params``
        and every other parameter operand that reaches ``loss``, in one
        reverse pass over the nodes. Each vector-Jacobian product goes to its
        operand's node, straight into the store for a ``Param``, or nowhere
        for a constant.

        A listed parameter that ``loss`` does not reach gets a zero
        gradient, so optimizers can iterate a fixed parameter list.
        """
        if loss.value.ndim != 0:
            raise ContractError(
                f"backward expects a scalar loss, got shape {loss.value.shape}"
            )
        grads: dict[int, Array] = {loss.idx: np.ones((), dtype=np.float64)}
        store: dict[str, Array] = {}
        for i in range(loss.idx, -1, -1):
            g = grads.pop(i, None)
            if g is None:
                continue
            parents, vjp = self._nodes[i]
            for ref, pg in zip(parents, vjp(g)):
                if ref is None:
                    continue
                acc, key = (grads, ref) if isinstance(ref, int) else (store, ref.name)
                if key in acc:
                    acc[key] = acc[key] + pg
                else:
                    acc[key] = pg.copy() if pg.base is not None else pg
        for p in params:
            if p.name not in store:
                store[p.name] = np.zeros_like(p.value)
        return store


def finite_difference_check(
    build: Callable[[], tuple[Tape, Tensor]],
    params: Sequence[Param],
) -> float:
    """Compare analytic gradients against central finite differences with
    step ``FD_EPS``.

    ``build`` must construct a fresh tape and scalar loss from the current
    values of ``params``; it is called twice up front and must reproduce
    the loss bit for bit, then twice per parameter coordinate. Returns the
    worst relative error max|a - n| / max(1e-8, |a| + |n|).
    """
    tape, loss = build()
    base = float(loss.value)
    _, loss_again = build()
    if float(loss_again.value) != base:
        raise ReproducibilityError(
            "loss builder is not deterministic; finite differences would be meaningless"
        )
    analytic = tape.backward(loss, params)
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        aflat = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            f_plus = float(build()[1].value)
            flat[i] = orig - FD_EPS
            f_minus = float(build()[1].value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_EPS)
            a = float(aflat[i])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst

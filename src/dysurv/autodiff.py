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
  pre-activation, so an overflow that ``tanh`` or ``softmax`` would
  saturate away still raises. :meth:`Tape.dense` records its output as one
  node whose vector-Jacobian product runs the activation → add → matmul
  chain in that order.

Inference calls the two kernels directly and records nothing: a tape is
kept only where a reverse sweep will read it. ``model.py`` records the
reparameterisation, the decoder input, the survival likelihood, the VAE
loss and the loss blend through :meth:`Tape.record`, one node each, with
the formulas kept there.

Every value is checked for NaN and ±inf at most once, where it is
computed: by a kernel or as a node is recorded. NaN and ±inf carry through
sums, products and matmuls (IEEE 754), so operands are not checked on
their own: a non-finite parameter, input or constant makes the value of
the node that reads it non-finite, and that check raises naming the
node's op. Nor is a sigmoid, tanh or softmax output, finite whenever its
checked input is. The check sums the array first and scans it entry by
entry only when the sum is not finite, as an overflowing sum also is.

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


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    so exp never overflows; written into ``out`` when given, which may be
    ``x`` itself. With e = exp(-|x|) <= 1, the numerator max(e, x >= 0) is
    1 or e as the sign asks, so each entry takes the IEEE operations of
    ``where(x >= 0, 1 / (1 + e), e / (1 + e))`` in six array passes."""
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=out)


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

    The pre-activation is checked, so an overflow that a saturating
    activation would hide still raises ``NumericalError`` naming
    ``'dense'``. The output is not: each activation maps finite values to
    finite ones, so its check could never fire first.
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
    return z if activation == "identity" else _ACTIVATIONS[activation][0](z)


def _steps_array(steps, d_in: int) -> Array:
    """The LSTM input as one float64 (T, batch, d_in) array.

    ``steps`` is either that array, used as it is (a view such as
    ``x.transpose(1, 0, 2)`` of a (batch, T, d_in) stack included), or a
    sequence of T numpy arrays of shape (batch, d_in), stacked once into a
    new array. Anything else, or no step at all, raises ``ContractError``
    listing the shapes it got.
    """
    if isinstance(steps, np.ndarray):
        x, shapes = steps, steps.shape
    else:
        shapes = [getattr(s, "shape", type(s).__name__) for s in steps]
        ok = shapes and all(isinstance(s, np.ndarray) and s.ndim == 2 for s in steps) \
            and all(shape == shapes[0] for shape in shapes)
        x = np.stack(steps) if ok else None
    if x is None or x.ndim != 3 or x.shape[0] == 0 or x.shape[2] != d_in:
        raise ContractError(
            f"lstm needs one or more (batch, {d_in}) steps, given as a list or "
            f"stacked (T, batch, {d_in}), got shapes {shapes}"
        )
    return x if x.dtype == np.float64 else x.astype(np.float64)


def lstm_values(steps, wx: Array, wh: Array, b: Array, keep: bool = False):
    """Single-layer LSTM over T steps of (batch, d_in); the forward of
    :meth:`Tape.lstm` and of tape-free inference.

    ``steps`` is one (T, batch, d_in) array, which may be a strided view,
    or a list of (batch, d_in) arrays, stacked once (see
    :func:`_steps_array`). Gate weights are stacked in the order i, f, o,
    g: ``wx`` is (d_in, 4 hidden), ``wh`` (hidden, 4 hidden) and ``b`` (4
    hidden). h and c start at zero, so the first step has no recurrent term
    and its forget gate multiplies nothing. Every step's pre-activation is
    checked, and a non-finite one raises ``NumericalError`` naming ``'lstm'``.
    Neither the input nor h is checked on its own. Each input entry enters
    every gate column of its step's pre-activation, so a non-finite one fails
    that step's check. Once every gate is finite, |c_t| <= t and |h| <= 1.

    Returns the final hidden state (batch, hidden). With ``keep`` it
    returns ``(h, gates, cells, tanh_cells)``, what backpropagation through
    time reads: the gate activations, written over their pre-activations
    in one (T, batch, 4 hidden) buffer (step 0 leaves its unused forget
    block as it is), and c_t and tanh(c_t) as (T, batch, hidden).
    Without it every step reuses one step's gate, cell and tanh-cell
    buffers. Either way the products ``h @ wh`` and i * g and the hidden
    state are written into buffers allocated once per call, and no step
    allocates an array of its own beyond the sigmoid's work arrays.
    """
    hid = wh.shape[0]
    if wx.ndim != 2 or wx.shape[1] != 4 * hid or wh.shape != (hid, 4 * hid) \
            or b.shape != (4 * hid,):
        raise ContractError(
            f"lstm weights {wx.shape}, {wh.shape}, {b.shape} are not stacked "
            f"(d_in, 4h), (h, 4h), (4h,)"
        )
    x = _steps_array(steps, wx.shape[0])
    n, batch = x.shape[:2]
    gi, gf, go, gg = (slice(k * hid, (k + 1) * hid) for k in range(4))
    ifo = slice(0, 3 * hid)  # i, f and o are one contiguous column block
    m = n if keep else 1
    gates = np.empty((m, batch, 4 * hid))
    cells = np.empty((m, batch, hid))
    tanh_cells = np.empty((m, batch, hid))
    h = np.empty((batch, hid))
    if n > 1:
        rec, gain = np.empty((batch, 4 * hid)), np.empty((batch, hid))
    for t in range(n):
        k = t if keep else 0
        z, c, tc = gates[k], cells[k], tanh_cells[k]
        np.matmul(x[t], wx, out=z)
        z += b
        if t:
            z += np.matmul(h, wh, out=rec)
        _check_finite(z, "lstm")
        if t:
            _sigmoid(z[:, ifo], out=z[:, ifo])
        else:
            for blk in (gi, go):
                _sigmoid(z[:, blk], out=z[:, blk])
        np.tanh(z[:, gg], out=z[:, gg])
        if t:  # c = f * c_prev + i * g; without keep, cells[-1] is c itself
            np.multiply(z[:, gf], cells[k - 1], out=c)
            c += np.multiply(z[:, gi], z[:, gg], out=gain)
        else:
            np.multiply(z[:, gi], z[:, gg], out=c)
        np.tanh(c, out=tc)
        np.multiply(z[:, go], tc, out=h)
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

    def lstm(self, steps, w_x, w_h, b) -> Tensor:
        """Single-layer LSTM over T steps of (batch, d_in); returns the
        final hidden state (batch, hidden) as one node, computed by
        :func:`lstm_values`, whose docstring gives the step layouts and
        the weight layout.

        The steps are constants: the node's parents are the three weights
        and backward computes no input gradient. A non-finite step entry or
        weight fails the check of the first step pre-activation it reaches.
        The node holds the (T, batch, d_in) input, a strided view when given
        one, and the kernel's gate, cell and tanh-cell buffers. Its
        vector-Jacobian product allocates its buffers once per call: the (T,
        batch, 4 hidden) gate gradients, two dc buffers it alternates
        between, four (batch, hidden) work buffers, one of which holds
        h_{t-1} for the weight gradients, and one per weight-gradient term.
        """
        (wx, w_x), (wh, w_h), (bv, b) = _operand(w_x), _operand(w_h), _operand(b)
        x = _steps_array(steps, wx.shape[0])
        h, gates, cells, tanh_cells = lstm_values(x, wx, wh, bv, keep=True)
        n, batch, hid = cells.shape
        gi, gf, go, gg = (slice(k * hid, (k + 1) * hid) for k in range(4))

        def vjp(g):
            # every product and sum is taken in the order the per-gate
            # composition of tape ops takes it, so the gradients equal that
            # graph's wherever BLAS sums a column block as it would alone;
            # the buffers only drop the temporaries
            dz = np.empty_like(gates)
            work, tmp, prod, dh_buf = (np.empty((batch, hid)) for _ in range(4))
            dcs = (np.empty((batch, hid)), np.empty((batch, hid)))

            def sigmoid_gate(block, u, v, a):
                # ((u * v) * a) * (1 - a), formed in a contiguous buffer and
                # copied into its column block once: in-place products on a
                # strided block run row by row
                np.multiply(np.multiply(u, v, out=work), a, out=work)
                block[...] = np.multiply(work, np.subtract(1.0, a, out=tmp), out=work)

            dh, dc_next, f_next = g, None, None
            for t in range(n - 1, -1, -1):
                a, d, tc = gates[t], dz[t], tanh_cells[t]
                i, f, o, cand = a[:, gi], a[:, gf], a[:, go], a[:, gg]
                sigmoid_gate(d[:, go], dh, tc, o)
                dc = dcs[t % 2]  # (dh * o) * (1 - tc * tc) + dc_next * f_next
                np.multiply(dh, o, out=dc)
                dc *= np.subtract(1.0, np.multiply(tc, tc, out=tmp), out=tmp)
                if dc_next is not None:
                    dc += np.multiply(dc_next, f_next, out=tmp)
                sigmoid_gate(d[:, gi], dc, cand, i)
                np.multiply(dc, i, out=work)  # (dc * i) * (1 - cand * cand)
                work *= np.subtract(1.0, np.multiply(cand, cand, out=tmp), out=tmp)
                d[:, gg] = work
                if t:
                    sigmoid_gate(d[:, gf], dc, cells[t - 1], f)
                    dh = np.matmul(d[:, gf], wh[:, gf].T, out=dh_buf)
                    for blk in (gg, go, gi):
                        dh += np.matmul(d[:, blk], wh[:, blk].T, out=prod)
                else:
                    d[:, gf] = 0.0
                dc_next, f_next = dc, f
            # weight gradients accumulate over steps in forward order
            d_wx, d_b = x[0].T @ dz[0], dz[0].sum(axis=0)
            d_wh = np.zeros_like(wh)
            if n > 1:
                p_wx, p_wh, p_b = np.empty_like(d_wx), np.empty_like(d_wh), np.empty_like(d_b)
            h_prev = prod
            for t in range(1, n):
                d_wx += np.matmul(x[t].T, dz[t], out=p_wx)
                d_b += dz[t].sum(axis=0, out=p_b)
                np.multiply(gates[t - 1][:, go], tanh_cells[t - 1], out=h_prev)
                d_wh += np.matmul(h_prev.T, dz[t], out=p_wh)
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

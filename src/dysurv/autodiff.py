"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tape`` records every primitive applied to ``Tensor`` values. Calling
``Tape.backward`` on a scalar loss replays the records in reverse and
accumulates vector-Jacobian products into a gradient store keyed by
parameter name. The op set is deliberately small: exactly what an LSTM
encoder, dense heads, softmax likelihoods and a Gaussian VAE need.

Shapes are restricted to what the model uses: 2-D matmul, elementwise ops
on equal shapes, row-broadcast bias add, reductions over all entries or
one axis. General numpy broadcasting is out of scope on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericalError, ReproducibilityError

Array = np.ndarray


@dataclass
class Param:
    """Named trainable array. Mutated in place by the optimizer."""

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


class _Node:
    __slots__ = ("parents", "vjp", "param")

    def __init__(self, parents, vjp, param=None):
        self.parents = parents
        self.vjp = vjp
        self.param = param


def _check_finite(value: Array, op: str) -> None:
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"non-finite value produced by op '{op}'")


class Tape:
    """Wengert list of primitive applications.

    One tape per forward pass; build the graph, call :meth:`backward`,
    discard. ``backward`` is pure: repeated calls on the same tape return
    identical gradients.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    # -- leaves ---------------------------------------------------------

    def leaf(self, value, param: Param | None = None) -> Tensor:
        """Record a leaf. Pass ``param`` to receive its gradient later."""
        arr = np.asarray(value, dtype=np.float64)
        _check_finite(arr, "leaf")
        self._nodes.append(_Node((), None, param))
        return Tensor(arr, len(self._nodes) - 1)

    def param(self, p: Param) -> Tensor:
        return self.leaf(p.value, param=p)

    def _wrap(self, x) -> Tensor:
        if isinstance(x, Tensor):
            return x
        return self.leaf(x)

    def _push(self, value: Array, parents: tuple, vjp, op: str) -> Tensor:
        _check_finite(value, op)
        self._nodes.append(_Node(parents, vjp, None))
        return Tensor(value, len(self._nodes) - 1)

    # -- primitives -----------------------------------------------------

    def matmul(self, a, b) -> Tensor:
        a, b = self._wrap(a), self._wrap(b)
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2:
            raise ContractError(
                f"matmul expects 2-D operands, got {av.shape} @ {bv.shape}"
            )
        if av.shape[1] != bv.shape[0]:
            raise ContractError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = av @ bv

        def vjp(g):
            return g @ bv.T, av.T @ g

        return self._push(out, (a.idx, b.idx), vjp, "matmul")

    def _binary(self, a, b, fwd, vjp_ab, vjp_scalar, op: str) -> Tensor:
        """Shared plumbing for add/sub/mul with scalar and bias broadcast."""
        if isinstance(b, (int, float)):
            a = self._wrap(a)
            out = fwd(a.value, float(b))
            return self._push(out, (a.idx,), vjp_scalar(a.value, float(b)), op)
        a, b = self._wrap(a), self._wrap(b)
        av, bv = a.value, b.value
        row_bias = av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]
        if not row_bias and av.shape != bv.shape:
            raise ContractError(f"{op} shape mismatch: {av.shape} vs {bv.shape}")
        out = fwd(av, bv)
        return self._push(out, (a.idx, b.idx), vjp_ab(av, bv, row_bias), op)

    def add(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            def vjp(g):
                gb = g.sum(axis=0) if row_bias else g
                return g, gb

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g,)

        return self._binary(a, b, lambda x, y: x + y, vjp_ab, vjp_scalar, "add")

    def sub(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            def vjp(g):
                gb = -(g.sum(axis=0)) if row_bias else -g
                return g, gb

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g,)

        return self._binary(a, b, lambda x, y: x - y, vjp_ab, vjp_scalar, "sub")

    def mul(self, a, b) -> Tensor:
        def vjp_ab(av, bv, row_bias):
            if row_bias:

                def vjp(g):
                    return g * bv, (g * av).sum(axis=0)

            else:

                def vjp(g):
                    return g * bv, g * av

            return vjp

        def vjp_scalar(av, s):
            return lambda g: (g * s,)

        return self._binary(a, b, lambda x, y: x * y, vjp_ab, vjp_scalar, "mul")

    def sigmoid(self, a) -> Tensor:
        a = self._wrap(a)
        x = a.value
        # split by sign so exp never overflows
        out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def vjp(g):
            return (g * out * (1.0 - out),)

        return self._push(out, (a.idx,), vjp, "sigmoid")

    def tanh(self, a) -> Tensor:
        a = self._wrap(a)
        out = np.tanh(a.value)

        def vjp(g):
            return (g * (1.0 - out * out),)

        return self._push(out, (a.idx,), vjp, "tanh")

    def exp(self, a) -> Tensor:
        a = self._wrap(a)
        out = np.exp(a.value)

        def vjp(g):
            return (g * out,)

        return self._push(out, (a.idx,), vjp, "exp")

    def log(self, a) -> Tensor:
        a = self._wrap(a)
        av = a.value
        if np.any(av <= 0.0):
            raise DomainError("log of nonpositive value; clamp probabilities first")
        out = np.log(av)

        def vjp(g):
            return (g / av,)

        return self._push(out, (a.idx,), vjp, "log")

    def square(self, a) -> Tensor:
        a = self._wrap(a)
        av = a.value

        def vjp(g):
            return (2.0 * av * g,)

        return self._push(av * av, (a.idx,), vjp, "square")

    def softmax(self, a) -> Tensor:
        """Row-wise softmax over the last axis; stable under shift."""
        a = self._wrap(a)
        x = a.value
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)

        def vjp(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return self._push(out, (a.idx,), vjp, "softmax")

    def sum(self, a, axis: int | None = None) -> Tensor:
        a = self._wrap(a)
        av = a.value
        out = av.sum(axis=axis)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, av.shape).copy(),)
            return (np.expand_dims(g, axis).repeat(av.shape[axis], axis=axis),)

        return self._push(np.asarray(out), (a.idx,), vjp, "sum")

    def mean(self, a, axis: int | None = None) -> Tensor:
        a = self._wrap(a)
        av = a.value
        count = av.size if axis is None else av.shape[axis]
        out = av.mean(axis=axis)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g / count, av.shape).copy(),)
            return (np.expand_dims(g / count, axis).repeat(count, axis=axis),)

        return self._push(np.asarray(out), (a.idx,), vjp, "mean")

    def concat(self, parts: Sequence, axis: int = 1) -> Tensor:
        parts = [self._wrap(p) for p in parts]
        values = [p.value for p in parts]
        out = np.concatenate(values, axis=axis)
        sizes = [v.shape[axis] for v in values]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._push(out, tuple(p.idx for p in parts), vjp, "concat")

    def clip(self, a, lo: float, hi: float) -> Tensor:
        """Clamp values; gradient passes through the unclipped region."""
        a = self._wrap(a)
        av = a.value
        out = np.clip(av, lo, hi)
        inside = (av >= lo) & (av <= hi)

        def vjp(g):
            return (g * inside,)

        return self._push(out, (a.idx,), vjp, "clip")

    def dropout(self, a, keep: float, mask: Array | None) -> Tensor:
        """Inverted dropout.

        ``mask`` is a caller-supplied 0/1 array from a seeded generator so
        that a forward pass is a deterministic function of its inputs.
        """
        a = self._wrap(a)
        if not (0.0 < keep <= 1.0):
            raise DomainError(f"dropout keep probability {keep} outside (0, 1]")
        if mask is None:
            raise ContractError("dropout requires a mask")
        if mask.shape != a.value.shape:
            raise ContractError(
                f"dropout mask shape {mask.shape} != input shape {a.value.shape}"
            )
        scale = mask / keep
        out = a.value * scale

        def vjp(g):
            return (g * scale,)

        return self._push(out, (a.idx,), vjp, "dropout")

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Tensor, params: Iterable[Param] | None = None) -> dict[str, Array]:
        """Accumulate d(loss)/d(param) for every parameter leaf.

        Parameters listed in ``params`` but absent from the tape get zero
        gradients, so optimizers can iterate a fixed parameter list.
        """
        if loss.value.ndim != 0:
            raise ContractError(
                f"backward expects a scalar loss, got shape {loss.value.shape}"
            )
        grads: list[Array | None] = [None] * (loss.idx + 1)
        grads[loss.idx] = np.ones((), dtype=np.float64)
        for i in range(loss.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = self._nodes[i]
            if node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if grads[parent] is None:
                    grads[parent] = pg.copy() if pg.base is not None else pg
                else:
                    grads[parent] = grads[parent] + pg
        store: dict[str, Array] = {}
        for i, node in enumerate(self._nodes[: loss.idx + 1]):
            if node.param is None:
                continue
            g = grads[i]
            if g is None:
                g = np.zeros_like(node.param.value)
            g = np.asarray(g, dtype=np.float64).reshape(node.param.value.shape)
            if node.param.name in store:
                store[node.param.name] = store[node.param.name] + g
            else:
                store[node.param.name] = g
        if params is not None:
            for p in params:
                if p.name not in store:
                    store[p.name] = np.zeros_like(p.value)
        return store


def finite_difference_check(
    build: Callable[[], tuple[Tape, Tensor]],
    params: Sequence[Param],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``build`` must construct a fresh tape and scalar loss from the current
    values of ``params``; it is called twice up front and must reproduce
    the loss bit for bit, then twice per parameter coordinate. Returns the
    worst relative error max|a - n| / max(1e-8, |a| + |n|).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"finite-difference eps {eps} outside [1e-7, 1e-3]")
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
            flat[i] = orig + eps
            f_plus = float(build()[1].value)
            flat[i] = orig - eps
            f_minus = float(build()[1].value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(aflat[i])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst

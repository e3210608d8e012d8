"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a float array plus an on-demand gradient. Every op computes
its value, defines a backward closure that accumulates into its parents and
returns one `Tensor(value, parents, backward)` node; the constructor keeps
parents and closure only when some parent requires a gradient, so constant
inputs build no graph. Every op computes in the dtype of its input, and
every buffer and constant it makes follows that dtype. Parameters are
float64 and enter a float32 graph through `cast`, whose backward returns a
float64 gradient, so the optimizer and checkpoints stay in float64 while
the networks run in float32. Gradients of disjoint graph regions accumulate
in a fixed topological order, so results are deterministic for a fixed BLAS
setup. A backward sweep frees each interior node's gradient once that node's
closure has passed it on, so after a sweep only leaves (parameters and
tensors made with `requires_grad=True`) hold gradients: read a gradient from
a leaf.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError
from .grid import group_rows


class Tensor:
    """Value + gradient node of the reverse-mode graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        # a numpy scalar (a full reduction's result) keeps its dtype
        self.data = np.asarray(data)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, grad={'set' if self.grad is not None else 'none'})"

    def backward(self):
        """Reverse sweep from a scalar output. Leaves accumulate their
        gradients; an interior node's is dropped once its closure used it."""
        if self.data.size != 1:
            raise DataError(f"backward() needs a scalar output, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def constant(x, dtype=np.float64) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def parameter(data, name=None) -> Tensor:
    t = Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)
    return t


def _accumulate(t: Tensor, g: np.ndarray):
    # gradients are never mutated in place downstream, so adopting g is safe
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def cast(a: Tensor, dtype) -> Tensor:
    """`a` in `dtype`; the gradient flows back in `a`'s own dtype."""
    if a.data.dtype == dtype:
        return a

    def backward(g):
        _accumulate(a, g.astype(a.data.dtype))

    return Tensor(a.data.astype(dtype), parents=(a,), backward=backward)


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, parents=(a, b), backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return Tensor(a.data**p, parents=(a,), backward=backward)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-x) overflows to inf for x below about -709, and 1 / inf is the
    # exact 0.0; ignoring that overflow keeps every other value's bits
    with np.errstate(over="ignore"):
        val = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accumulate(a, g * val * (1.0 - val))

    return Tensor(val, parents=(a,), backward=backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return Tensor(np.where(mask, a.data, 0.0), parents=(a,), backward=backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy @ semantics of operands with two or more
    dimensions (batched leading dims allowed)."""
    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return Tensor(a.data @ b.data, parents=(a, b), backward=backward)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), backward=backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), constant(1.0 / n, a.dtype))


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [constant(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors), backward=backward)


# -- row gather / scatter ----------------------------------------------------


def segment_sum(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum `values` rows into `n_rows` output slots (grouped by row, then
    reduceat; much faster than np.add.at for large inputs)."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    order, starts, _ = group_rows(rows)
    out[rows[order[starts]]] = np.add.reduceat(np.take(values, order, axis=0), starts, axis=0)
    return out


def gather_rows(a: Tensor, rows) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)

    def backward(g):
        _accumulate(a, segment_sum(g, rows, a.data.shape[0]))

    return Tensor(np.take(a.data, rows, axis=0), parents=(a,), backward=backward)


def scatter_add_rows(a: Tensor, rows, n_rows: int) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.shape[0] != a.data.shape[0]:
        raise DataError("scatter rows must match input row count")

    def backward(g):
        _accumulate(a, np.take(g, rows, axis=0))

    return Tensor(segment_sum(a.data, rows, n_rows), parents=(a,), backward=backward)


def from_loss_fn(pred: Tensor, fn) -> Tensor:
    """Wrap a numpy loss `fn(values) -> (scalar, grad)` as a float64 graph
    node. The loss sees float64 values; its gradient flows back in `pred`'s
    dtype."""
    loss, grad = fn(pred.data.astype(np.float64, copy=False))
    if not np.isfinite(loss):
        raise NumericalError(f"loss function returned non-finite value {loss}")

    def backward(g):
        _accumulate(pred, (g * grad).astype(pred.dtype, copy=False))

    return Tensor(np.float64(loss), parents=(pred,), backward=backward)

"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a float array plus an on-demand gradient; ops record closures
that accumulate into their parents. Everything runs in float64. Gradients
of disjoint graph regions accumulate in a fixed topological order, so results
are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError


class Tensor:
    """Value + gradient node of the reverse-mode graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, name=None):
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(data, np.ndarray) else data
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

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse sweep from a scalar output."""
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

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    return _as_tensor(x)


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


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, parents=(a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data, parents=(a, b))

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data**2), b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def pow_const(a: Tensor, p: float) -> Tensor:
    out = Tensor(a.data**p, parents=(a,))

    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    out._backward = backward if out.requires_grad else None
    return out


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    out = Tensor(val, parents=(a,))

    def backward(g):
        _accumulate(a, g * val)

    out._backward = backward if out.requires_grad else None
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), parents=(a,))

    def backward(g):
        _accumulate(a, g / a.data)

    out._backward = backward if out.requires_grad else None
    return out


def sqrt(a: Tensor) -> Tensor:
    val = np.sqrt(a.data)
    out = Tensor(val, parents=(a,))

    def backward(g):
        _accumulate(a, g * 0.5 / val)

    out._backward = backward if out.requires_grad else None
    return out


def tanh(a: Tensor) -> Tensor:
    val = np.tanh(a.data)
    out = Tensor(val, parents=(a,))

    def backward(g):
        _accumulate(a, g * (1.0 - val**2))

    out._backward = backward if out.requires_grad else None
    return out


def sigmoid(a: Tensor) -> Tensor:
    val = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(val, parents=(a,))

    def backward(g):
        _accumulate(a, g * val * (1.0 - val))

    out._backward = backward if out.requires_grad else None
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), parents=(a,))

    def backward(g):
        _accumulate(a, g * mask)

    out._backward = backward if out.requires_grad else None
    return out


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    val = np.clip(a.data, lo, hi)
    interior = (a.data > lo) & (a.data < hi)
    out = Tensor(val, parents=(a,))

    def backward(g):
        _accumulate(a, g * interior)

    out._backward = backward if out.requires_grad else None
    return out


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy @ semantics (batched leading dims allowed)."""
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if b.data.ndim == 1:
            if a.data.ndim == 1:  # inner product
                _accumulate(a, g * b.data)
                _accumulate(b, g * a.data)
                return
            _accumulate(a, g[..., :, None] * b.data[None, :])
            gb = (a.data * g[..., :, None]).sum(axis=tuple(range(a.data.ndim - 1)))
            _accumulate(b, gb)
            return
        if a.data.ndim == 1:
            _accumulate(a, _unbroadcast((g[..., None, :] * b.data).sum(axis=-1), a.data.shape))
            _accumulate(b, _unbroadcast(a.data[:, None] * g[..., None, :], b.data.shape))
            return
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward if out.requires_grad else None
    return out


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


def reduce_min(a: Tensor, axis: int, keepdims=False) -> Tensor:
    """Minimum along one axis; the gradient routes to the first argmin."""
    arg = np.argmin(a.data, axis=axis)
    val = np.min(a.data, axis=axis, keepdims=keepdims)
    out = Tensor(val, parents=(a,))

    def backward(g):
        if not keepdims:
            g_exp = np.expand_dims(g, axis)
        else:
            g_exp = g
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(arg, axis), g_exp, axis=axis)
        _accumulate(a, ga)

    out._backward = backward if out.requires_grad else None
    return out


def softmax_lastaxis(a: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(val, parents=(a,))

    def backward(g):
        dot = (g * val).sum(axis=-1, keepdims=True)
        _accumulate(a, val * (g - dot))

    out._backward = backward if out.requires_grad else None
    return out


# -- shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = Tensor(a.data.transpose(axes), parents=(a,))

    def backward(g):
        _accumulate(a, g.transpose(inv))

    out._backward = backward if out.requires_grad else None
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    out._backward = backward if out.requires_grad else None
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis (zero-padded gradient)."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(a.data[sl], parents=(a,))

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[sl] = g
        _accumulate(a, ga)

    out._backward = backward if out.requires_grad else None
    return out


# -- row gather / scatter ----------------------------------------------------


def segment_sum(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum `values` rows into `n_rows` output slots (sort + reduceat; much
    faster than np.add.at for large inputs)."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    if rows.size == 0:
        return out
    order = np.argsort(rows, kind="stable")
    rs = rows[order]
    vs = values[order]
    starts = np.nonzero(np.r_[True, rs[1:] != rs[:-1]])[0]
    out[rs[starts]] = np.add.reduceat(vs, starts, axis=0)
    return out


def gather_rows(a: Tensor, rows) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    out = Tensor(a.data[rows], parents=(a,))

    def backward(g):
        _accumulate(a, segment_sum(g, rows, a.data.shape[0]))

    out._backward = backward if out.requires_grad else None
    return out


def scatter_add_rows(a: Tensor, rows, n_rows: int) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.shape[0] != a.data.shape[0]:
        raise DataError("scatter rows must match input row count")
    out = Tensor(segment_sum(a.data, rows, n_rows), parents=(a,))

    def backward(g):
        _accumulate(a, g[rows])

    out._backward = backward if out.requires_grad else None
    return out


def from_loss_fn(pred: Tensor, fn) -> Tensor:
    """Wrap a numpy loss `fn(values) -> (scalar, grad)` as a graph node."""
    loss, grad = fn(pred.data)
    if not np.isfinite(loss):
        raise NumericalError(f"loss function returned non-finite value {loss}")
    out = Tensor(np.float64(loss), parents=(pred,))

    def backward(g):
        _accumulate(pred, g * grad)

    out._backward = backward if out.requires_grad else None
    return out


# -- verification ------------------------------------------------------------


def finite_difference_check(fn, arrays, eps=1e-5, rtol=1e-4) -> float:
    """Central finite-difference check of `fn(*tensors) -> scalar Tensor`.

    Returns the worst relative error over every element of every input;
    raises NumericalError when it exceeds rtol.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        gflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(*tensors).data)
            flat[i] = orig - eps
            lo = float(fn(*tensors).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(1.0, abs(numeric), abs(gflat[i]))
            rel = abs(numeric - gflat[i]) / denom
            worst = max(worst, rel)
    if worst > rtol:
        raise NumericalError(f"gradient check failed: rel err {worst:.3e} > {rtol:.1e}")
    return worst

"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a closure that propagates gradients to its inputs;
``Tensor.backward`` replays the closures in reverse topological order.  The
tape is rebuilt on every forward pass, so identical inputs always produce
identical gradients.

A backward closure may capture its inputs and any arrays it needs, but never
its own output ``Tensor``: ``out._backward`` would then close a reference
cycle through ``out``, and the whole graph of a step, activations included,
would wait for the cyclic garbage collector instead of being freed by
reference counting when the loss is dropped.  Capture the output array
instead (``y = np.sqrt(x)`` ... ``g * 0.5 / y``).

Broadcasting is deliberately restricted: elementwise operations accept
operands of identical shape or a 0-d scalar, nothing else.  The few places
that need axis broadcasting (bias rows, mask biases, tiling a parameter over
a batch) go through dedicated operations whose gradients are written out
explicitly, which keeps every backward rule auditable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ContractError, InputError, ParameterError, ShapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return value
        return value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = parents
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may be a view into another node's gradient buffer
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every ``requires_grad`` tensor reachable from here.

        Must be called on a scalar (single-element) tensor.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise binary ops ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.float64(other))

    @staticmethod
    def _check_elementwise(a: "Tensor", b: "Tensor", op: str) -> None:
        if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ (only scalar broadcast is supported)")

    @staticmethod
    def _reduce_to(g: np.ndarray, t: "Tensor") -> np.ndarray:
        # Reverse the scalar broadcast: a 0-d operand collects the full sum.
        if t.ndim == 0 and g.ndim != 0:
            return np.asarray(g.sum())
        return g

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "add")
        out = Tensor._result(a.data + b.data, (a, b))

        def _bw(g):
            if a.requires_grad:
                a._accumulate(Tensor._reduce_to(g, a))
            if b.requires_grad:
                b._accumulate(Tensor._reduce_to(g, b))

        out._backward = _bw
        return out

    def __sub__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "sub")
        out = Tensor._result(a.data - b.data, (a, b))

        def _bw(g):
            if a.requires_grad:
                a._accumulate(Tensor._reduce_to(g, a))
            if b.requires_grad:
                b._accumulate(Tensor._reduce_to(-g, b))

        out._backward = _bw
        return out

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "mul")
        out = Tensor._result(a.data * b.data, (a, b))

        def _bw(g):
            if a.requires_grad:
                a._accumulate(Tensor._reduce_to(g * b.data, a))
            if b.requires_grad:
                b._accumulate(Tensor._reduce_to(g * a.data, b))

        out._backward = _bw
        return out

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "div")
        out = Tensor._result(a.data / b.data, (a, b))

        def _bw(g):
            if a.requires_grad:
                a._accumulate(Tensor._reduce_to(g / b.data, a))
            if b.requires_grad:
                b._accumulate(Tensor._reduce_to(-g * a.data / (b.data * b.data), b))

        out._backward = _bw
        return out

    def __neg__(self) -> "Tensor":
        out = Tensor._result(-self.data, (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = _bw
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def add_const(self, const: np.ndarray) -> "Tensor":
        """Add a non-differentiable array, broadcast by numpy rules.

        Used for attention mask biases; the gradient passes through unchanged
        because the constant carries no parameters.
        """
        data = self.data + const
        if data.shape != self.shape:
            raise ShapeError(f"add_const: constant of shape {np.shape(const)} would broadcast {self.shape} to {data.shape}")
        out = Tensor._result(data, (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g)

        out._backward = _bw
        return out

    # -- elementwise unary ops -----------------------------------------------

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = Tensor._result(y, (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / y)

        out._backward = _bw
        return out

    def clip_min(self, floor: float) -> "Tensor":
        """max(x, floor); gradient is zero where the floor is active."""
        out = Tensor._result(np.maximum(self.data, floor), (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > floor))

        out._backward = _bw
        return out

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._result(self.data.reshape(shape), (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        out._backward = _bw
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = tuple(int(i) for i in np.argsort(axes))
        out = Tensor._result(self.data.transpose(axes), (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        out._backward = _bw
        return out

    def expand(self, shape: Sequence[int]) -> "Tensor":
        """Broadcast size-1 axes up to ``shape``; gradient sums them back."""
        shape = tuple(shape)
        if len(shape) != self.ndim:
            raise ShapeError(f"expand: rank mismatch, {self.shape} -> {shape}")
        axes = []
        for i, (src, dst) in enumerate(zip(self.shape, shape)):
            if src == dst:
                continue
            if src != 1:
                raise ShapeError(f"expand: cannot expand axis {i} of {self.shape} to {shape}")
            axes.append(i)
        out = Tensor._result(np.ascontiguousarray(np.broadcast_to(self.data, shape)), (self,))

        def _bw(g):
            if self.requires_grad:
                self._accumulate(g.sum(axis=tuple(axes), keepdims=True) if axes else g)

        out._backward = _bw
        return out

    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, np.ndarray) or (isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)):
            raise ContractError("advanced indexing is not supported; use embedding/gather_index")
        out = Tensor._result(self.data[key], (self,))

        def _bw(g):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[key] += g

        out._backward = _bw
        return out

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, self.shape).copy())

        out._backward = _bw
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


# -- free functions ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports plain 2-d x 2-d, stacked arguments with identical leading axes,
    and a stacked left operand against a shared 2-d right operand (the linear
    layer case).  Gradients: da = g @ b^T, db = a^T @ g, with db summed over
    any stacked axes when b is shared.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    shared_rhs = b.ndim == 2 and a.ndim > 2
    if not shared_rhs and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: stacked axes disagree, {a.shape} x {b.shape}")
    out = Tensor._result(a.data @ b.data, (a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if shared_rhs:
                k = a.shape[-1]
                n = g.shape[-1]
                b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    out._backward = _bw
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a 1-d bias along the last axis of ``x``."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not match last axis of {x.shape}")
    out = Tensor._result(x.data + b.data, (x, b))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.reshape(-1, b.shape[0]).sum(axis=0))

    out._backward = _bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add_bias(matmul(x, w), b)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ParameterError("concat: need at least one tensor")
    out = Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]

    def _bw(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index[axis] = slice(offset, offset + size)
                t._accumulate(g[tuple(index)])
            offset += size

    out._backward = _bw
    return out


def softmax(t: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Exponential normalization along ``axis``, stabilized by max subtraction."""
    if temperature <= 0:
        raise ParameterError(f"softmax: temperature must be positive, got {temperature}")
    if not -t.ndim <= axis < t.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {t.shape}")
    z = t.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._result(y, (t,))

    def _bw(g):
        if t.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            t._accumulate(y * (g - inner) / temperature)

    out._backward = _bw
    return out


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    z = t.data - t.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    out = Tensor._result(y, (t,))

    def _bw(g):
        if t.requires_grad:
            t._accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    out._backward = _bw
    return out


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm: eps must be positive, got {eps}")
    d = t.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match last axis of {t.shape}")
    mu = t.data.mean(axis=-1, keepdims=True)
    var = t.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (t.data - mu) * inv
    out = Tensor._result(xhat * gamma.data + beta.data, (t, gamma, beta))

    def _bw(g):
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if t.requires_grad:
            gh = g * gamma.data
            t._accumulate(inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))

    out._backward = _bw
    return out


def gelu(t: Tensor) -> Tensor:
    """Smooth gated activation (tanh form); smoothness keeps difference checks clean."""
    x = t.data
    x2 = x * x
    u = x2 * _GELU_A
    u += 1.0
    u *= x
    u *= _GELU_C
    th = np.tanh(u)
    half_gate = 0.5 * (1.0 + th)
    out = Tensor._result(x * half_gate, (t,))

    def _bw(g):
        if t.requires_grad:
            du = x2 * (3.0 * _GELU_A)
            du += 1.0
            du *= _GELU_C
            du *= 1.0 - th * th
            du *= 0.5 * x
            du += half_gate
            du *= g
            t._accumulate(du)

    out._backward = _bw
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: output shape is ids.shape + (width,)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError("embedding: ids must be integers")
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise InputError(f"embedding: id out of range [0, {table.shape[0]})")
    out = Tensor._result(table.data[ids], (table,))

    def _bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    out._backward = _bw
    return out


def take_rows(t: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor by index, with repeats allowed.

    Backward scatter-adds, so rows shared by several outputs accumulate all
    of their gradients; this is what makes batch-level deduplication of
    identical text rows an exact rewrite of the naive computation.
    """
    indices = np.asarray(indices)
    if t.ndim != 2 or indices.ndim != 1:
        raise ShapeError(f"take_rows: need a 2-d tensor and 1-d indices, got {t.shape} and {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= t.shape[0]):
        raise InputError(f"take_rows: index out of range [0, {t.shape[0]})")
    out = Tensor._result(t.data[indices], (t,))

    def _bw(g):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            np.add.at(t.grad, indices, g)

    out._backward = _bw
    return out


def segment_mean(x: Tensor, bounds) -> Tensor:
    """Mean-pool row ranges of every sequence: (B, S, d) -> (B, K, d).

    ``bounds`` (B, K, 2) holds one half-open row range [start, end) of
    sequence b for each output row k; an empty range (start == end) gives a
    zero row and passes no gradient.  The ranges fix a (B, K, S) averaging
    plan, split into a 0/1 membership and one 1/count scale per output row,
    so the forward is a batched row sum scaled by 1/count, as
    ``x[b, start:end].mean(axis=0)`` computes it, and the backward spreads
    each scaled output gradient over its range.
    """
    bounds = np.asarray(bounds)
    if x.ndim != 3 or bounds.ndim != 3 or bounds.shape[0] != x.shape[0] or bounds.shape[2] != 2:
        raise ShapeError(f"segment_mean: need (B, S, d) rows and (B, K, 2) bounds, got {x.shape} and {bounds.shape}")
    if not np.issubdtype(bounds.dtype, np.integer):
        raise InputError("segment_mean: bounds must be integers")
    start, end = bounds[..., 0], bounds[..., 1]
    if bounds.size and (start.min() < 0 or end.max() > x.shape[1] or np.any(end < start)):
        raise InputError(f"segment_mean: every range must satisfy 0 <= start <= end <= {x.shape[1]}")
    rows = np.arange(x.shape[1])
    member = ((rows >= start[..., None]) & (rows < end[..., None])).astype(np.float64)
    count = end - start
    scale = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)[..., None]
    out = Tensor._result(np.matmul(member, x.data) * scale, (x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(np.matmul(np.swapaxes(member, 1, 2), g * scale))

    out._backward = _bw
    return out


def gather_index(t: Tensor, idx) -> Tensor:
    """Pick t[i, idx[i]] from a 2-d tensor; backward scatters into the picks."""
    idx = np.asarray(idx)
    if t.ndim != 2 or idx.ndim != 1 or idx.shape[0] != t.shape[0]:
        raise ShapeError(f"gather_index: need (N, C) tensor and (N,) ids, got {t.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[1]):
        raise InputError(f"gather_index: index out of range [0, {t.shape[1]})")
    rows = np.arange(t.shape[0])
    out = Tensor._result(t.data[rows, idx], (t,))

    def _bw(g):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            np.add.at(t.grad, (rows, idx), g)

    out._backward = _bw
    return out

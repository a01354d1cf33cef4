"""Dense float64 tensors with reverse-mode automatic differentiation.

An operation whose output needs a gradient records a closure that propagates
gradients to its inputs; ``Tensor.backward`` replays the closures in reverse
topological order.  The tape is rebuilt on every forward pass, so identical
inputs always produce identical gradients.

The tape is made of graph nodes, kept apart from the tensors.  A ``Tensor``
holds its array and, when it requires a gradient, its ``_Node``; the node
holds the gradient buffer, the parent nodes and the backward closure.  A
leaf (a parameter or an input, a tensor that no op produced) that requires a
gradient gets its node when it is made, and keeps it.

One rule, ``_recorded``, which ``Tensor._result`` applies, decides what joins
the tape: an output records its parents' nodes and its closure only when
some input requires a gradient and no ``no_grad()`` block is active.  Anything else is a constant that holds
none of its inputs, so a forward-only pass, such as an evaluation run under
``no_grad()``, frees each intermediate array as soon as the next op has read
it.  The tape never changes a forward value: the outputs are the same bits
with or without it.

An op's closure captures its parents' nodes and only the arrays its gradient
formula reads, taken when the op runs; never a ``Tensor``.  A parent that
requires no gradient has no node, and a closure runs only when its output
joined the tape, so an op with one input never checks for its node.  The tape
therefore holds no activation that no formula reads, and such an array is
freed during the forward, as soon as the caller drops its last name:

* ``__add__``, ``concat``, ``splice_rows``, ``take_rows``, ``expand``, the
  views and ``__getitem__`` keep no input array;
* ``softmax``, ``log_softmax``, ``sqrt`` and ``layer_norm`` keep arrays they
  made (their output, or ``xhat`` and ``1 / std``), not their input;
* a product (``*``, ``/``, ``matmul``, ``linear`` and the two attention ops)
  keeps one operand only when the other operand needs a gradient;
* ``gelu`` keeps its derivative, computed in the forward with the numpy
  operations its backward would run, and only when its output joins the
  tape; ``clip_min`` keeps its 0/1 mask the same way.

A closure that needs only a few rows of an activation must copy them, not
keep a view: a numpy view keeps its whole base array alive.  The closure
never sees its own output either, since ``_result`` makes the output after
the closure exists, so no node is part of a reference cycle and a dropped
graph is freed by reference counting alone.

``backward`` consumes the graph as it goes, as PyTorch does by default
(``retain_graph=False``): once a node's closure has run, the node drops its
closure, its parents and, unless it is a leaf's, its gradient.  Each
interior node, with the arrays its closure kept and its gradient buffer, is
freed as soon as the nodes that consume it have run, even while the caller
still holds the loss.  Only leaves keep ``.grad``.  A second ``backward``
through a consumed node raises ``ContractError``; rebuild the graph instead.

Gradient buffers are never shared.  The first gradient a node receives
becomes its ``grad``, and later ones are added into it in place.  An op
hands a gradient over without a copy (``_accumulate(g, owned=True)``) only
when its closure has just computed that array and keeps no other reference
to it: a product, a reduction or an elementwise result.  A view of the
upstream gradient (a reshape, a transpose, a slice) and a gradient that goes
to two parents (``__add__``) are copied.  Whether an array is owned is
stated at the call site, never inferred from ``flags.owndata``.

Every gradient buffer is C-contiguous: ``_accumulate`` keeps an owned
gradient only when it is, and makes every copy in C order, and a scatter
starts from ``np.zeros(shape)``.  A gradient's layout, and with it the BLAS
kernel a later product runs on it, follows from its shape alone, never from
the views between it and the loss.

A stacked operand times a shared 2-d weight (``linear``, and ``matmul`` with
a 2-d right operand) is one 2-d GEMM over all the stacked rows, in the
forward and for the input gradient, as the weight gradient always was.
numpy would otherwise issue one small BLAS call per leading index, which
OpenBLAS does not thread.

Attention is three nodes between the projections and the output projection:
``attention_scores`` (head split, scaled product, mask), ``softmax`` and
``attention_context`` (weighted values, heads merged).  Each op runs the
numpy operations of the single-step nodes it replaces, on operands of the
same layout, so outputs and gradients keep their bits.  Softmax stays a node
of its own: it is the one step that is not a product or a view, and callers
time and pin it apart.  Rows shared by every sequence, such as prompts, join
the keys and values through ``splice_rows``, one node that keeps no array,
before they reach the attention ops.

Array indexing is one op, ``take_rows``, whose backward scatter-adds into
the picked rows.  A pick of one entry per row is a pick of width-1 rows:
``take_rows(t.reshape(-1, 1), np.arange(N) * C + cols)``.

Broadcasting is deliberately restricted: elementwise operations accept
operands of identical shape, and only a 0-d operand that needs no gradient
broadcasts, so no gradient is summed back.  A bias row is added by ``linear``
or tiled by ``expand``, and a mask bias is an operand of ``attention_scores``;
each gradient is written out explicitly, which keeps every backward rule auditable.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Sequence

import numpy as np

from .errors import ContractError, InputError, ParameterError, ShapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# False inside a no_grad() block
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar("navprompt_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op output is a constant.

    Forward values are the same bits as with the tape.  Blocks nest, and
    leaving one, normally or by an exception, restores the state it found.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class _Node:
    """A tape entry: the gradient buffer, the parent nodes and the backward closure.

    A leaf's node has no parents and no closure.  ``_parents`` is None once
    ``backward`` has consumed the node (see the module docstring).
    """

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents: tuple["_Node", ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self._parents: tuple[_Node, ...] | None = parents
        self._backward = backward

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to ``grad``, which is C-contiguous.

        ``owned=True`` hands a fresh C-contiguous ``g`` over uncopied (see the module docstring).
        """
        if self.grad is None:
            # asarray: an op on 0-d arrays returns a numpy scalar, not an array
            g = np.asarray(g)
            self.grad = g if owned and g.flags.c_contiguous else np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g


def _recorded(parents: Sequence["Tensor"]) -> tuple[_Node, ...]:
    """The recording rule: the nodes an op's output records, those of its inputs that require a gradient.

    Inside ``no_grad()`` there are none, and an output with none is a constant.
    """
    if not _GRAD_ENABLED.get():
        return ()
    return tuple([p._node for p in parents if p._node is not None])


class Tensor:
    """A float64 array and, when it requires a gradient, its graph node, the only holder of a gradient."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node: _Node | None = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self._node = _Node() if value else None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ContractError("a tensor that requires no gradient holds none")

    @property
    def _parents(self) -> tuple[_Node, ...] | None:
        """The parent nodes on the tape: () for a leaf or a constant, None once consumed."""
        return () if self._node is None else self._node._parents

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """An op's output; it joins the tape only when a gradient can reach it.

        The output gets a node holding ``_recorded(parents)`` and the op's
        ``backward`` closure when there are any such nodes; otherwise it is a
        constant that holds neither.
        """
        out = Tensor(data)
        nodes = _recorded(parents)
        if nodes:
            out._node = _Node(nodes, backward)
        return out

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
        """Populate ``grad`` on every ``requires_grad`` leaf reachable from here.

        Must be called on a scalar (single-element) tensor.  Consumes the
        graph: each interior node is released once its closure has run.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:
            return

        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ContractError("backward() reached a graph that an earlier backward() consumed; rebuild it")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        root.grad = np.ones_like(self.data)
        # popping drops the list's reference, so a consumed node is freed as
        # soon as nothing outside the graph holds it
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node._backward = None
                node._parents = None
                node.grad = None

    # -- elementwise binary ops ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.float64(other))

    @staticmethod
    def _check_elementwise(a: "Tensor", b: "Tensor", op: str) -> None:
        if a.shape != b.shape and not any(t.ndim == 0 and t._node is None for t in (a, b)):
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ (only a 0-d constant broadcasts)")

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "add")
        na, nb = a._node, b._node

        def _bw(g):
            if na is not None:
                na._accumulate(g)
            if nb is not None:
                nb._accumulate(g)

        return Tensor._result(a.data + b.data, (a, b), _bw)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "mul")
        na, nb = a._node, b._node
        # each operand's gradient reads the other operand
        ad = a.data if nb is not None else None
        bd = b.data if na is not None else None

        def _bw(g):
            if na is not None:
                na._accumulate(g * bd, owned=True)
            if nb is not None:
                nb._accumulate(g * ad, owned=True)

        return Tensor._result(a.data * b.data, (a, b), _bw)

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        Tensor._check_elementwise(a, b, "div")
        na, nb = a._node, b._node
        ad, bd = a.data if nb is not None else None, b.data

        def _bw(g):
            if na is not None:
                na._accumulate(g / bd, owned=True)
            if nb is not None:
                nb._accumulate(-g * ad / (bd * bd), owned=True)

        return Tensor._result(a.data / b.data, (a, b), _bw)

    # -- elementwise unary ops -----------------------------------------------

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        n = self._node

        def _bw(g):
            n._accumulate(g * 0.5 / y, owned=True)

        return Tensor._result(y, (self,), _bw)

    def clip_min(self, floor: float) -> "Tensor":
        """max(x, floor); gradient is zero where the floor is active."""
        n = self._node
        above = self.data > floor if _recorded((self,)) else None

        def _bw(g):
            n._accumulate(g * above, owned=True)

        return Tensor._result(np.maximum(self.data, floor), (self,), _bw)

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        n, src = self._node, self.shape

        def _bw(g):
            n._accumulate(g.reshape(src))

        return Tensor._result(self.data.reshape(shape), (self,), _bw)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = tuple(int(i) for i in np.argsort(axes))
        n = self._node

        def _bw(g):
            n._accumulate(g.transpose(inv))

        return Tensor._result(self.data.transpose(axes), (self,), _bw)

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
        n = self._node

        def _bw(g):
            if axes:
                n._accumulate(g.sum(axis=tuple(axes), keepdims=True), owned=True)
            else:
                n._accumulate(g)

        return Tensor._result(np.ascontiguousarray(np.broadcast_to(self.data, shape)), (self,), _bw)

    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, np.ndarray) or (isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key)):
            raise ContractError("advanced indexing is not supported; use take_rows")
        n, shape = self._node, self.shape

        def _bw(g):
            if n.grad is None:
                n.grad = np.zeros(shape)
            n.grad[key] += g

        return Tensor._result(self.data[key], (self,), _bw)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        n, shape = self._node, self.shape

        def _bw(g):
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            n._accumulate(np.broadcast_to(gg, shape).copy(), owned=True)

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), _bw)


# -- free functions ------------------------------------------------------------


def _check_matmul(a: Tensor, b: Tensor, op: str) -> bool:
    """Validate matmul operands; True when a stacked ``a`` meets a shared 2-d ``b``."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{op}: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op}: inner dimensions disagree, {a.shape} x {b.shape}")
    shared_rhs = b.ndim == 2 and a.ndim > 2
    if not shared_rhs and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"{op}: stacked axes disagree, {a.shape} x {b.shape}")
    return shared_rhs


def _matmul_forward(a: np.ndarray, b: np.ndarray, shared_rhs: bool) -> np.ndarray:
    """``a @ b``, with a shared 2-d ``b`` applied to all of ``a``'s stacked rows in one GEMM."""
    if shared_rhs:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def _matmul_backward(a: Tensor, b: Tensor, shared_rhs: bool):
    """The gradient closure of ``a @ b``: da = g @ b^T reads only ``b``, db = a^T @ g only ``a``.

    Each operand is kept only when the other one needs a gradient.
    """
    na, nb, a_shape = a._node, b._node, a.shape
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def grads(g):
        if shared_rhs:
            g2 = g.reshape(-1, g.shape[-1])
            if na is not None:
                na._accumulate((g2 @ bd.T).reshape(a_shape), owned=True)
            if nb is not None:
                nb._accumulate(ad.reshape(-1, a_shape[-1]).T @ g2, owned=True)
            return
        if na is not None:
            na._accumulate(g @ np.swapaxes(bd, -1, -2), owned=True)
        if nb is not None:
            nb._accumulate(np.swapaxes(ad, -1, -2) @ g, owned=True)

    return grads


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports plain 2-d x 2-d, stacked arguments with identical leading axes,
    and a stacked left operand against a shared 2-d right operand (the linear
    layer case).  Gradients: da = g @ b^T, db = a^T @ g, with db summed over
    any stacked axes when b is shared.
    """
    shared_rhs = _check_matmul(a, b, "matmul")
    return Tensor._result(_matmul_forward(a.data, b.data, shared_rhs), (a, b), _matmul_backward(a, b, shared_rhs))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, with the 1-d bias ``b`` added to every row of the product.

    It is bitwise equal to ``matmul(x, w)`` plus ``b`` tiled over the
    product's rows (``b.reshape(1, n).expand(...)``): the bias is added in
    place to the product, and its gradient is the row sum of the upstream
    gradient, taken before the matmul gradients, while the separate product
    array and its node are never made.
    """
    shared_rhs = _check_matmul(x, w, "linear")
    if b.ndim != 1 or w.shape[-1] != b.shape[0]:
        raise ShapeError(f"linear: bias {b.shape} does not match last axis of {x.shape[:-1] + w.shape[-1:]}")
    y = _matmul_forward(x.data, w.data, shared_rhs)
    y += b.data
    nb, width, product = b._node, b.shape[0], _matmul_backward(x, w, shared_rhs)

    def _bw(g):
        if nb is not None:
            nb._accumulate(g.reshape(-1, width).sum(axis=0), owned=True)
        product(g)

    return Tensor._result(y, (x, w, b), _bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ParameterError("concat: need at least one tensor")
    parts = [(t._node, t.shape[axis]) for t in tensors]

    def _bw(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for n, size in parts:
            if n is not None:
                index[axis] = slice(offset, offset + size)
                n._accumulate(g[tuple(index)])
            offset += size

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bw)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Exponential normalization along ``axis``, stabilized by max subtraction."""
    if not -t.ndim <= axis < t.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {t.shape}")
    y = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    n = t._node

    def _bw(g):
        dx = g * y
        inner = dx.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=dx)
        dx *= y
        n._accumulate(dx, owned=True)

    return Tensor._result(y, (t,), _bw)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """A (B, h, S, d/h) view of (B, S, d) rows."""
    b, s, d = x.shape
    return x.reshape(b, s, heads, d // heads).transpose(0, 2, 1, 3)


def _heads_to_rows(g: np.ndarray) -> np.ndarray:
    """A (B, h, S, dk) gradient as C-contiguous (B, S, d) rows."""
    b, h, s, dk = g.shape
    return np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(b, s, h * dk)


def splice_rows(live: Tensor, rows: Tensor) -> Tensor:
    """(B, S, d) ``live`` with the (H, d) ``rows`` inserted after row 0 of every sequence: (B, S + H, d).

    Backward gives ``live`` zeros plus two slice-adds and ``rows`` the
    slice's batch sum (none for a batch of one), as the getitem, concat,
    expand and reshape nodes of ``[x[:, :1] | tiled rows | x[:, 1:]]`` do,
    so both gradients keep their bits, signed zeros too.  It keeps no array.
    """
    if live.ndim != 3 or rows.ndim != 2 or rows.shape[1] != live.shape[2]:
        raise ShapeError(f"splice_rows: need (B, S, d) live rows and (H, d) rows of that width, "
                         f"got {live.shape} and {rows.shape}")
    nl, nr, live_shape, h = live._node, rows._node, live.shape, rows.shape[0]

    def _bw(g):
        if nl is not None:
            gl = np.zeros(live_shape)
            gl[:, :1] += g[:, :1]
            gl[:, 1:] += g[:, 1 + h:]
            nl._accumulate(gl, owned=True)
        if nr is not None:
            if g.shape[0] > 1:
                nr._accumulate(g[:, 1:1 + h].sum(axis=0), owned=True)
            else:  # a batch of one tiles by no broadcast, so nothing is summed
                nr._accumulate(g[0, 1:1 + h])

    spliced = np.concatenate([live.data[:, :1], np.broadcast_to(rows.data, (live_shape[0],) + rows.shape),
                              live.data[:, 1:]], axis=1)
    return Tensor._result(spliced, (live, rows), _bw)


def attention_scores(q: Tensor, k: Tensor, heads: int, mask_bias: np.ndarray | None = None) -> Tensor:
    """Scaled, masked dot-product logits of ``heads`` heads, (B, h, s, S), as one node.

    Queries ``q`` (B, s, d) meet keys ``k`` (B, S, d).  ``mask_bias`` is
    added to the scaled logits and must not broadcast them.  Forward and
    backward run the numpy operations of the nodes this op replaces
    (head-split views, ``matmul``, ``* (1 / sqrt(d / h))`` and the mask
    added as a constant operand of ``+``), so every output and gradient is
    bitwise equal to theirs.
    """
    if q.ndim != 3 or k.ndim != 3 or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"attention_scores: need (B, s, d) queries and (B, S, d) keys, got {q.shape} and {k.shape}")
    b, s, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention_scores: width {d} of {q.shape} does not split into {heads} heads")
    shape = (b, heads, s, k.shape[1])
    if mask_bias is not None:
        try:
            broadcast = np.broadcast_shapes(shape, np.shape(mask_bias))
        except ValueError:
            broadcast = None
        if broadcast != shape:
            raise ShapeError(f"attention_scores: mask_bias {np.shape(mask_bias)} would broadcast scores {shape}")
    scale = 1.0 / np.sqrt(d // heads)
    y = _split_heads(q.data, heads) @ _split_heads(k.data, heads).swapaxes(-1, -2)
    y *= scale
    if mask_bias is not None:
        y += mask_bias
    # the query gradient reads the keys, the key gradient the queries
    nq, nk = q._node, k._node
    keys = k.data if nq is not None else None
    queries = q.data if nk is not None else None

    def _bw(g):
        gs = g * scale
        if nq is not None:
            nq._accumulate(_heads_to_rows(gs @ _split_heads(keys, heads)), owned=True)
        if nk is not None:
            gk = _split_heads(queries, heads).swapaxes(-1, -2) @ gs
            nk._accumulate(_heads_to_rows(gk.swapaxes(-1, -2)), owned=True)

    return Tensor._result(y, (q, k), _bw)


def attention_context(attn: Tensor, v: Tensor) -> Tensor:
    """Attention weights (B, h, s, S) applied to values ``v`` (B, S, d), heads merged: (B, s, d).

    Forward and backward are bitwise equal to
    ``matmul(attn, heads(v)).transpose(0, 2, 1, 3).reshape(B, s, d)``.
    """
    if attn.ndim != 4 or v.ndim != 3 or attn.shape[0] != v.shape[0]:
        raise ShapeError(f"attention_context: need (B, h, s, S) weights and (B, S, d) values, "
                         f"got {attn.shape} and {v.shape}")
    b, heads, s, _ = attn.shape
    d = v.shape[2]
    if d % heads:
        raise ShapeError(f"attention_context: width {d} of {v.shape} does not split into {heads} heads")
    if attn.shape[3] != v.shape[1]:
        raise ShapeError(f"attention_context: weights {attn.shape} do not cover {v.shape[1]} value rows")
    out = (attn.data @ _split_heads(v.data, heads)).transpose(0, 2, 1, 3).reshape(b, s, d)
    # the weight gradient reads the values, the value gradient the weights
    na, nv = attn._node, v._node
    values = v.data if na is not None else None
    weights = attn.data if nv is not None else None

    def _bw(g):
        g4 = np.ascontiguousarray(g.reshape(b, s, heads, d // heads).transpose(0, 2, 1, 3))
        if na is not None:
            na._accumulate(g4 @ _split_heads(values, heads).swapaxes(-1, -2), owned=True)
        if nv is not None:
            nv._accumulate(_heads_to_rows(weights.swapaxes(-1, -2) @ g4), owned=True)

    return Tensor._result(out, (attn, v), _bw)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    z = t.data - t.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    n = t._node

    def _bw(g):
        n._accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True), owned=True)

    return Tensor._result(y, (t,), _bw)


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm: eps must be positive, got {eps}")
    d = t.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match last axis of {t.shape}")
    # np.var's own steps: the mean, then the mean square of x - mu
    xhat = t.data - t.data.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    var = y.sum(axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    nt, ng, nb = t._node, gamma._node, beta._node
    scale = gamma.data if nt is not None else None

    def _bw(g):
        if nb is not None:
            nb._accumulate(g.reshape(-1, d).sum(axis=0), owned=True)
        if ng is not None:
            ng._accumulate((g * xhat).reshape(-1, d).sum(axis=0), owned=True)
        if nt is not None:
            # inv * (gh - mean(gh) - xhat * mean(gh * xhat)) with gh = g * gamma
            gh = g * scale
            mean_gh = gh.mean(axis=-1, keepdims=True)
            gx = gh * xhat
            np.multiply(xhat, gx.mean(axis=-1, keepdims=True), out=gx)
            gh -= mean_gh
            gh -= gx
            gh *= inv
            nt._accumulate(gh, owned=True)

    return Tensor._result(y, (t, gamma, beta), _bw)


def _gelu_derivative(x: np.ndarray, x2: np.ndarray, th: np.ndarray, half: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``: the numpy operations of the backward formula, in its order.

    It reuses the forward's ``x2 = x * x`` (its buffer becomes the
    derivative), ``th = tanh(u)`` (overwritten as scratch) and
    ``half = 0.5 * (1 + th)``, the formula's last term.
    """
    du = x2
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    np.multiply(th, th, out=th)
    np.subtract(1.0, th, out=th)
    du *= th
    np.multiply(0.5, x, out=th)
    du *= th
    du += half
    return du


def gelu(t: Tensor) -> Tensor:
    """Smooth gated activation (tanh form); smoothness keeps difference checks clean.

    The closure keeps only the derivative, computed here when the output
    joins the tape: backward multiplies it by the upstream gradient, the
    last operation of the formula, so the gradient has the bits of one
    computed in backward, while the input and ``tanh(u)`` are freed.
    """
    x = t.data
    recorded = _recorded((t,))
    # x * x and 0.5 * (1 + tanh u) serve the output and the derivative; they
    # keep their own buffers only when the derivative is computed
    x2 = x * x
    th = np.multiply(x2, _GELU_A, out=None if recorded else x2)
    th += 1.0
    th *= x
    th *= _GELU_C
    np.tanh(th, out=th)
    half = 1.0 + th
    half *= 0.5
    y = np.multiply(half, x, out=None if recorded else half)
    n = t._node
    du = _gelu_derivative(x, x2, th, half) if recorded else None

    def _bw(g):
        # the graph runs this closure once, so the derivative becomes the gradient
        np.multiply(du, g, out=du)
        n._accumulate(du, owned=True)

    return Tensor._result(y, (t,), _bw)


def take_rows(t: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor by integer indices of any shape, with repeats allowed.

    The output shape is ``indices.shape + (width,)``.  Backward scatter-adds,
    so rows shared by several outputs accumulate all of their gradients; this
    is what makes batch-level deduplication of identical text rows an exact
    rewrite of the naive computation.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise InputError("take_rows: indices must be integers")
    if t.ndim != 2:
        raise ShapeError(f"take_rows: need a 2-d tensor, got {t.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= t.shape[0]):
        raise InputError(f"take_rows: index out of range [0, {t.shape[0]})")
    n, shape = t._node, t.shape

    def _bw(g):
        if n.grad is None:
            n.grad = np.zeros(shape)
        np.add.at(n.grad, indices.reshape(-1), g.reshape(-1, shape[1]))

    return Tensor._result(t.data[indices], (t,), _bw)

"""GELU, layer norm and softmax are pinned bitwise to their reference formulas.

The kernels in ``tensor.py`` compute in place, into as few buffers as they
can, but with the same per-element operations in the same order as the
plain-numpy formulas below.  Each case compares the forward output and the
input gradient for one upstream gradient, bit for bit, so a change of
operation order fails here instead of drifting the golden runs.
"""

import math
import zlib

import numpy as np
import pytest

from navprompt.tensor import Tensor, gelu, layer_norm, softmax

_A = 0.044715
_C = math.sqrt(2.0 / math.pi)


def ref_gelu(x, g):
    x2 = x * x
    u = x2 * _A
    u += 1.0
    u *= x
    u *= _C
    th = np.tanh(u)
    du = x * x
    du *= 3.0 * _A
    du += 1.0
    du *= _C
    du *= 1.0 - th * th
    du *= 0.5 * x
    du += 0.5 * (1.0 + th)
    du *= g
    return x * (0.5 * (1.0 + th)), du


def ref_layer_norm(x, gamma, beta, g, eps=1e-6):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gh = g * gamma
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
    dbeta = g.reshape(-1, d).sum(axis=0)
    return xhat * gamma + beta, dx, dgamma, dbeta


def ref_softmax(x, g, axis, temperature):
    z = x / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y, y * (g - inner) / temperature


def _run(op, arrays, g):
    """The op's output and the gradients of its inputs, for upstream gradient ``g``."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*inputs)
    data = out.data.copy()
    (out * Tensor(g)).sum().backward()
    return (data, *(t.grad for t in inputs))


SHAPES = {
    "2d": (37, 64),
    "row": (20, 1, 64),
    "seq": (20, 12, 256),
    "heads": (6, 4, 12, 12),
}


def _draw(name, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return rng, rng.normal(scale=2.0, size=shape), rng.normal(size=shape)


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), f"output {i} differs"


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_gelu_matches_reference(shape):
    _, x, g = _draw(f"gelu-{shape}", shape)
    _assert_bitwise(_run(gelu, [x], g), ref_gelu(x, g))


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_layer_norm_matches_reference(shape):
    rng, x, g = _draw(f"layer_norm-{shape}", shape)
    gamma = rng.uniform(0.5, 1.5, shape[-1])
    beta = rng.uniform(-0.5, 0.5, shape[-1])
    _assert_bitwise(_run(layer_norm, [x, gamma, beta], g), ref_layer_norm(x, gamma, beta, g))


@pytest.mark.parametrize("temperature", [1.0, 0.07, 2.5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_softmax_matches_reference(shape, temperature):
    _, x, g = _draw(f"softmax-{shape}-{temperature}", shape)
    for axis in (-1, 0):
        got = _run(lambda t: softmax(t, axis=axis, temperature=temperature), [x], g)
        _assert_bitwise(got, ref_softmax(x, g, axis, temperature))

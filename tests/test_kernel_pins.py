"""GELU, layer norm, softmax and attention are pinned bitwise to their references.

The kernels in ``tensor.py`` compute in place, into as few buffers as they
can, but with the same per-element operations in the same order as the
plain-numpy formulas below.  The two attention ops are pinned against the
composition of single-step tape ops they replace (head-split reshapes and
transposes, ``matmul``, the scale and the mask added as a constant operand
of ``+``), and ``splice_rows`` against the getitem, concat, expand and
reshape nodes that insert shared rows.  Each case compares the forward output
and the input gradients for one upstream gradient, bit for bit, so a change
of operation order fails here instead of drifting the golden runs.
"""

import math
import zlib

import numpy as np
import pytest

from navprompt.encoders import MASK_BIAS
from navprompt.tensor import (
    Tensor,
    attention_context,
    attention_scores,
    concat,
    gelu,
    layer_norm,
    matmul,
    softmax,
    splice_rows,
)

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
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"output {i} differs"


def _assert_identical(got, want):
    """Bitwise equal, and C-contiguous: a consumer's BLAS call depends on its operands' layout."""
    _assert_bitwise(got, want)
    for i, a in enumerate(got):
        assert a.flags.c_contiguous, f"output {i} has strides {a.strides}, not C-contiguous"


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_gelu_matches_reference(shape):
    _, x, g = _draw(f"gelu-{shape}", shape)
    _assert_bitwise(_run(gelu, [x], g), ref_gelu(x, g))


def test_gelu_backward_from_the_forward_derivative_keeps_signed_zeros():
    # gelu computes its derivative in the forward and backward multiplies it
    # by the upstream gradient; the bits, the sign of every zero included,
    # are those of the formula run in backward
    x = np.array([[0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0]])
    g = np.array([[-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -1.0, 1.0, -1.0, -1.0]])
    got = _run(gelu, [x], g)
    _assert_bitwise(got, ref_gelu(x, g))
    assert np.any((got[0] == 0.0) & np.signbit(got[0])) and np.any((got[1] == 0.0) & np.signbit(got[1]))


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_layer_norm_matches_reference(shape):
    rng, x, g = _draw(f"layer_norm-{shape}", shape)
    gamma = rng.uniform(0.5, 1.5, shape[-1])
    beta = rng.uniform(-0.5, 0.5, shape[-1])
    _assert_bitwise(_run(layer_norm, [x, gamma, beta], g), ref_layer_norm(x, gamma, beta, g))


@pytest.mark.parametrize("temperature", [1.0, 0.07, 2.5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_softmax_matches_reference(shape, temperature):
    # attention's softmax at 1.0, and normalize's softmax(s / temperature) at the others
    _, x, g = _draw(f"softmax-{shape}-{temperature}", shape)
    for axis in (-1, 0):
        got = _run(lambda t: softmax(t if temperature == 1.0 else t / temperature, axis=axis), [x], g)
        _assert_bitwise(got, ref_softmax(x, g, axis, temperature))


def ref_splice_rows(x, rows):
    """``[x[:, :1] | rows tiled over the batch | x[:, 1:]]``, composed of single-step tape ops."""
    b, (h, d) = x.shape[0], rows.shape
    return concat([x[:, :1], rows.reshape(1, h, d).expand((b, h, d)), x[:, 1:]], axis=1)


def ref_attention_scores(q, k, heads, mask_bias=None, shared=None):
    b, s, d = q.shape
    dk = d // heads
    if shared is not None:
        k = ref_splice_rows(k, shared)
    q4 = q.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
    k4 = k.reshape(b, k.shape[1], heads, dk).transpose(0, 2, 1, 3)
    scores = matmul(q4, k4.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dk))
    return scores if mask_bias is None else scores + Tensor(np.broadcast_to(mask_bias, scores.shape).copy())


def ref_attention_context(attn, v, shared=None):
    b, h, s, _ = attn.shape
    d = v.shape[2]
    if shared is not None:
        v = ref_splice_rows(v, shared)
    v4 = v.reshape(b, v.shape[1], h, d // h).transpose(0, 2, 1, 3)
    return matmul(attn, v4).transpose(0, 2, 1, 3).reshape(b, s, d)


# name -> (B, query rows s, live key rows S, shared rows H, width d, heads, masked)
ATTENTION = {
    "plain": (3, 5, 5, 0, 8, 4, False),
    "one_head": (2, 5, 5, 0, 8, 1, False),
    "masked": (3, 6, 6, 0, 8, 4, True),
    "shared": (3, 5, 5, 3, 8, 4, False),
    "rows_below_keys": (3, 2, 6, 0, 8, 4, True),
    "one_sequence": (1, 4, 4, 2, 8, 4, False),
    "visual_width": (10, 5, 5, 10, 64, 4, False),
    "text_last_layer": (6, 2, 11, 0, 64, 4, True),
    "single_rows": (1, 1, 1, 1, 4, 2, False),
    "one_wide_heads": (2, 3, 4, 2, 2, 2, False),
}


def _attention_inputs(name):
    b, s, s_live, rows, d, heads, masked = ATTENTION[name]
    rng = np.random.default_rng(zlib.crc32(f"attention-{name}".encode()))
    mask = None
    if masked:
        pad = rng.uniform(size=(b, s_live)) < 0.3
        pad[:, 0] = False
        mask = np.where(pad, MASK_BIAS, 0.0)[:, None, None, :]
    keys = s_live + rows
    arrays = dict(q=rng.normal(size=(b, s, d)), k=rng.normal(size=(b, s_live, d)), v=rng.normal(size=(b, s_live, d)),
                  attn=rng.uniform(size=(b, heads, s, keys)), g_scores=rng.normal(size=(b, heads, s, keys)),
                  g_context=rng.normal(size=(b, s, d)))
    if rows:
        arrays.update(k_shared=rng.normal(size=(rows, d)), v_shared=rng.normal(size=(rows, d)))
    return heads, mask, arrays


@pytest.mark.parametrize("name", ATTENTION)
def test_attention_scores_match_composition(name):
    heads, mask, a = _attention_inputs(name)
    operands = [a["q"], a["k"]] + ([a["k_shared"]] if "k_shared" in a else [])

    def fused(q, k, shared=None):
        return attention_scores(q, k if shared is None else splice_rows(k, shared), heads, mask)

    def composed(q, k, shared=None):
        return ref_attention_scores(q, k, heads, mask, shared)

    # output, then the gradients of q, k and the shared rows
    _assert_identical(_run(fused, operands, a["g_scores"]), _run(composed, operands, a["g_scores"]))


@pytest.mark.parametrize("name", ATTENTION)
def test_attention_context_matches_composition(name):
    _, _, a = _attention_inputs(name)
    operands = [a["attn"], a["v"]] + ([a["v_shared"]] if "v_shared" in a else [])

    def fused(attn, v, shared=None):
        return attention_context(attn, v if shared is None else splice_rows(v, shared))

    # output, then the gradients of attn, v and the shared rows
    _assert_identical(_run(fused, operands, a["g_context"]), _run(ref_attention_context, operands, a["g_context"]))


@pytest.mark.parametrize("name", ATTENTION)
def test_attention_chain_matches_composition(name):
    # scores, softmax and context as the encoder chains them: the softmax
    # between them reads the scores' layout and hands on its own
    heads, mask, a = _attention_inputs(name)
    shared = "k_shared" in a
    operands = [a["q"], a["k"], a["v"]] + ([a["k_shared"], a["v_shared"]] if shared else [])

    def fused(q, k, v, k_shared=None, v_shared=None):
        if shared:
            k, v = splice_rows(k, k_shared), splice_rows(v, v_shared)
        return attention_context(softmax(attention_scores(q, k, heads, mask)), v)

    def composed(q, k, v, k_shared=None, v_shared=None):
        return ref_attention_context(softmax(ref_attention_scores(q, k, heads, mask, k_shared)), v, v_shared)

    _assert_identical(_run(fused, operands, a["g_context"]), _run(composed, operands, a["g_context"]))

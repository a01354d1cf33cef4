"""Tensor forward semantics and gradient correctness against finite differences."""

import math
import re
import zlib

import numpy as np
import pytest

from navprompt.errors import ContractError, InputError, ShapeError
from navprompt.tensor import (
    Tensor,
    add_bias,
    attention_context,
    attention_scores,
    concat,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    segment_mean,
    softmax,
    splice_rows,
    take_rows,
)


def _hand_matmul(a, b):
    """Independent triple-loop oracle for the matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            out[i, j] = sum(a[i, t] * b[t, j] for t in range(k))
    return out


class TestMatmul:
    def test_identity(self):
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = matmul(Tensor(np.eye(2)), b)
        assert np.array_equal(out.data, b.data)

    def test_hand_summation(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.array_equal(out.data, _hand_matmul(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"2, 3"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (5, 7))
        b = rng.uniform(-2, 2, (7, 3))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, _hand_matmul(a, b), rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        loss = (matmul(a, b) * matmul(a, b)).sum()
        loss.backward()
        g = 2.0 * (a.data @ b.data)
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_exponential_sum_oracle(self):
        x = np.array([math.log(1.0), math.log(3.0)])
        out = softmax(Tensor(x), axis=0)
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1 - 1e-12 and out.data[1] < 1e-12

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-5, 5, (4, 6))
            out = softmax(Tensor(x / rng.uniform(0.05, 2.0)), axis=1)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out.data > 0)


class TestLayerNorm:
    def test_constant_input(self):
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_mean_variance_by_hand(self):
        # x = [0, 2]: mean 1, population variance 1 -> normalized [-1, 1]
        out = layer_norm(Tensor([0.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-15)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-9)

    def test_affine_composition(self):
        out = layer_norm(Tensor([0.0, 2.0]), Tensor(2 * np.ones(2)), Tensor(np.ones(2)), eps=1e-15)
        np.testing.assert_allclose(out.data, [-1.0, 3.0], atol=1e-9)

    def test_normalized_stats(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (5, 8))
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_square_analytic(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_unreachable_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        p = Tensor([5.0], requires_grad=True)
        (x * x).sum().backward()
        assert p.grad is None

    def test_non_scalar_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_accumulation_through_fanout(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_backward_releases_interior_nodes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        loss = y.sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        for t in (y, loss):
            assert t._node._backward is None and t._node._parents is None and t._node.grad is None
            assert t.grad is None
        np.testing.assert_array_equal(loss.data, 5.0)

    def test_second_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ContractError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_backward_through_a_consumed_subgraph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        y.sum().backward()
        with pytest.raises(ContractError, match="consumed"):
            (y * 2.0).sum().backward()

    def test_leaf_loss_backward_repeats(self):
        x = Tensor(3.0, requires_grad=True)
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, 1.0)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-2, 2, (3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(data.copy(), requires_grad=True)
            loss = (gelu(x) * gelu(x)).sum()
            loss.backward()
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])


def _numeric_grad(build, x0, eps=1e-6):
    """Central-difference oracle for a scalar-valued function of one array."""
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = build(x0)
        flat[i] = keep - eps
        lo = build(x0)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def _check_op(build, shape, seed, low=-2.0, high=2.0, tol=1e-5):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(low, high, shape)
    x = Tensor(x0.copy(), requires_grad=True)
    loss = build(x)
    loss.backward()
    numeric = _numeric_grad(lambda arr: build(Tensor(arr)).item(), x0)
    denom = np.maximum(1.0, np.maximum(np.abs(x.grad), np.abs(numeric)))
    assert np.max(np.abs(x.grad - numeric) / denom) < tol


W_FIXED = np.random.default_rng(99).uniform(-1, 1, (6, 4))
X_FIXED = np.random.default_rng(98).uniform(-1, 1, (2, 3, 6))
# attention operands: B = 2 sequences, 3 query rows, 4 live key rows, 2 shared rows, width 4 in 2 heads
_ATT = np.random.default_rng(97)
ATT_Q, ATT_K, ATT_V = (_ATT.uniform(-1, 1, shape) for shape in ((2, 3, 4), (2, 4, 4), (2, 4, 4)))
ATT_SHARED = _ATT.uniform(-1, 1, (2, 4))
ATT_WEIGHTS = _ATT.uniform(0, 1, (2, 2, 3, 6))
ATT_MASK = np.where(np.array([[0, 0, 1, 0], [0, 1, 0, 0]]) == 1, -1e9, 0.0)[:, None, None, :]
SPLICE_WEIGHTS = np.arange(1.0, 49.0).reshape(2, 6, 4) / 48.0  # one weight per spliced output entry


def _sq(t):
    return t * t


def _cube(t):
    return t * t * t


@pytest.mark.parametrize(
    "name,build,shape,kwargs",
    [
        ("add", lambda x: ((x + x * 0.5) * (x + 2.0)).sum(), (3, 4), {}),
        ("embedding", lambda x: _sq(take_rows(x, np.array([[0, 2], [3, 1], [2, 2]]))).sum(), (4, 3), {}),
        ("mul", lambda x: (x * x * x).sum(), (3, 4), {}),
        ("div", lambda x: (x / 3.0 + Tensor(np.full((2, 3), 7.0)) / (x + 5.0)).sum(), (2, 3), {}),
        ("neg", lambda x: (-x * x).sum(), (5,), {}),
        ("add_constant", lambda x: ((x + Tensor(np.arange(4.0))) * x).sum(), (4,), {}),
        ("take_rows", lambda x: (take_rows(x, np.array([0, 2, 2])) * take_rows(x, np.array([1, 1, 0]))).sum(), (3, 3), {}),
        # one entry per row, as width-1 rows of the flattened (3 * 3, 1) input
        ("take_rows_pick",
         lambda x: (take_rows(x.reshape(-1, 1), np.array([2, 3, 8])) * take_rows(x.reshape(-1, 1), np.array([2, 4, 6]))).sum(),
         (3, 3), {}),
        ("sqrt", lambda x: (x + 3.0).sqrt().sum(), (3, 3), {}),
        ("linear", lambda x: _sq(linear(x, Tensor(W_FIXED), Tensor(np.arange(4.0)))).sum(), (3, 6), {}),
        ("gelu", lambda x: (gelu(x) * x).sum(), (3, 3), {}),
        ("reshape", lambda x: (x.reshape(6, 2) * x.reshape(6, 2)).sum(), (3, 4), {}),
        ("transpose", lambda x: matmul(x.transpose(1, 0), x).sum(), (3, 4), {}),
        ("getitem", lambda x: (x[1:, :2] * x[:2, 1:]).sum(), (3, 3), {}),
        ("expand", lambda x: (x.expand((4, 5)) * np.pi).sum(), (1, 5), {}),
        ("concat", lambda x: _sq(concat([x, x * 2.0], axis=0)).sum(), (2, 3), {}),
        ("mean", lambda x: (x.mean(axis=1) * x.mean(axis=1)).sum(), (3, 4), {}),
        ("sum_axis", lambda x: _sq(x.sum(axis=0)).sum(), (3, 4), {}),
        ("softmax", lambda x: (softmax(x / 0.7, axis=1) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("log_softmax", lambda x: (log_softmax(x, axis=1) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("matmul", lambda x: _sq(matmul(x, Tensor(W_FIXED))).sum(), (5, 6), {}),
        ("matmul_stacked", lambda x: _sq(matmul(x, x.transpose(0, 2, 1))).sum(), (2, 3, 4), {}),
        ("add_bias", lambda x: _sq(add_bias(x, Tensor(np.arange(4.0)))).sum(), (3, 4), {}),
        ("layer_norm", lambda x: (layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("clip_min", lambda x: _cube((x * x).sum(axis=0).clip_min(1e-12).sqrt()).sum(), (3, 4), {}),
        # a stacked operand against a shared 2-d weight: the stacked input, a
        # non-contiguous row slice of it (as encoder_layer's last layer
        # passes), and the shared weight and bias as the checked tensor
        ("linear_stacked", lambda x: _sq(linear(x, Tensor(W_FIXED), Tensor(np.arange(4.0)))).sum(), (2, 3, 6), {}),
        ("matmul_shared", lambda x: _sq(matmul(x, Tensor(W_FIXED))).sum(), (2, 3, 6), {}),
        ("linear_row_slice", lambda x: _sq(linear(x[:, :2], Tensor(W_FIXED), Tensor(np.arange(4.0)))).sum(), (2, 3, 6), {}),
        ("linear_shared_weight", lambda w: _sq(linear(Tensor(X_FIXED), w, Tensor(np.arange(4.0)))).sum(), (6, 4), {}),
        ("linear_shared_bias", lambda b: _sq(linear(Tensor(X_FIXED), Tensor(W_FIXED), b)).sum(), (4,), {}),
        # the two attention ops, each input checked in turn, with and without
        # spliced shared rows and a mask, and self-attention through both
        ("attention_scores_q", lambda x: _sq(attention_scores(x, Tensor(ATT_K), 2)).sum(), (2, 3, 4), {}),
        ("attention_scores_k", lambda x: _sq(attention_scores(Tensor(ATT_Q), x, 2)).sum(), (2, 4, 4), {}),
        ("attention_scores_masked",
         lambda x: (softmax(attention_scores(x, Tensor(ATT_K), 2, ATT_MASK)) * ATT_WEIGHTS[..., :4]).sum(), (2, 3, 4), {}),
        ("attention_scores_shared_k",
         lambda x: _sq(attention_scores(Tensor(ATT_Q), splice_rows(x, Tensor(ATT_SHARED)), 2)).sum(), (2, 4, 4), {}),
        ("attention_scores_shared",
         lambda x: _sq(attention_scores(Tensor(ATT_Q), splice_rows(Tensor(ATT_K), x), 2)).sum(), (2, 4), {}),
        ("attention_context_weights",
         lambda x: _sq(attention_context(x, splice_rows(Tensor(ATT_V), Tensor(ATT_SHARED)))).sum(), (2, 2, 3, 6), {}),
        ("attention_context_v", lambda x: _sq(attention_context(Tensor(ATT_WEIGHTS[..., :4]), x)).sum(), (2, 4, 4), {}),
        ("attention_context_shared_v",
         lambda x: _sq(attention_context(Tensor(ATT_WEIGHTS), splice_rows(x, Tensor(ATT_SHARED)))).sum(), (2, 4, 4), {}),
        ("attention_context_shared",
         lambda x: _sq(attention_context(Tensor(ATT_WEIGHTS), splice_rows(Tensor(ATT_V), x))).sum(), (2, 4), {}),
        ("attention_self", lambda x: _sq(attention_context(softmax(attention_scores(x, x, 2, ATT_MASK)), x)).sum(),
         (2, 4, 4), {}),
        # splice_rows alone, each input checked at B = 2 and at B = 1 (no
        # batch sum), every output row weighted apart
        ("splice_rows_live", lambda x: (_sq(splice_rows(x, Tensor(ATT_SHARED))) * SPLICE_WEIGHTS).sum(), (2, 4, 4), {}),
        ("splice_rows_rows", lambda x: (_sq(splice_rows(Tensor(ATT_K), x)) * SPLICE_WEIGHTS).sum(), (2, 4), {}),
        ("splice_rows_live_one_sequence",
         lambda x: (_sq(splice_rows(x, Tensor(ATT_SHARED))) * SPLICE_WEIGHTS[:1]).sum(), (1, 4, 4), {}),
        ("splice_rows_rows_one_sequence",
         lambda x: (_sq(splice_rows(Tensor(ATT_K[:1]), x)) * SPLICE_WEIGHTS[:1]).sum(), (2, 4), {}),
    ],
)
def test_gradient_matches_finite_differences(name, build, shape, kwargs):
    # crc32, not hash(): str hashes are salted per interpreter, so a failing draw could not be replayed
    _check_op(build, shape, seed=zlib.crc32(name.encode()))


class TestAttentionRefusals:
    """Each malformed attention operand is a ShapeError that names the shapes."""

    def test_width_must_split_into_heads(self):
        with pytest.raises(ShapeError, match=r"width 4 of \(2, 3, 4\) does not split into 3 heads"):
            attention_scores(Tensor(ATT_Q), Tensor(ATT_K), 3)
        with pytest.raises(ShapeError, match=r"width 4 of \(2, 4, 4\) does not split into 3 heads"):
            attention_context(Tensor(np.ones((2, 3, 3, 4))), Tensor(ATT_V))

    def test_queries_and_keys_must_agree(self):
        for k in (np.ones((3, 4, 4)), np.ones((2, 4, 6)), np.ones((4, 4))):
            with pytest.raises(ShapeError, match=r"got \(2, 3, 4\) and " + re.escape(str(k.shape))):
                attention_scores(Tensor(ATT_Q), Tensor(k), 2)
        with pytest.raises(ShapeError, match=r"got \(2, 2, 3, 4\) and \(3, 4, 4\)"):
            attention_context(Tensor(ATT_WEIGHTS[..., :4]), Tensor(np.ones((3, 4, 4))))
        with pytest.raises(ShapeError, match=r"weights \(2, 2, 3, 6\) do not cover 4 value rows"):
            attention_context(Tensor(ATT_WEIGHTS), Tensor(ATT_V))

    def test_shared_rows_must_have_the_width(self):
        # splice_rows takes (B, S, d) live rows and (H, d) rows of the same width
        for live, rows in ((ATT_K, np.ones((2, 6))), (ATT_K, np.ones((1, 2, 4))), (ATT_K[0], ATT_SHARED)):
            with pytest.raises(ShapeError, match=r"splice_rows: need \(B, S, d\) live rows and \(H, d\) rows of that "
                               + re.escape(f"width, got {live.shape} and {rows.shape}")):
                splice_rows(Tensor(live), Tensor(rows))

    def test_mask_must_not_come_with_shared_rows_or_broadcast(self):
        # a mask over the 4 live keys does not cover the 6 keys with 2 shared rows spliced in
        with pytest.raises(ShapeError, match=re.escape("mask_bias (2, 1, 1, 4) would broadcast scores (2, 2, 3, 6)")):
            attention_scores(Tensor(ATT_Q), splice_rows(Tensor(ATT_K), Tensor(ATT_SHARED)), 2, ATT_MASK)
        for mask in (np.zeros((2, 2, 3, 4, 1)), np.zeros((3, 1, 1, 4)), np.zeros(5)):
            with pytest.raises(ShapeError, match=re.escape(f"mask_bias {mask.shape} would broadcast scores (2, 2, 3, 4)")):
                attention_scores(Tensor(ATT_Q), Tensor(ATT_K), 2, mask)


def test_layer_norm_param_gradients():
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-2, 2, (3, 4))
    g0 = rng.uniform(0.5, 1.5, 4)
    b0 = rng.uniform(-0.5, 0.5, 4)
    weights = np.arange(12.0).reshape(3, 4)

    def run(xa, ga, ba):
        return (layer_norm(Tensor(xa), Tensor(ga), Tensor(ba)) * weights).sum().item()

    g = Tensor(g0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    (layer_norm(Tensor(x0), g, b) * weights).sum().backward()
    num_g = _numeric_grad(lambda arr: run(x0, arr, b0), g0.copy())
    num_b = _numeric_grad(lambda arr: run(x0, g0, arr), b0.copy())
    np.testing.assert_allclose(g.grad, num_g, atol=1e-6)
    np.testing.assert_allclose(b.grad, num_b, atol=1e-6)


def test_take_rows_lookup_and_grad():
    # indices of any shape: the output is indices.shape + (width,)
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2], [2, 3]])
    out = take_rows(table, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    out.sum().backward()
    expected = np.zeros((4, 3))
    for i in ids.reshape(-1):
        expected[i] += 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_gather_index():
    # one entry per row, t[i, cols[i]], picked from the flattened width-1 rows
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = take_rows(t.reshape(-1, 1), np.arange(2) * 3 + np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [[2.0], [3.0]])
    (out * out).sum().backward()
    expected = np.zeros((2, 3))
    expected[0, 2] = 2 * 2.0
    expected[1, 0] = 2 * 3.0
    np.testing.assert_array_equal(t.grad, expected)


def test_take_rows_rejects_bad_indices():
    with pytest.raises(InputError):
        take_rows(Tensor(np.zeros((4, 3))), np.array([4]))
    with pytest.raises(InputError):
        take_rows(Tensor(np.zeros((4, 3))), np.array([[-1, 0]]))
    with pytest.raises(InputError):
        take_rows(Tensor(np.zeros((4, 3))), np.array([0.0, 1.0]))
    with pytest.raises(ShapeError):
        take_rows(Tensor(np.zeros((2, 4, 3))), np.array([0]))


def test_linear_matches_manual():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, (2, 5, 3))
    w = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, 4)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, atol=1e-12)


class TestLinear:
    """``linear`` is one node with the arithmetic of ``add_bias(matmul(x, w), b)``."""

    @staticmethod
    def _inputs(x_shape, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, x_shape), rng.uniform(-1, 1, (x_shape[-1], 4)), rng.uniform(-1, 1, 4)

    @staticmethod
    def _run(op, x0, w0, b0):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = op(x, w, b)
        data = out.data.copy()
        _sq(out).sum().backward()
        return data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3)], ids=["2d", "3d"])
    def test_bitwise_equal_to_matmul_then_add_bias(self, x_shape):
        inputs = self._inputs(x_shape, 31)
        fused = self._run(linear, *inputs)
        split = self._run(lambda x, w, b: add_bias(matmul(x, w), b), *inputs)
        for name, a, b in zip(("out", "x.grad", "w.grad", "b.grad"), fused, split):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3)], ids=["2d", "3d"])
    def test_gradients_match_finite_differences(self, x_shape):
        x0, w0, b0 = self._inputs(x_shape, 32)
        _, gx, gw, gb = self._run(linear, x0, w0, b0)

        def loss(x, w, b):
            return _sq(linear(Tensor(x), Tensor(w), Tensor(b))).sum().item()

        for analytic, numeric in (
            (gx, _numeric_grad(lambda a: loss(a, w0, b0), x0.copy())),
            (gw, _numeric_grad(lambda a: loss(x0, a, b0), w0.copy())),
            (gb, _numeric_grad(lambda a: loss(x0, w0, a), b0.copy())),
        ):
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_rejects_a_mismatched_bias(self):
        with pytest.raises(ShapeError, match="linear: bias"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="linear: inner"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))


def _gelu_grad_reference(x, g):
    """The GELU backward as written when the closure kept x*x and the half gate."""
    a, c = 0.044715, math.sqrt(2.0 / math.pi)
    x2 = x * x
    u = x2 * a
    u += 1.0
    u *= x
    u *= c
    th = np.tanh(u)
    half_gate = 0.5 * (1.0 + th)
    du = x2 * (3.0 * a)
    du += 1.0
    du *= c
    du *= 1.0 - th * th
    du *= 0.5 * x
    du += half_gate
    du *= g
    return x * half_gate, du


def test_gelu_is_bitwise_equal_to_the_stored_gate_formula():
    rng = np.random.default_rng(33)
    x0 = rng.normal(scale=2.0, size=(4, 5, 6))
    g0 = rng.normal(size=x0.shape)
    x = Tensor(x0.copy(), requires_grad=True)
    out = gelu(x)
    data = out.data.copy()
    (out * Tensor(g0)).sum().backward()
    ref_out, ref_grad = _gelu_grad_reference(x0, g0)
    assert np.array_equal(data, ref_out)
    assert np.array_equal(x.grad, ref_grad)


def test_elementwise_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    y = softmax(layer_norm(gelu(x), Tensor(np.ones(6)), Tensor(np.zeros(6))) / 0.1, axis=1)
    assert np.all(np.isfinite(y.data))


class TestSegmentMean:
    # two sequences of 7 rows: the first has one sub-path (M=1) over rows
    # 1..2, the second four over rows 1..6; each also pools the whole path,
    # and ranges past a sequence's sub-paths are empty pads
    BOUNDS = np.array([
        [[0, 1], [1, 3], [1, 3], [0, 0], [0, 0], [0, 0]],
        [[0, 1], [1, 7], [1, 2], [2, 4], [4, 5], [5, 7]],
    ])

    def test_matches_slice_means(self):
        x = np.random.default_rng(20).normal(size=(2, 7, 5))
        out = segment_mean(Tensor(x), self.BOUNDS).data
        for b in range(2):
            for k, (s, e) in enumerate(self.BOUNDS[b]):
                if e > s:
                    np.testing.assert_allclose(out[b, k], x[b, s:e].mean(axis=0), rtol=0, atol=1e-15)
                else:
                    assert np.all(out[b, k] == 0.0)

    def test_gradient_matches_finite_differences(self):
        weights = np.random.default_rng(21).normal(size=(2, 6, 3))
        _check_op(lambda x: _sq(segment_mean(x, self.BOUNDS) * Tensor(weights)).sum(), (2, 7, 3), seed=22)

    def test_unpooled_rows_get_exactly_zero_gradient(self):
        x = Tensor(np.random.default_rng(23).normal(size=(2, 7, 3)), requires_grad=True)
        (segment_mean(x, self.BOUNDS) * Tensor(np.random.default_rng(24).normal(size=(2, 6, 3)))).sum().backward()
        # rows 3..6 of the M=1 sequence lie in no range
        assert np.all(x.grad[0, 3:] == 0.0)
        assert np.all(x.grad[0, :3] != 0.0) and np.all(x.grad[1] != 0.0)

    def test_rejects_bad_bounds(self):
        x = Tensor(np.zeros((2, 7, 3)))
        with pytest.raises(ShapeError):
            segment_mean(x, self.BOUNDS[:1])
        for bad in ([0, 8], [-1, 2], [3, 2]):
            bounds = self.BOUNDS.copy()
            bounds[1, 2] = bad
            with pytest.raises(InputError):
                segment_mean(x, bounds)
        with pytest.raises(InputError):
            segment_mean(x, self.BOUNDS.astype(float))

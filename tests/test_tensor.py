"""Tensor forward semantics and gradient correctness against finite differences."""

import math

import numpy as np
import pytest

from navprompt.errors import ContractError, InputError, ParameterError, ShapeError
from navprompt.tensor import (
    Tensor,
    add_bias,
    concat,
    embedding,
    gather_index,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    segment_mean,
    softmax,
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
        out = softmax(Tensor([0.0, 0.0]), axis=0, temperature=1.0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_exponential_sum_oracle(self):
        x = np.array([math.log(1.0), math.log(3.0)])
        out = softmax(Tensor(x), axis=0, temperature=1.0)
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
            out = softmax(Tensor(x), axis=1, temperature=rng.uniform(0.05, 2.0))
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out.data > 0)

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            softmax(Tensor([1.0, 2.0]), axis=0, temperature=0.0)


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


def _sq(t):
    return t * t


def _cube(t):
    return t * t * t


@pytest.mark.parametrize(
    "name,build,shape,kwargs",
    [
        ("add", lambda x: ((x + x * 0.5) * (x + 2.0)).sum(), (3, 4), {}),
        ("sub", lambda x: ((x - 1.5) * (x - 1.5)).sum(), (3, 4), {}),
        ("mul", lambda x: (x * x * x).sum(), (3, 4), {}),
        ("div", lambda x: (x / 3.0 + Tensor(np.full((2, 3), 7.0)) / (x + 5.0)).sum(), (2, 3), {}),
        ("neg", lambda x: (-x * x).sum(), (5,), {}),
        ("add_const", lambda x: (x.add_const(np.arange(4.0)) * x).sum(), (4,), {}),
        ("take_rows", lambda x: (take_rows(x, np.array([0, 2, 2])) * take_rows(x, np.array([1, 1, 0]))).sum(), (3, 3), {}),
        ("gather_index", lambda x: (gather_index(x, np.array([2, 0, 2])) * gather_index(x, np.array([2, 1, 0]))).sum(), (3, 3), {}),
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
        ("softmax", lambda x: (softmax(x, axis=1, temperature=0.7) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("log_softmax", lambda x: (log_softmax(x, axis=1) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("matmul", lambda x: _sq(matmul(x, Tensor(W_FIXED))).sum(), (5, 6), {}),
        ("matmul_stacked", lambda x: _sq(matmul(x, x.transpose(0, 2, 1))).sum(), (2, 3, 4), {}),
        ("add_bias", lambda x: _sq(add_bias(x, Tensor(np.arange(4.0)))).sum(), (3, 4), {}),
        ("layer_norm", lambda x: (layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))) * np.arange(12.0).reshape(3, 4)).sum(), (3, 4), {}),
        ("clip_min", lambda x: _cube((x * x).sum(axis=0).clip_min(1e-12).sqrt()).sum(), (3, 4), {}),
    ],
)
def test_gradient_matches_finite_differences(name, build, shape, kwargs):
    _check_op(build, shape, seed=hash(name) % (2**32))


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


def test_embedding_lookup_and_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2], [2, 3]])
    out = embedding(table, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    out.sum().backward()
    expected = np.zeros((4, 3))
    for i in ids.reshape(-1):
        expected[i] += 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_rejects_out_of_range():
    from navprompt.errors import InputError

    with pytest.raises(InputError):
        embedding(Tensor(np.zeros((4, 3))), np.array([4]))


def test_gather_index():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = gather_index(t, np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [2.0, 3.0])
    (out * out).sum().backward()
    expected = np.zeros((2, 3))
    expected[0, 2] = 2 * 2.0
    expected[1, 0] = 2 * 3.0
    np.testing.assert_array_equal(t.grad, expected)


def test_linear_matches_manual():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, (2, 5, 3))
    w = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, 4)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b, atol=1e-12)


def test_elementwise_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
    y = softmax(layer_norm(gelu(x), Tensor(np.ones(6)), Tensor(np.zeros(6))), axis=1, temperature=0.1)
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

"""Similarity and contrastive-loss semantics against brute-force oracles."""

import math

import numpy as np
import pytest

from navprompt.alignment import (
    DEFAULT_LAMBDA1,
    DEFAULT_LAMBDA2,
    contrastive_loss,
    cosine_similarity,
    effective_smoothing,
    ground_truth_matrix,
    kl_divergence,
    masked_contrastive_loss,
    normalize,
    pairwise_alignment_loss,
    similarity_matrix,
    total_loss,
)
from navprompt.errors import DivergenceError, NumericError, ParameterError, ShapeError
from navprompt.optim import Optimizer, ParamStore, backward
from navprompt.tensor import Tensor, softmax

from block_loss import composed_loss


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = Tensor([1.0, 2.0, -1.0])
        sim, flag = cosine_similarity(v, Tensor(v.data.copy()))
        assert not flag
        assert math.isclose(sim.item(), 1.0, abs_tol=1e-12)

    def test_orthogonal(self):
        sim, _ = cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert sim.item() == 0.0

    def test_hand_computation(self):
        sim, _ = cosine_similarity(Tensor([1.0, 2.0, 2.0]), Tensor([2.0, 1.0, 2.0]))
        assert math.isclose(sim.item(), 8.0 / 9.0, abs_tol=1e-12)

    def test_zero_vector_degenerate(self):
        sim, flag = cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert flag
        assert sim.item() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = Tensor(rng.uniform(-3, 3, 5))
            b = Tensor(rng.uniform(-3, 3, 5))
            sim, _ = cosine_similarity(a, b)
            assert -1.0 - 1e-12 <= sim.item() <= 1.0 + 1e-12


class TestSimilarityMatrix:
    def test_unit_rows_diagonal(self):
        rx = Tensor(np.eye(3))
        s = similarity_matrix(rx, Tensor(np.eye(3)))
        np.testing.assert_allclose(np.diag(s.data), 1.0, atol=1e-12)

    def test_one_by_one(self):
        rx = Tensor([[1.0, 2.0, 2.0]])
        ry = Tensor([[2.0, 1.0, 2.0]])
        s = similarity_matrix(rx, ry)
        assert s.shape == (1, 1)
        assert math.isclose(s.data[0, 0], 8.0 / 9.0, abs_tol=1e-12)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m, n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 9))
            rx = rng.uniform(-2, 2, (m, d))
            ry = rng.uniform(-2, 2, (n, d))
            s = similarity_matrix(Tensor(rx), Tensor(ry))
            assert s.shape == (m, n)
            for a in range(m):
                for b in range(n):
                    expected, _ = cosine_similarity(Tensor(rx[a]), Tensor(ry[b]))
                    assert abs(s.data[a, b] - expected.item()) < 1e-12
            # a stack of B such pairs gives B matrices, each its own pair's
            stacked = similarity_matrix(Tensor(np.stack([rx, 2 * rx])), Tensor(np.stack([ry, -ry])))
            assert stacked.shape == (2, m, n)
            np.testing.assert_allclose(stacked.data, np.stack([s.data, -s.data]), rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        for rx, ry in [
            ((2, 3), (2, 4)),        # unequal widths
            ((2, 2, 3), (3, 2, 3)),  # unequal stacked axes
            ((2, 3), (1, 2, 3)),     # a matrix against a stack
            ((3,), (3,)),            # vectors
        ]:
            with pytest.raises(ShapeError):
                similarity_matrix(Tensor(np.zeros(rx)), Tensor(np.zeros(ry)))


class TestNormalize:
    def test_zero_matrix_rows(self):
        out = normalize(Tensor(np.zeros((2, 2))), "rows", temperature=1.0)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_rows_and_cols_sum_to_one(self):
        rng = np.random.default_rng(2)
        s = Tensor(rng.uniform(-1, 1, (4, 4)))
        np.testing.assert_allclose(normalize(s, "rows", 0.3).data.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(normalize(s, "cols", 0.3).data.sum(axis=0), 1.0, atol=1e-12)

    def test_low_temperature_approaches_argmax(self):
        rng = np.random.default_rng(3)
        s = Tensor(rng.uniform(-1, 1, (3, 3)))
        out = normalize(s, "rows", temperature=1e-3)
        for i in range(3):
            assert out.data[i, s.data[i].argmax()] > 1 - 1e-6

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            normalize(Tensor(np.zeros((2, 2))), "rows", temperature=-1.0)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            normalize(Tensor(np.zeros((2, 2))), "diag")


class TestGroundTruth:
    def test_identity_no_smoothing(self):
        np.testing.assert_array_equal(ground_truth_matrix(2, 0.0).data, np.eye(2))

    def test_smoothing_formula(self):
        np.testing.assert_allclose(ground_truth_matrix(2, 0.1).data, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_one_by_one(self):
        np.testing.assert_array_equal(ground_truth_matrix(1, 0.0).data, [[1.0]])

    def test_rows_sum_to_one(self):
        for m in (1, 2, 5, 9):
            gt = ground_truth_matrix(m, 0.04).data
            np.testing.assert_allclose(gt.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(gt > 0)

    def test_smoothing_range(self):
        with pytest.raises(ParameterError):
            ground_truth_matrix(4, 0.25)
        with pytest.raises(ParameterError):
            ground_truth_matrix(2, -0.01)

    def test_effective_smoothing_cap(self):
        assert effective_smoothing(3, 0.05) == 0.05
        assert effective_smoothing(20, 0.05) == 1.0 / 40


class TestKLDivergence:
    def test_equal_is_zero(self):
        p = Tensor(np.full((3, 3), 1.0 / 3))
        assert kl_divergence(p, Tensor(p.data.copy())).item() == 0.0

    def test_identity_vs_uniform_direct_summation(self):
        p = Tensor(np.eye(2))
        q = Tensor(np.full((2, 2), 0.5))
        value = kl_divergence(p, q).item()
        # Direct summation oracle: two diagonal terms of 1*log(1/0.5) over N^2=4.
        assert math.isclose(value, (math.log(2.0) + math.log(2.0)) / 4.0, abs_tol=1e-15)
        assert math.isclose(value, math.log(2.0) / 2.0, abs_tol=1e-15)

    def test_zero_against_zero_guard(self):
        p = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DivergenceError):
            kl_divergence(p, q)

    def test_self_divergence_random_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            p = Tensor(rng.uniform(0.01, 2.0, (m, m)))
            assert kl_divergence(p, Tensor(p.data.copy())).item() == 0.0

    def test_nonnegative_on_row_stochastic(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            p = rng.uniform(0.01, 1.0, (m, m))
            q = rng.uniform(0.01, 1.0, (m, m))
            p /= p.sum(axis=1, keepdims=True)
            q /= q.sum(axis=1, keepdims=True)
            assert kl_divergence(Tensor(p), Tensor(q)).item() >= -1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        p0 = rng.uniform(0.05, 1.0, (3, 3))
        q0 = rng.uniform(0.05, 1.0, (3, 3))
        p = Tensor(p0.copy(), requires_grad=True)
        q = Tensor(q0.copy(), requires_grad=True)
        kl_divergence(p, q).backward()
        eps = 1e-6
        for arr, tensor, which in ((p0, p, "p"), (q0, q, "q")):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = kl_divergence(Tensor(p0), Tensor(q0)).item()
                flat[i] = keep - eps
                lo = kl_divergence(Tensor(p0), Tensor(q0)).item()
                flat[i] = keep
                numeric = (hi - lo) / (2 * eps)
                assert abs(tensor.grad.reshape(-1)[i] - numeric) < 1e-6, which


class TestContrastiveLoss:
    def test_zero_at_ground_truth(self):
        gt = ground_truth_matrix(3, 0.05)
        assert contrastive_loss(Tensor(gt.data.copy()), Tensor(gt.data.copy()), gt).item() == 0.0

    def test_single_term_oracle(self):
        m = 3
        gt = ground_truth_matrix(m, 0.05)
        uniform = Tensor(np.full((m, m), 1.0 / m))
        loss = contrastive_loss(Tensor(gt.data.copy()), uniform, gt)
        expected = 0.5 * kl_divergence(uniform, gt).item()
        assert math.isclose(loss.item(), expected, abs_tol=1e-15)

    def test_symmetric_in_swap(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.05, 1.0, (3, 3))
        b = rng.uniform(0.05, 1.0, (3, 3))
        gt = ground_truth_matrix(3, 0.05)
        one = contrastive_loss(Tensor(a), Tensor(b), gt).item()
        two = contrastive_loss(Tensor(b), Tensor(a), gt).item()
        assert math.isclose(one, two, rel_tol=1e-12)

    def test_minimum_attained_at_gt(self):
        # Free row-softmax logits trained to minimize D(S_T || GT) converge to GT.
        m = 3
        gt = ground_truth_matrix(m, 0.05)
        store = ParamStore()
        store.add("z", np.zeros((m, m)))
        opt = Optimizer(store, 0.05)
        for _ in range(400):
            s_t = softmax(store["z"], axis=1)
            loss = kl_divergence(s_t, gt)
            backward(loss, store)
            opt.step()
        final = softmax(store["z"], axis=1).data
        np.testing.assert_allclose(final, gt.data, atol=1e-3)
        assert kl_divergence(softmax(store["z"], axis=1), gt).item() < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        m, d = 4, 6
        rx = rng.uniform(-1, 1, (m, d))
        ry = rng.uniform(-1, 1, (m, d))
        perm = rng.permutation(m)
        pmat = np.eye(m)[perm]
        s = similarity_matrix(Tensor(rx), Tensor(ry)).data
        s_perm = similarity_matrix(Tensor(rx[perm]), Tensor(ry[perm])).data
        np.testing.assert_allclose(s_perm, pmat @ s @ pmat.T, atol=1e-12)
        # GT is invariant under joint permutation, so the loss is unchanged.
        gt = ground_truth_matrix(m, 0.05)
        base = contrastive_loss(normalize(Tensor(s), "rows"), normalize(Tensor(s), "cols"), gt).item()
        permuted = contrastive_loss(normalize(Tensor(s_perm), "rows"), normalize(Tensor(s_perm), "cols"), gt).item()
        assert math.isclose(base, permuted, rel_tol=1e-10)


def _terms(ove, cnt, ind):
    return {"ove": Tensor(ove), "cnt": Tensor(cnt), "ind": Tensor(ind)}


class TestTotalLoss:
    def test_arithmetic(self):
        total, report = total_loss(_terms(2.0, 1.0, 0.3), lambda1=0.5, lambda2=0.1)
        assert math.isclose(total.item(), 1.4, abs_tol=1e-15)
        assert math.isclose(report["total"], 1.4, abs_tol=1e-15)

    def test_all_zero(self):
        total, _ = total_loss(_terms(0.0, 0.0, 0.0))
        assert total.item() == 0.0

    def test_default_lambdas(self):
        _, report = total_loss(_terms(1.0, 1.0, 1.0))
        assert DEFAULT_LAMBDA1 == 0.5 and DEFAULT_LAMBDA2 == 0.1
        assert math.isclose(report["total"], 0.5 + 0.1 + 1.0, abs_tol=1e-15)

    def test_composition_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lambda1, lambda2 = rng.uniform(0, 1, 2)
            total, report = total_loss(_terms(*rng.uniform(0, 2, 3)), lambda1, lambda2)
            manual = lambda1 * report["ove"] + lambda2 * report["cnt"] + report["ind"]
            assert abs(report["total"] - manual) < 1e-12
            assert report["total"] == total.item()

    def test_nan_component(self):
        with pytest.raises(NumericError):
            total_loss(_terms(1.0, 1.0, float("nan")))

    def test_sub_only_mode(self):
        total, report = total_loss({"sub": Tensor(0.7)})
        assert report == {"sub": 0.7, "total": 0.7}
        assert math.isclose(total.item(), 0.7, abs_tol=1e-15)

    def test_ablation_modes(self):
        cnt = Tensor(1.0)
        total, report = total_loss({"cnt": cnt}, lambda2=0.1)
        assert math.isclose(total.item(), 0.1, abs_tol=1e-15)
        assert report == {"cnt": 1.0, "total": 0.1}
        total, report = total_loss({"cnt": cnt, "ind": Tensor(0.5) + Tensor(0.25)})
        assert math.isclose(total.item(), 0.1 + 0.75, abs_tol=1e-15)

    def test_lambda_zero_degeneration(self):
        total, report = total_loss(_terms(3.0, 2.0, 0.75), lambda1=0.0, lambda2=0.0)
        assert total.item() == 0.75
        assert report == {"ove": 3.0, "cnt": 2.0, "ind": 0.75, "total": 0.75}

    def test_rejects_unknown_or_no_terms(self):
        with pytest.raises(ParameterError):
            total_loss({"everything": Tensor(1.0)})
        with pytest.raises(ParameterError):
            total_loss({})


def one_group_loss(text, vision, temperature=0.1, smoothing=0.05):
    """pairwise_alignment_loss of (M, d) rows, scored as the one group of a (1, M, d) stack."""
    m = text.shape[0]
    return pairwise_alignment_loss(text.reshape(1, m, -1), vision.reshape(1, m, -1), [m], temperature, smoothing)


def loss_shares(text, vision, temperature=0.1, smoothing=0.05):
    """Each row's share of one_group_loss: its S_T row plus its S_V
    column, computed on demand from the same matrices, in plain numpy."""
    s = similarity_matrix(text, vision)
    m = s.shape[0]
    s_t = normalize(s, "rows", temperature).data
    s_v = normalize(s, "cols", temperature).data
    gt = ground_truth_matrix(m, effective_smoothing(m, smoothing)).data

    def contrib(p, q):
        # 0 * log(0) = 0 convention, matching kl_divergence
        mask = p > 0
        return float(np.where(mask, p * (np.log(np.where(mask, p, 1.0)) - np.log(np.where(mask, q, 1.0))), 0.0).sum())

    shares = []
    for i in range(m):
        row, col = contrib(s_t[i], gt[i]), contrib(s_v[:, i], gt[:, i])
        shares.append(0.5 * (row + col) / (m * m))
    return shares


class TestPairwiseAlignmentLoss:
    def test_per_row_shares_sum_to_total(self):
        rng = np.random.default_rng(10)
        text = Tensor(rng.uniform(-1, 1, (4, 8)))
        vision = Tensor(rng.uniform(-1, 1, (4, 8)))
        loss = one_group_loss(text, vision)
        shares = loss_shares(text, vision)
        assert len(shares) == 4
        assert abs(loss.item() - sum(shares)) < 1e-12

    def test_gradient_flows_to_inputs(self):
        # the kernel's input gradients are those of the composition of separate ops
        rng = np.random.default_rng(11)
        t0, v0 = rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (3, 6))
        runs = []
        for loss_fn in (one_group_loss, lambda t, v: composed_loss(t, v, 0.1, 0.05)):
            text, vision = Tensor(t0.copy(), requires_grad=True), Tensor(v0.copy(), requires_grad=True)
            loss = loss_fn(text, vision)
            loss.backward()
            runs.append((loss.item(), text.grad, vision.grad))
        (loss, text_grad, vision_grad), (ref, ref_text, ref_vision) = runs
        assert np.any(text_grad != 0) and np.any(vision_grad != 0)
        assert math.isclose(loss, ref, rel_tol=1e-12)
        np.testing.assert_allclose(text_grad, ref_text, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vision_grad, ref_vision, rtol=0, atol=1e-12)


def _padded_similarity(blocks, m_max, fill):
    """Stack square blocks into (B, m_max, m_max), filling the rest with ``fill``."""
    s = np.full((len(blocks), m_max, m_max), fill)
    for b, block in enumerate(blocks):
        s[b, :len(block), :len(block)] = block
    return s


class TestMaskedContrastiveLoss:
    """One masked (B, M, M) loss equals the mean of per-block contrastive losses."""

    # a one-sub-path trajectory (M=1) next to an M=4 one, in a batch padded to 4
    def _blocks(self, seed=30):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (4, 4))]

    @staticmethod
    def _reference(blocks, temperature=0.1, smoothing=0.05):
        losses = []
        for block in blocks:
            m = len(block)
            s = Tensor(block)
            gt = ground_truth_matrix(m, effective_smoothing(m, smoothing))
            losses.append(contrastive_loss(normalize(s, "rows", temperature), normalize(s, "cols", temperature),
                                           gt).item())
        return sum(losses) / len(losses)

    def test_matches_per_block_losses_whatever_the_padding(self):
        blocks = self._blocks()
        for fill in (0.0, 0.9, -5.0):
            s = Tensor(_padded_similarity(blocks, 4, fill))
            loss = masked_contrastive_loss(s, np.array([1, 4])).item()
            assert math.isfinite(loss)
            assert math.isclose(loss, self._reference(blocks), rel_tol=1e-12)

    def test_gradient_matches_finite_differences(self):
        blocks = self._blocks(31)
        sizes = np.array([1, 4])
        s0 = _padded_similarity(blocks, 4, 0.3)
        s = Tensor(s0.copy(), requires_grad=True)
        masked_contrastive_loss(s, sizes, temperature=0.5).backward()
        eps = 1e-6
        flat = s0.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = masked_contrastive_loss(Tensor(s0), sizes, temperature=0.5).item()
            flat[i] = keep - eps
            lo = masked_contrastive_loss(Tensor(s0), sizes, temperature=0.5).item()
            flat[i] = keep
            numeric[i] = (hi - lo) / (2 * eps)
        got = s.grad.reshape(-1)
        assert np.max(np.abs(got - numeric)) / np.max(np.abs(numeric)) < 1e-6

    def test_masked_entries_get_exactly_zero_gradient(self):
        s = Tensor(_padded_similarity(self._blocks(32), 4, 0.7), requires_grad=True)
        masked_contrastive_loss(s, np.array([1, 4])).backward()
        assert np.all(s.grad[0] == 0.0)  # a 1 x 1 block's softmaxes are constant
        assert np.all(s.grad[1] != 0.0)
        assert np.all(np.isfinite(s.grad))

    def test_batched_rows_match_pairwise_loss(self):
        rng = np.random.default_rng(33)
        groups = [(rng.uniform(-1, 1, (m, 6)), rng.uniform(-1, 1, (m, 6))) for m in (1, 4, 2)]
        text = np.zeros((3, 4, 6))
        vision = np.full((3, 4, 6), 0.5)
        for b, (t, v) in enumerate(groups):
            text[b, :len(t)], vision[b, :len(v)] = t, v
        t_in, v_in = Tensor(text, requires_grad=True), Tensor(vision, requires_grad=True)
        loss = pairwise_alignment_loss(t_in, v_in, np.array([1, 4, 2]))
        loss.backward()
        expected = [one_group_loss(Tensor(t), Tensor(v)).item() for t, v in groups]
        assert math.isclose(loss.item(), sum(expected) / 3, rel_tol=1e-12)
        # padding rows, including zero rows, stay finite and get no gradient
        for b, (t, _) in enumerate(groups):
            assert np.all(t_in.grad[b, len(t):] == 0.0) and np.all(v_in.grad[b, len(t):] == 0.0)

    def test_zero_smoothing_forward_divergence_is_refused(self):
        s = Tensor(_padded_similarity(self._blocks(), 4, 0.0))
        with pytest.raises(DivergenceError):
            masked_contrastive_loss(s, np.array([1, 4]), smoothing=0.0)

    def test_rejects_bad_shapes_and_sizes(self):
        s = Tensor(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError):
            masked_contrastive_loss(Tensor(np.zeros((2, 4, 3))), np.array([1, 4]))
        with pytest.raises(ShapeError):
            masked_contrastive_loss(s, np.array([1, 4, 2]))
        with pytest.raises(ParameterError):
            masked_contrastive_loss(s, np.array([0, 4]))
        with pytest.raises(ParameterError):
            masked_contrastive_loss(s, np.array([1, 5]))
        with pytest.raises(ParameterError):
            masked_contrastive_loss(s, np.array([1, 4]), temperature=0.0)
        with pytest.raises(ParameterError):
            masked_contrastive_loss(s, np.array([1, 4]), smoothing=-0.1)

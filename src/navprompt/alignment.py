"""Similarity matrices and the symmetric KL contrastive objective.

A batch of text representations and a batch of vision representations give a
square cosine-similarity matrix S.  Softmax over rows yields S_T, over
columns S_V, and both are pulled toward a smoothed identity ground truth with
a matrix-averaged KL divergence:

    D(P || Q) = (1/N^2) * sum_ij P_ij * log(P_ij / Q_ij)

The total training objective combines the per-sub-path losses with the
overall and count terms through two balance coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NumericError, ParameterError, ShapeError
from .tensor import Tensor, matmul, softmax

NORM_FLOOR = 1e-12
DEFAULT_LAMBDA1 = 0.5
DEFAULT_LAMBDA2 = 0.1
DEFAULT_TEMPERATURE = 0.1
DEFAULT_SMOOTHING = 0.05

ABLATION_MODES = ("full", "cnt_ind_ove", "cnt_ind", "cnt", "sub_only")


def _row_normalize(r: Tensor) -> Tensor:
    norms = (r * r).sum(axis=1, keepdims=True).clip_min(NORM_FLOOR ** 2).sqrt().clip_min(NORM_FLOOR)
    return r / norms.expand(r.shape)


def cosine_similarity(rx: Tensor, ry: Tensor) -> tuple[Tensor, bool]:
    """Cosine of two vectors plus a flag marking a degenerate (zero) operand.

    Norms are floored at a tiny constant, so a zero vector yields exactly 0.
    """
    if rx.shape != ry.shape or rx.ndim != 1:
        raise ShapeError(f"cosine_similarity needs equal-length vectors, got {rx.shape} and {ry.shape}")
    nx = float(np.linalg.norm(rx.data))
    ny = float(np.linalg.norm(ry.data))
    degenerate = nx == 0.0 or ny == 0.0
    dot = (rx * ry).sum()
    denom = (rx * rx).sum().clip_min(NORM_FLOOR ** 2).sqrt().clip_min(NORM_FLOOR) * \
        (ry * ry).sum().clip_min(NORM_FLOOR ** 2).sqrt().clip_min(NORM_FLOOR)
    return dot / denom, degenerate


def similarity_matrix(rx: Tensor, ry: Tensor) -> Tensor:
    """S[a][b] = cosine similarity of rx row a and ry row b."""
    if rx.ndim != 2 or ry.ndim != 2 or rx.shape != ry.shape:
        raise ShapeError(f"similarity_matrix needs matching (M, d) batches, got {rx.shape} and {ry.shape}")
    return matmul(_row_normalize(rx), _row_normalize(ry).transpose(1, 0))


def normalize(s: Tensor, mode: str, temperature: float = DEFAULT_TEMPERATURE) -> Tensor:
    """Softmax of the similarity matrix along rows (mode="rows") or columns."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if mode == "rows":
        return softmax(s, axis=1, temperature=temperature)
    if mode == "cols":
        return softmax(s, axis=0, temperature=temperature)
    raise ParameterError(f"normalize mode must be 'rows' or 'cols', got {mode!r}")


def ground_truth_matrix(m: int, smoothing: float = DEFAULT_SMOOTHING) -> Tensor:
    """Smoothed identity: diagonal 1 - eps*(M-1), off-diagonal eps; rows sum to 1."""
    if m < 1:
        raise ParameterError(f"matrix size must be >= 1, got {m}")
    if not (0.0 <= smoothing < 1.0 / m):
        raise ParameterError(f"smoothing must lie in [0, 1/{m}), got {smoothing}")
    gt = np.full((m, m), smoothing)
    np.fill_diagonal(gt, 1.0 - smoothing * (m - 1))
    return Tensor(gt)


def effective_smoothing(m: int, smoothing: float) -> float:
    """Smoothing clamped to keep an M x M ground truth diagonally dominant.

    The configured value is only valid below 1/M; batch-level matrices can be
    larger than the per-trajectory ones, so the cap 1/(2M) keeps positives
    above negatives at every size.
    """
    return min(smoothing, 1.0 / (2 * m))


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Matrix-averaged KL divergence with the 0*log(0) = 0 convention.

    Differentiable in both arguments wherever they are positive; raises when
    some P_ij > 0 meets Q_ij == 0 (prevented upstream by GT smoothing).
    """
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape != q.shape:
        raise ShapeError(f"kl_divergence needs equal square matrices, got {p.shape} and {q.shape}")
    if np.any(p.data < 0) or np.any(q.data < 0):
        raise DivergenceError("kl_divergence needs nonnegative entries")
    support = p.data > 0
    if np.any(support & (q.data == 0)):
        raise DivergenceError("P has mass where Q is zero; the divergence is undefined")
    n2 = p.shape[0] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(support, np.log(np.where(support, p.data, 1.0)) - np.log(np.where(support, q.data, 1.0)), 0.0)
    out = Tensor._result(np.asarray((p.data * ratio).sum() / n2), (p, q))

    def _bw(g):
        gs = float(g)
        if p.requires_grad:
            p._accumulate(gs / n2 * np.where(support, ratio + 1.0, 0.0))
        if q.requires_grad:
            q._accumulate(-gs / n2 * np.where(support, p.data / np.where(support, q.data, 1.0), 0.0))

    out._backward = _bw
    return out


def contrastive_loss(s_t: Tensor, s_v: Tensor, gt: Tensor, reverse: bool = False) -> Tensor:
    """Half the sum of D(S_T || GT) and D(S_V || GT).

    ``reverse`` swaps each divergence's direction to D(GT || .), kept behind a
    flag for comparison; the default keeps the predicted matrices first.
    """
    if reverse:
        return (kl_divergence(gt, s_t) + kl_divergence(gt, s_v)) * 0.5
    return (kl_divergence(s_t, gt) + kl_divergence(s_v, gt)) * 0.5


def pairwise_alignment_loss(
    text_feats: Tensor,
    vision_feats: Tensor,
    temperature: float = DEFAULT_TEMPERATURE,
    smoothing: float = DEFAULT_SMOOTHING,
    reverse: bool = False,
) -> Tensor:
    """Full contrastive loss for a batch of matched (text, vision) rows."""
    s = similarity_matrix(text_feats, vision_feats)
    m = s.shape[0]
    s_t = normalize(s, "rows", temperature)
    s_v = normalize(s, "cols", temperature)
    gt = ground_truth_matrix(m, effective_smoothing(m, smoothing))
    return contrastive_loss(s_t, s_v, gt, reverse=reverse)


@dataclass
class LossReport:
    """Per-step loss components; ``total`` is the value actually optimized."""

    l_ind: list[float] = field(default_factory=list)
    l_ove: float | None = None
    l_cnt: float | None = None
    l_sub: float | None = None
    total: float = 0.0
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    mode: str = "full"


def total_loss(
    l_ind: list[Tensor] | None = None,
    l_ove: Tensor | None = None,
    l_cnt: Tensor | None = None,
    l_sub: Tensor | None = None,
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
    mode: str = "full",
) -> tuple[Tensor, LossReport]:
    """Combine loss components into the weighted total for the given mode.

    ``full`` takes lambda1 * overall + lambda2 * count + sum of individual
    terms; the ablation modes drop the unused components, and ``sub_only``
    replaces everything with the prompt-free sub-pair loss.
    """
    if mode == "cnt_ind_ove":
        mode = "full"
    if mode not in ABLATION_MODES:
        raise ParameterError(f"unknown ablation mode {mode!r}")

    def _value(t: Tensor, name: str) -> float:
        v = t.item()
        if not math.isfinite(v):
            raise NumericError(f"loss component {name} is not finite: {v}")
        return v

    report = LossReport(lambda1=lambda1, lambda2=lambda2, mode=mode)
    if mode == "sub_only":
        if l_sub is None:
            raise ParameterError("sub_only mode needs the sub-pair loss")
        report.l_sub = _value(l_sub, "l_sub")
        report.total = report.l_sub
        return l_sub, report

    total: Tensor | None = None
    if mode == "full":
        if l_ove is None:
            raise ParameterError("full mode needs the overall loss")
        report.l_ove = _value(l_ove, "l_ove")
        total = l_ove * lambda1
    if l_cnt is None:
        raise ParameterError(f"mode {mode!r} needs the count loss")
    report.l_cnt = _value(l_cnt, "l_cnt")
    cnt_term = l_cnt * lambda2
    total = cnt_term if total is None else total + cnt_term
    if mode in ("full", "cnt_ind"):
        if not l_ind:
            raise ParameterError(f"mode {mode!r} needs the individual losses")
        report.l_ind = [_value(t, "l_ind") for t in l_ind]
        ind_sum = l_ind[0]
        for t in l_ind[1:]:
            ind_sum = ind_sum + t
        total = total + ind_sum
    report.total = _value(total, "total")
    return total, report

"""Similarity matrices and the symmetric KL contrastive objective.

A batch of text representations and a batch of vision representations give a
square cosine-similarity matrix S.  Softmax over rows yields S_T, over
columns S_V, and both are pulled toward a smoothed identity ground truth with
a matrix-averaged KL divergence:

    D(P || Q) = (1/N^2) * sum_ij P_ij * log(P_ij / Q_ij)

The stage-2 objective adds up to three such loss terms, and this table is the
one place the ablation modes are defined (``ABLATION_TERMS``, weighted by
``TERM_WEIGHTS``).  Each mode trains its terms, added in this order:

    mode          total
    full          ove * lambda1 + cnt * lambda2 + ind
    cnt_ind_ove   ove * lambda1 + cnt * lambda2 + ind   (an alias of full)
    cnt_ind       cnt * lambda2 + ind
    cnt           cnt * lambda2
    sub_only      sub

    ind  individual prompts against sub-paths, one block per trajectory
    sub  raw sub-instructions against sub-paths, one block per trajectory
    ove  overall prompts against whole paths, one matrix per batch
    cnt  count prompts against the count token, one matrix per batch

The per-trajectory terms are scored together: a batch of B trajectories with
M_1..M_B sub-paths gives one masked (B, M_max, M_max) similarity, where
trajectory b owns the leading M_b x M_b block of its slice.  Row and column
softmax, the ground truth (each block with its own ``effective_smoothing``)
and the KL (each block averaged over its own M_b^2 entries) are computed
for all blocks at once, entries outside a block take no softmax mass and get
exactly zero gradient, and the term is the mean over the B trajectories: the
same loss as a loop of ``pairwise_alignment_loss`` over the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericError, ParameterError, ShapeError
from .tensor import Tensor, matmul, softmax

NORM_FLOOR = 1e-12
DEFAULT_LAMBDA1 = 0.5
DEFAULT_LAMBDA2 = 0.1
DEFAULT_TEMPERATURE = 0.1
DEFAULT_SMOOTHING = 0.05

# mode -> the loss terms it trains, in the order the total adds them
ABLATION_TERMS: dict[str, tuple[str, ...]] = {
    "full": ("ove", "cnt", "ind"),
    "cnt_ind_ove": ("ove", "cnt", "ind"),
    "cnt_ind": ("cnt", "ind"),
    "cnt": ("cnt",),
    "sub_only": ("sub",),
}
# term -> the coefficient that weights it; None adds the term with weight 1
TERM_WEIGHTS = {"ind": None, "sub": None, "ove": "lambda1", "cnt": "lambda2"}
ABLATION_MODES = tuple(ABLATION_TERMS)


def retrieval_terms(mode: str) -> tuple[str, ...]:
    """The (sub-path, whole-path[, count]) features that retrieval reads in ``mode``.

    Every prompted mode reads the prompted features that ``full`` trains.  The
    prompt-free mode reads the raw sub-instructions and, against the whole
    path, the raw instruction (``ins``); it has no count feature.
    """
    if mode not in ABLATION_TERMS:
        raise ParameterError(f"unknown ablation mode {mode!r}")
    return ("sub", "ins") if "sub" in ABLATION_TERMS[mode] else ("ind", "ove", "cnt")


def _row_normalize(r: Tensor) -> Tensor:
    norms = (r * r).sum(axis=-1, keepdims=True).clip_min(NORM_FLOOR ** 2).sqrt().clip_min(NORM_FLOOR)
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
    """S[a][b] = cosine similarity of rx row a and ry row b.

    Matching (M, d) rows give one (M, M) matrix; matching (B, M, d) stacks
    give B of them, (B, M, M).
    """
    if rx.ndim not in (2, 3) or rx.shape != ry.shape:
        raise ShapeError(f"similarity_matrix needs matching (M, d) or (B, M, d) rows, got {rx.shape} and {ry.shape}")
    swap = (1, 0) if rx.ndim == 2 else (0, 2, 1)
    return matmul(_row_normalize(rx), _row_normalize(ry).transpose(swap))


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


def _masked_softmax(z: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of the masked-in entries along ``axis``; the rest are exact zeros."""
    top = np.max(z, axis=axis, keepdims=True, where=mask, initial=-np.inf)
    e = np.exp(z - top, where=mask, out=np.zeros_like(z))
    total = e.sum(axis=axis, keepdims=True)
    return e / np.where(total > 0, total, 1.0)


def _kl_entries(pred: np.ndarray, gt: np.ndarray, reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The summands of D(pred || gt), or D(gt || pred), and their derivative in pred.

    Zero-mass entries of the divergence's first argument add nothing (the
    0*log(0) = 0 convention of ``kl_divergence``), which also silences every
    masked entry, where both matrices are zero.
    """
    p, q = (gt, pred) if reverse else (pred, gt)
    support = p > 0
    if np.any(support & (q == 0)):
        raise DivergenceError("P has mass where Q is zero; the divergence is undefined")
    safe_p, safe_q = np.where(support, p, 1.0), np.where(support, q, 1.0)
    ratio = np.where(support, np.log(safe_p) - np.log(safe_q), 0.0)
    grad = np.where(support, -p / safe_q, 0.0) if reverse else np.where(support, ratio + 1.0, 0.0)
    return p * ratio, grad


def masked_contrastive_loss(
    s: Tensor,
    sizes,
    temperature: float = DEFAULT_TEMPERATURE,
    smoothing: float = DEFAULT_SMOOTHING,
    reverse: bool = False,
) -> Tensor:
    """Mean contrastive loss over the leading sizes[b] x sizes[b] block of each s[b].

    ``s`` is (B, M_max, M_max).  Block b is scored as ``pairwise_alignment_loss``
    scores its similarity matrix: row and column softmax, each pulled toward
    the smoothed identity of its own size under a KL averaged over its own
    entries.  Entries outside a block take no softmax mass, add nothing to
    the loss and get exactly zero gradient, so every block, down to 1 x 1,
    scores as it would alone.
    """
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ShapeError(f"masked_contrastive_loss needs (B, M, M) similarities, got {s.shape}")
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    batch, m_max = s.shape[0], s.shape[1]
    sizes = np.asarray(sizes)
    if sizes.shape != (batch,) or not np.issubdtype(sizes.dtype, np.integer) or batch == 0:
        raise ShapeError(f"masked_contrastive_loss needs one integer size per block, got {sizes.shape} for {s.shape}")
    if sizes.min() < 1 or sizes.max() > m_max:
        raise ParameterError(f"block sizes must lie in [1, {m_max}], got {sizes.min()}..{sizes.max()}")
    live = np.arange(m_max) < sizes[:, None]
    mask = live[:, :, None] & live[:, None, :]
    gt = np.zeros(s.shape)
    for m in np.unique(sizes):
        gt[sizes == m, :m, :m] = ground_truth_matrix(int(m), effective_smoothing(int(m), smoothing)).data

    z = s.data / temperature
    p_rows = _masked_softmax(z, mask, axis=2)
    p_cols = _masked_softmax(z, mask, axis=1)
    kl_rows, d_rows = _kl_entries(p_rows, gt, reverse)
    kl_cols, d_cols = _kl_entries(p_cols, gt, reverse)
    n2 = (sizes * sizes).astype(np.float64)
    per_block = (kl_rows.reshape(batch, -1).sum(axis=1) / n2 + kl_cols.reshape(batch, -1).sum(axis=1) / n2) * 0.5
    out = Tensor._result(np.asarray(per_block.mean()), (s,))
    # d(mean over blocks of half the pair of m^2-averaged divergences)/d(entry)
    weight = (0.5 / (batch * n2))[:, None, None]

    def _bw(g):
        if s.requires_grad:
            gs = float(g) * weight
            g_rows, g_cols = gs * d_rows, gs * d_cols
            dz = p_rows * (g_rows - (g_rows * p_rows).sum(axis=2, keepdims=True))
            dz += p_cols * (g_cols - (g_cols * p_cols).sum(axis=1, keepdims=True))
            s._accumulate(dz / temperature)

    out._backward = _bw
    return out


def batched_alignment_loss(
    text_feats: Tensor,
    vision_feats: Tensor,
    sizes,
    temperature: float = DEFAULT_TEMPERATURE,
    smoothing: float = DEFAULT_SMOOTHING,
    reverse: bool = False,
) -> Tensor:
    """Mean of ``pairwise_alignment_loss`` over B padded groups of matched rows.

    ``text_feats`` and ``vision_feats`` are (B, M_max, d); group b is their
    leading sizes[b] rows, and the rows past it are padding that neither
    changes the loss nor receives gradient.
    """
    return masked_contrastive_loss(similarity_matrix(text_feats, vision_feats), sizes, temperature, smoothing, reverse)


@dataclass
class LossReport:
    """Per-step loss terms (None when the mode leaves one out) and the optimized total."""

    l_ind: float | None = None
    l_ove: float | None = None
    l_cnt: float | None = None
    l_sub: float | None = None
    total: float = 0.0


def total_loss(
    terms: dict[str, Tensor],
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> tuple[Tensor, LossReport]:
    """The weighted sum of the active loss terms, added in the given order.

    Each term is weighted as ``TERM_WEIGHTS`` says: ove by lambda1, cnt by
    lambda2, ind and sub by 1.
    """
    if not terms:
        raise ParameterError("total_loss needs at least one loss term")
    coefficients = {"lambda1": lambda1, "lambda2": lambda2}

    def _value(t: Tensor, name: str) -> float:
        v = t.item()
        if not math.isfinite(v):
            raise NumericError(f"loss component {name} is not finite: {v}")
        return v

    report = LossReport()
    total: Tensor | None = None
    for term, loss in terms.items():
        if term not in TERM_WEIGHTS:
            raise ParameterError(f"unknown loss term {term!r}")
        setattr(report, f"l_{term}", _value(loss, f"l_{term}"))
        weight = TERM_WEIGHTS[term]
        weighted = loss if weight is None else loss * coefficients[weight]
        total = weighted if total is None else total + weighted
    report.total = _value(total, "total")
    return total, report

"""Similarity matrices and the symmetric KL contrastive objective.

A batch of text representations and a batch of vision representations give a
square cosine-similarity matrix S.  Softmax over rows yields S_T, over
columns S_V, and both are pulled toward a smoothed identity ground truth GT
with a matrix-averaged KL divergence, D(S_T || GT) and D(S_V || GT):

    D(P || Q) = (1/N^2) * sum_ij P_ij * log(P_ij / Q_ij)

The stage-2 objective adds up to three such loss terms, and this table is the
one place the ablation modes are defined (``ABLATION_TERMS``, weighted by
``TERM_WEIGHTS``).  Each mode trains its terms, added in this order:

    mode          total
    full          ove * lambda1 + cnt * lambda2 + ind
    cnt_ind       cnt * lambda2 + ind
    cnt           cnt * lambda2
    sub_only      sub

    ind  individual prompts against sub-paths, one group per trajectory
    sub  raw sub-instructions against sub-paths, one group per trajectory
    ove  overall prompts against whole paths, one group per batch
    cnt  count prompts against the count token, one group per batch

Every term is one shape: (K, M_max, d) groups of text rows against visual
rows, group k owning its leading M_k rows.  The per-trajectory terms give
one group per trajectory (K = B, M_k its sub-path count); the per-batch
terms give the one group of the batch (K = 1, M_1 = B).  One call,
``pairwise_alignment_loss``, scores every term: one masked (K, M_max, M_max)
``similarity_matrix`` stack, where group k owns the leading M_k x M_k block
of its slice, is scored by one kernel, ``masked_contrastive_loss``.  Row
and column softmax, the ground truth (each block with its own
``effective_smoothing``) and the KL (each block averaged over its own M_k^2
entries) are computed for all blocks at once, entries outside a block take
no softmax mass and get exactly zero gradient, and the term is the mean
over the K groups.

``normalize``, ``kl_divergence`` and ``contrastive_loss`` compose the same
loss from separate graph ops, on the ``ground_truth_matrix`` target that the
kernel also builds; the tests keep that composition as the independent
reference for the kernel, and ``kl_divergence`` shares its entries with it.
"""

from __future__ import annotations

import math

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
    "cnt_ind": ("cnt", "ind"),
    "cnt": ("cnt",),
    "sub_only": ("sub",),
}
# term -> the coefficient that weights it; None adds the term with weight 1
TERM_WEIGHTS = {"ind": None, "sub": None, "ove": "lambda1", "cnt": "lambda2"}
ABLATION_MODES = tuple(ABLATION_TERMS)
# the modes whose cross-modal input carries the sequential prompts and the
# count token: every mode but the prompt-free one, which scores raw sub-instructions
PROMPTED_MODES = frozenset(mode for mode, terms in ABLATION_TERMS.items() if "sub" not in terms)


def retrieval_terms(mode: str) -> tuple[str, ...]:
    """The (sub-path, whole-path[, count]) features that retrieval reads in ``mode``.

    Every prompted mode reads the prompted features that ``full`` trains.  The
    prompt-free mode reads the raw sub-instructions and, against the whole
    path, the raw instruction (``ins``); it has no count feature.
    """
    if mode not in ABLATION_TERMS:
        raise ParameterError(f"unknown ablation mode {mode!r}")
    return ("ind", "ove", "cnt") if mode in PROMPTED_MODES else ("sub", "ins")


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

    (M, d) and (N, d) rows give one (M, N) matrix; (B, M, d) and (B, N, d)
    stacks give B of them, (B, M, N).
    """
    if rx.ndim not in (2, 3) or ry.ndim != rx.ndim or rx.shape[:-2] != ry.shape[:-2] or rx.shape[-1] != ry.shape[-1]:
        raise ShapeError(f"similarity_matrix needs (M, d) and (N, d) rows, or (B, M, d) and (B, N, d) stacks, "
                         f"got {rx.shape} and {ry.shape}")
    swap = (1, 0) if rx.ndim == 2 else (0, 2, 1)
    return matmul(_row_normalize(rx), _row_normalize(ry).transpose(swap))


def normalize(s: Tensor, mode: str, temperature: float = DEFAULT_TEMPERATURE) -> Tensor:
    """Softmax of the similarity matrix over ``temperature`` along rows (mode="rows") or columns.

    Training's kernel computes its own masked softmax; this op is part of the
    reference composition the kernel tests compare against.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if mode == "rows":
        return softmax(s / temperature, axis=1)
    if mode == "cols":
        return softmax(s / temperature, axis=0)
    raise ParameterError(f"normalize mode must be 'rows' or 'cols', got {mode!r}")


def ground_truth_matrix(m: int, smoothing: float = DEFAULT_SMOOTHING) -> Tensor:
    """Smoothed identity: diagonal 1 - eps*(M-1), off-diagonal eps; rows sum to 1.

    The target of every block the kernel scores, and of the reference
    composition the kernel tests compare against.
    """
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
    some P_ij > 0 meets Q_ij == 0 (prevented upstream by GT smoothing).  The
    summands and the P-derivative are the kernel's ``_kl_entries``.  Part of
    the reference composition the kernel tests compare against.
    """
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape != q.shape:
        raise ShapeError(f"kl_divergence needs equal square matrices, got {p.shape} and {q.shape}")
    if np.any(p.data < 0) or np.any(q.data < 0):
        raise DivergenceError("kl_divergence needs nonnegative entries")
    n2 = p.shape[0] ** 2
    entries, d_p = _kl_entries(p.data, q.data)
    # the gradient in p is d_p; the one in q reads both matrices
    n_p, n_q = p._node, q._node
    pd, qd = (p.data, q.data) if n_q is not None else (None, None)

    def _bw(g):
        gs = float(g)
        if n_p is not None:
            n_p._accumulate(gs / n2 * d_p)
        if n_q is not None:
            support = pd > 0
            n_q._accumulate(gs / n2 * np.where(support, -pd / np.where(support, qd, 1.0), 0.0))

    return Tensor._result(np.asarray(entries.sum() / n2), (p, q), _bw)


def contrastive_loss(s_t: Tensor, s_v: Tensor, gt: Tensor) -> Tensor:
    """Half the sum of D(S_T || GT) and D(S_V || GT), the predicted matrices first.

    Training scores this loss with ``masked_contrastive_loss``; this graph
    of ``kl_divergence`` ops is the independent reference its tests use.
    """
    return (kl_divergence(s_t, gt) + kl_divergence(s_v, gt)) * 0.5


def pairwise_alignment_loss(
    text_feats: Tensor,
    vision_feats: Tensor,
    sizes,
    temperature: float = DEFAULT_TEMPERATURE,
    smoothing: float = DEFAULT_SMOOTHING,
) -> Tensor:
    """Mean contrastive loss over K padded groups of matched rows.

    ``text_feats`` and ``vision_feats`` are (K, M_max, d); group k is their
    leading sizes[k] rows, and the rows past it are padding that neither
    changes the loss nor receives gradient.
    """
    return masked_contrastive_loss(similarity_matrix(text_feats, vision_feats), sizes, temperature, smoothing)


def _masked_softmax(z: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of the masked-in entries along ``axis``; the rest are exact zeros."""
    top = np.max(z, axis=axis, keepdims=True, where=mask, initial=-np.inf)
    e = np.exp(z - top, where=mask, out=np.zeros_like(z))
    total = e.sum(axis=axis, keepdims=True)
    return e / np.where(total > 0, total, 1.0)


def _kl_entries(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The summands of D(p || q) and their derivative in p.

    Zero-mass entries of p add nothing (the 0*log(0) = 0 convention of
    ``kl_divergence``), which also silences every masked entry, where both
    matrices are zero.
    """
    support = p > 0
    if np.any(support & (q == 0)):
        raise DivergenceError("P has mass where Q is zero; the divergence is undefined")
    safe_p, safe_q = np.where(support, p, 1.0), np.where(support, q, 1.0)
    ratio = np.where(support, np.log(safe_p) - np.log(safe_q), 0.0)
    return p * ratio, np.where(support, ratio + 1.0, 0.0)


def masked_contrastive_loss(
    s: Tensor,
    sizes,
    temperature: float = DEFAULT_TEMPERATURE,
    smoothing: float = DEFAULT_SMOOTHING,
) -> Tensor:
    """Mean contrastive loss over the leading sizes[b] x sizes[b] block of each s[b].

    ``s`` is (B, M_max, M_max).  Block b is scored as ``contrastive_loss``
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
    kl_rows, d_rows = _kl_entries(p_rows, gt)
    kl_cols, d_cols = _kl_entries(p_cols, gt)
    n2 = (sizes * sizes).astype(np.float64)
    per_block = (kl_rows.reshape(batch, -1).sum(axis=1) / n2 + kl_cols.reshape(batch, -1).sum(axis=1) / n2) * 0.5
    # d(mean over blocks of half the pair of m^2-averaged divergences)/d(entry)
    weight = (0.5 / (batch * n2))[:, None, None]
    n = s._node

    def _bw(g):
        gs = float(g) * weight
        g_rows, g_cols = gs * d_rows, gs * d_cols
        dz = p_rows * (g_rows - (g_rows * p_rows).sum(axis=2, keepdims=True))
        dz += p_cols * (g_cols - (g_cols * p_cols).sum(axis=1, keepdims=True))
        n._accumulate(dz / temperature)

    return Tensor._result(np.asarray(per_block.mean()), (s,), _bw)


def total_loss(
    terms: dict[str, Tensor],
    lambda1: float = DEFAULT_LAMBDA1,
    lambda2: float = DEFAULT_LAMBDA2,
) -> tuple[Tensor, dict[str, float]]:
    """The weighted sum of the active loss terms, added in the given order, and each one's value.

    Each term is weighted as ``TERM_WEIGHTS`` says: ove by lambda1, cnt by
    lambda2, ind and sub by 1.  The values are keyed by term name, the
    unweighted ones, plus ``"total"``; a term the mode leaves out has no key.
    """
    if not terms:
        raise ParameterError("total_loss needs at least one loss term")
    coefficients = {"lambda1": lambda1, "lambda2": lambda2}

    def _value(t: Tensor, name: str) -> float:
        v = t.item()
        if not math.isfinite(v):
            raise NumericError(f"loss component {name} is not finite: {v}")
        return v

    values = {}
    total: Tensor | None = None
    for term, loss in terms.items():
        if term not in TERM_WEIGHTS:
            raise ParameterError(f"unknown loss term {term!r}")
        values[term] = _value(loss, f"l_{term}")
        weight = TERM_WEIGHTS[term]
        weighted = loss if weight is None else loss * coefficients[weight]
        total = weighted if total is None else total + weighted
    values["total"] = _value(total, "total")
    return total, values

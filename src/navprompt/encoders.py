"""Transformer encoders over the autodiff substrate.

Three stacks share one parameter store:

* a visual encoder whose input sequence is [CLS | prompt slots | patches];
  the prompt slots of the first ``prompt_layers`` layers are replaced with
  fresh learnable vectors on the way up, so tuning the prompts steers a
  completely frozen backbone.  A replaced slot's output is never read, so a
  layer whose prompts are a bank parameter and whose prompt outputs no later
  layer reads takes them as shared key/value rows: they are normalized and
  projected once per batch, attended to by every image, and their queries,
  attention outputs and feed-forward are never computed;
* a text encoder (token + position embeddings, padding masked out of
  attention) whose pooled output is the CLS position;
* a cross-modal encoder over [count token | viewpoint features | per-ordinal
  prompt features] with segment-type embeddings.  A batch's padded input is
  one row gather from a stacked table, and one segment mean pools the count
  token, the whole path and every sub-path of every trajectory.

All layers are pre-norm multi-head self-attention plus a feed-forward block
with residual connections.  The key projection has no bias: a key bias adds
``q . bk`` to every score of a query row, a shift that softmax cancels, so it
could neither change an output nor receive a gradient.  The last layer of the
text and cross-modal stacks queries and feeds forward only the leading rows
that are read after it, while every row stays a key and value: the text
encoder pools CLS, so its last layer computes CLS and one more row (two rows
keep the BLAS rounding of a full layer), and the cross-modal encoder pools
only the count token and the viewpoint rows, so its prompt and pad rows are
never queried or fed forward there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigurationError, InputError, ParameterError, ShapeError
from .optim import ParamStore
from .prompts import PAD_ID
from .tensor import (
    Tensor,
    add_bias,
    concat,
    embedding,
    gelu,
    layer_norm,
    linear,
    matmul,
    segment_mean,
    softmax,
    take_rows,
)

INIT_STD = 0.02
MASK_BIAS = -1e9


@dataclass
class EncoderConfig:
    d: int = 64
    heads: int = 4
    ff_mult: int = 4
    visual_layers: int = 4
    text_layers: int = 2
    cross_layers: int = 2
    prompt_count: int = 10   # prompt slots per layer
    prompt_layers: int = 4   # how many leading layers get fresh prompts
    num_patches: int = 4
    feature_dim: int = 16    # raw patch / viewpoint feature width
    num_classes: int = 10
    max_text_len: int = 48
    max_viewpoints: int = 16
    max_subpaths: int = 12
    deep_prompt_mode: str = "replace"  # or "propagate": input prompts only

    def validate(self) -> None:
        if self.d % self.heads != 0:
            raise ConfigurationError(f"width {self.d} not divisible by {self.heads} heads")
        if not (0 <= self.prompt_layers <= self.visual_layers):
            raise ConfigurationError("prompt_layers must lie in [0, visual_layers]")
        if self.prompt_count < 0:
            raise ConfigurationError("prompt_count must be nonnegative")
        if self.deep_prompt_mode not in ("replace", "propagate"):
            raise ConfigurationError(f"unknown deep_prompt_mode {self.deep_prompt_mode!r}")
        for name in ("d", "heads", "ff_mult", "visual_layers", "num_classes", "max_text_len", "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")


@dataclass
class LayerState:
    """The CLS and patch blocks after the last visual layer (batched)."""

    cls: Tensor          # (B, 1, d)
    patch_block: Tensor  # (B, E, d)


@dataclass
class CrossModalOutput:
    """Pooled cross-modal features of B trajectories with up to M_max sub-paths."""

    subpaths: Tensor       # (B, M_max, d) sub-path means; zero rows past a trajectory's M
    overall: Tensor        # (B, d) mean over all of a trajectory's viewpoint outputs
    count: Tensor | None   # (B, d) the count token's output, when it is present


# -- initialization ------------------------------------------------------------


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, shape), -2.0 * std, 2.0 * std)


def _init_block(store: ParamStore, prefix: str, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    d, f = cfg.d, cfg.d * cfg.ff_mult
    store.add(f"{prefix}.ln1.g", np.ones(d))
    store.add(f"{prefix}.ln1.b", np.zeros(d))
    for name in ("q", "k", "v", "o"):
        store.add(f"{prefix}.attn.w{name}", _trunc_normal(rng, (d, d)))
        if name != "k":
            store.add(f"{prefix}.attn.b{name}", np.zeros(d))
    store.add(f"{prefix}.ln2.g", np.ones(d))
    store.add(f"{prefix}.ln2.b", np.zeros(d))
    store.add(f"{prefix}.ff.w1", _trunc_normal(rng, (d, f)))
    store.add(f"{prefix}.ff.b1", np.zeros(f))
    store.add(f"{prefix}.ff.w2", _trunc_normal(rng, (f, d)))
    store.add(f"{prefix}.ff.b2", np.zeros(d))


def init_visual_params(store: ParamStore, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    """Visual backbone, prompt bank, and the classification head."""
    cfg.validate()
    d = cfg.d
    store.add("visual.patch_embed.w", _trunc_normal(rng, (cfg.feature_dim, d)))
    store.add("visual.patch_embed.b", np.zeros(d))
    store.add("visual.cls", _trunc_normal(rng, (1, d)))
    if cfg.prompt_count > 0:
        for i in range(cfg.prompt_layers):
            store.add(f"visual.prompt.{i}", _trunc_normal(rng, (cfg.prompt_count, d)))
    for i in range(cfg.visual_layers):
        _init_block(store, f"visual.layer{i}", cfg, rng)
    store.add("head.w1", _trunc_normal(rng, (d, d)))
    store.add("head.b1", np.zeros(d))
    store.add("head.w2", _trunc_normal(rng, (d, cfg.num_classes)))
    store.add("head.b2", np.zeros(cfg.num_classes))


def init_text_params(store: ParamStore, cfg: EncoderConfig, vocab_size: int, rng: np.random.Generator) -> None:
    if vocab_size < 4:
        raise ConfigurationError("vocabulary must include the reserved ids")
    store.add("text.tok_embed", _trunc_normal(rng, (vocab_size, cfg.d)))
    store.add("text.pos_embed", _trunc_normal(rng, (cfg.max_text_len, cfg.d)))
    for i in range(cfg.text_layers):
        _init_block(store, f"text.layer{i}", cfg, rng)


def init_cross_params(store: ParamStore, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    d = cfg.d
    store.add("cross.cnt", _trunc_normal(rng, (1, d)))
    store.add("cross.seg_embed", _trunc_normal(rng, (3, d)))  # rows: count, visual, prompt
    store.add("cross.pos_visual", _trunc_normal(rng, (cfg.max_viewpoints, d)))
    store.add("cross.pos_prompt", _trunc_normal(rng, (cfg.max_subpaths, d)))
    for i in range(cfg.cross_layers):
        _init_block(store, f"cross.layer{i}", cfg, rng)
    # identity start: the similarity heads begin as a no-op instead of a
    # random rotation, which keeps what little feature diversity exists at
    # initialization visible to the contrastive objective
    store.add("proj.text.w", np.eye(d))
    store.add("proj.text.b", np.zeros(d))
    store.add("proj.visual.w", np.eye(d))
    store.add("proj.visual.b", np.zeros(d))


def param_shapes(cfg: EncoderConfig, vocab_size: int | None = None) -> dict[str, tuple[int, ...]]:
    """Expected name -> shape layout; checkpoint loading validates against it."""
    probe = ParamStore()
    rng = np.random.default_rng(0)
    init_visual_params(probe, cfg, rng)
    if vocab_size is not None:
        init_text_params(probe, cfg, vocab_size, rng)
        init_cross_params(probe, cfg, rng)
    return {name: probe[name].shape for name in probe.names()}


# -- shared layer machinery ------------------------------------------------------


def _attention(xq: Tensor, xkv: Tensor, store: ParamStore, prefix: str, cfg: EncoderConfig,
               mask_bias: np.ndarray | None, shared: Tensor | None = None) -> Tensor:
    """Rows ``xq`` (B, Sq, d) attend over keys and values from ``xkv`` (B, S, d)."""
    b, s, d = xq.shape
    h = cfg.heads
    dk = d // h
    q = linear(xq, store[f"{prefix}.wq"], store[f"{prefix}.bq"])
    k = matmul(xkv, store[f"{prefix}.wk"])
    v = linear(xkv, store[f"{prefix}.wv"], store[f"{prefix}.bv"])
    if shared is not None:
        # keys/values follow [first live row | shared rows | other live rows]
        k = _splice_rows(k, matmul(shared, store[f"{prefix}.wk"]))
        v = _splice_rows(v, linear(shared, store[f"{prefix}.wv"], store[f"{prefix}.bv"]))
    s_kv = k.shape[1]
    q = q.reshape(b, s, h, dk).transpose(0, 2, 1, 3)
    k = k.reshape(b, s_kv, h, dk).transpose(0, 2, 1, 3)
    v = v.reshape(b, s_kv, h, dk).transpose(0, 2, 1, 3)
    scores = matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dk))
    if mask_bias is not None:
        scores = scores.add_const(mask_bias)
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v).transpose(0, 2, 1, 3).reshape(b, s, d)
    return linear(ctx, store[f"{prefix}.wo"], store[f"{prefix}.bo"])


def encoder_layer(x: Tensor, store: ParamStore, prefix: str, cfg: EncoderConfig,
                  mask_bias: np.ndarray | None = None, shared: Tensor | None = None,
                  rows: int | None = None) -> Tensor:
    """One pre-norm block over the live rows ``x`` (B, S, d).

    Every live row is a key and value, but only the leading ``rows`` rows
    (all of them by default) are queried, projected and fed forward, so the
    output is (B, rows, d).  ``shared`` (H, d) rows, the same for every
    sequence, join the keys and values right after position 0 but produce no
    output.  ``mask_bias`` covers the live key positions only, so it is not
    combined with ``shared``.
    """
    g1, b1 = store[f"{prefix}.ln1.g"], store[f"{prefix}.ln1.b"]
    h = layer_norm(x, g1, b1)
    kv = layer_norm(shared, g1, b1) if shared is not None else None
    q = h
    if rows is not None and rows < x.shape[1]:
        x, q = x[:, :rows], h[:, :rows]
    x = x + _attention(q, h, store, f"{prefix}.attn", cfg, mask_bias, kv)
    h = layer_norm(x, store[f"{prefix}.ln2.g"], store[f"{prefix}.ln2.b"])
    h = linear(gelu(linear(h, store[f"{prefix}.ff.w1"], store[f"{prefix}.ff.b1"])),
               store[f"{prefix}.ff.w2"], store[f"{prefix}.ff.b2"])
    return x + h


def _tile_param(t: Tensor, batch: int) -> Tensor:
    rows, d = t.shape
    return t.reshape(1, rows, d).expand((batch, rows, d))


def _splice_rows(x: Tensor, rows: Tensor) -> Tensor:
    """Insert 2-d ``rows``, tiled over the batch, after position 0 of ``x``."""
    return concat([x[:, :1], _tile_param(rows, x.shape[0]), x[:, 1:]], axis=1)


# -- visual encoder ---------------------------------------------------------------


def visual_encode(
    patches: Tensor | np.ndarray,
    store: ParamStore,
    cfg: EncoderConfig,
) -> LayerState:
    """Encode patch features (B, E, feature_dim) through the prompted backbone.

    A layer whose prompt input is a bank parameter (layer 0, or any banked
    layer in ``replace`` mode) and whose prompt outputs no later layer reads
    (the next layer replaces them, or it is the last layer) takes its prompts
    as shared key/value rows.  Otherwise the prompts join the live sequence
    and are carried upward, as in ``propagate`` mode or at the last banked
    layer below an unprompted one.
    """
    if not isinstance(patches, Tensor):
        patches = Tensor(patches)
    if patches.ndim != 3 or patches.shape[-1] != cfg.feature_dim:
        raise ShapeError(f"patches must be (B, E, {cfg.feature_dim}), got {patches.shape}")
    b = patches.shape[0]
    banked = cfg.prompt_layers if cfg.prompt_count > 0 else 0
    replace = cfg.deep_prompt_mode == "replace"

    emb = linear(patches, store["visual.patch_embed.w"], store["visual.patch_embed.b"])
    x = concat([_tile_param(store["visual.cls"], b), emb], axis=1)
    carried = 0  # prompt rows held in the live sequence after CLS
    for i in range(cfg.visual_layers):
        shared = None
        if i < banked and (i == 0 or replace):
            prompt = store[f"visual.prompt.{i}"]
            if i == cfg.visual_layers - 1 or (replace and i + 1 < banked):
                shared = prompt
            else:
                x = _splice_rows(x, prompt)
                carried = cfg.prompt_count
        x = encoder_layer(x, store, f"visual.layer{i}", cfg, shared=shared)
    return LayerState(cls=x[:, :1], patch_block=x[:, 1 + carried:])


def classify_logits(cls: Tensor, store: ParamStore) -> Tensor:
    if "head.w1" not in store:
        raise ConfigurationError("classification head parameters are missing")
    if cls.ndim != 2:
        raise ShapeError(f"classify expects (B, d) CLS features, got {cls.shape}")
    hidden = gelu(linear(cls, store["head.w1"], store["head.b1"]))
    return linear(hidden, store["head.w2"], store["head.b2"])


# -- text encoder ------------------------------------------------------------------


def text_encode(token_ids, store: ParamStore, cfg: EncoderConfig) -> Tensor:
    """Encode padded id rows (B, L) into pooled features (B, d).

    The pooled vector is the leading (CLS) position, so the last layer
    queries and feeds forward only the leading rows; padding positions are
    excluded from attention via a large negative score bias.
    """
    ids = np.asarray(token_ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"token ids must be (B, L), got {ids.shape}")
    b, length = ids.shape
    if length > cfg.max_text_len:
        raise InputError(f"sequence length {length} exceeds max_text_len {cfg.max_text_len}")
    vocab_size = store["text.tok_embed"].shape[0]
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise InputError(f"token id out of range [0, {vocab_size})")

    x = embedding(store["text.tok_embed"], ids)
    x = x + _tile_param(store["text.pos_embed"][:length], b)
    mask = np.where(ids == PAD_ID, MASK_BIAS, 0.0)[:, None, None, :]
    # The last layer computes CLS and one more row: numpy sends a one-row
    # product through BLAS gemv, which rounds differently from the gemm that
    # computes the same row inside a longer block, so with two rows the
    # pooled features stay bitwise equal to those of a full last layer.
    last = cfg.text_layers - 1
    for i in range(cfg.text_layers):
        x = encoder_layer(x, store, f"text.layer{i}", cfg, mask_bias=mask, rows=2 if i == last else None)
    return x[:, 0]


# -- cross-modal encoder --------------------------------------------------------------


def cross_modal_encode_batch(
    viewpoints: Tensor,
    prompts: Tensor | None,
    boundaries: Sequence[Sequence[tuple[int, int]]],
    store: ParamStore,
    cfg: EncoderConfig,
    include_count: bool = True,
) -> CrossModalOutput:
    """Fuse each trajectory's viewpoint features with its per-ordinal prompt features.

    ``viewpoints`` (sum T_b, d) and ``prompts`` (sum M_b, d) stack the rows of
    every trajectory in batch order; trajectory b has the T_b viewpoints and
    M_b sub-paths that its ``boundaries`` partition describes.  The padded
    input is one row gather from a table of the count row, every viewpoint
    row, every prompt row and one zero pad row.  Pad rows are masked out of
    attention, and one segment mean pools the count token, the whole path and
    each sub-path from the outputs.  They read only the count token and the
    viewpoint rows, so the last layer computes the leading
    ``offset + max(T_b)`` rows alone.
    """
    batch = len(boundaries)
    t_lens = np.array([bounds[-1][1] for bounds in boundaries])
    m_lens = np.array([len(bounds) for bounds in boundaries])
    if viewpoints.ndim != 2 or viewpoints.shape[0] != t_lens.sum():
        raise AlignmentError(f"{viewpoints.shape[0]} viewpoint rows for paths of {t_lens.sum()} viewpoints")
    if prompts is not None and (prompts.ndim != 2 or prompts.shape[0] != m_lens.sum()):
        raise AlignmentError(f"{prompts.shape[0]} prompt rows for {m_lens.sum()} sub-paths")
    if t_lens.max() > cfg.max_viewpoints:
        raise ConfigurationError(f"trajectory length {t_lens.max()} exceeds max_viewpoints {cfg.max_viewpoints}")
    if m_lens.max() > cfg.max_subpaths:
        raise ConfigurationError(f"{m_lens.max()} sub-paths exceed max_subpaths {cfg.max_subpaths}")

    def positions(lengths: np.ndarray) -> np.ndarray:
        return np.concatenate([np.arange(n) for n in lengths])

    # one table of rows [count | viewpoints | prompts | pad]; sequence b
    # gathers [count | its viewpoints | its prompts] and pad rows after them
    seg = store["cross.seg_embed"]
    offset = 1 if include_count else 0
    parts = [add_bias(store["cross.cnt"], seg[0])] if include_count else []
    parts.append(add_bias(viewpoints + take_rows(store["cross.pos_visual"], positions(t_lens)), seg[1]))
    p_lens = np.zeros(batch, dtype=int)
    if prompts is not None:
        parts.append(add_bias(prompts + take_rows(store["cross.pos_prompt"], positions(m_lens)), seg[2]))
        p_lens = m_lens
    parts.append(Tensor(np.zeros((1, cfg.d))))
    table = concat(parts, axis=0)

    vp_ends = offset + np.cumsum(t_lens)
    pf_ends = vp_ends[-1] + np.cumsum(p_lens)
    rows = [np.concatenate([np.zeros(offset, dtype=int), np.arange(ve - t, ve), np.arange(pe - m, pe)])
            for t, ve, m, pe in zip(t_lens, vp_ends, p_lens, pf_ends)]
    lengths = np.array([len(r) for r in rows])
    s_max = int(lengths.max())
    index = np.stack([np.pad(r, (0, s_max - len(r)), constant_values=table.shape[0] - 1) for r in rows])
    x = take_rows(table, index.reshape(-1)).reshape(batch, s_max, cfg.d)

    mask = np.where(np.arange(s_max) < lengths[:, None], 0.0, MASK_BIAS)[:, None, None, :]
    read = offset + int(t_lens.max())
    last = cfg.cross_layers - 1
    for i in range(cfg.cross_layers):
        x = encoder_layer(x, store, f"cross.layer{i}", cfg, mask_bias=mask, rows=read if i == last else None)

    # pooled rows: [count | whole path | sub-paths, padded with empty ranges]
    bounds = np.zeros((batch, offset + 1 + int(m_lens.max()), 2), dtype=int)
    if include_count:
        bounds[:, 0] = (0, 1)
    bounds[:, offset] = np.stack([np.full(batch, offset), offset + t_lens], axis=1)
    for b, chunks in enumerate(boundaries):
        bounds[b, offset + 1:offset + 1 + len(chunks)] = np.asarray(chunks) + offset
    pooled = segment_mean(x, bounds)
    return CrossModalOutput(
        subpaths=pooled[:, offset + 1:],
        overall=pooled[:, offset],
        count=pooled[:, 0] if include_count else None,
    )


# -- stage partitions ---------------------------------------------------------------


def trainable_parameters(stage: str, store: ParamStore, joint_prompt_tuning: bool = False) -> set[str]:
    """Which names train in each stage; everything else is frozen.

    Stage 1 updates only the prompt bank and the classification head.  Stage 2
    keeps the visual backbone and (by default) the prompts fixed, and trains
    the text encoder, the cross-modal encoder with its count token, and the
    similarity projections.
    """
    names = store.names()
    if stage == "stage1":
        return {n for n in names if n.startswith("visual.prompt.") or n.startswith("head.")}
    if stage == "stage2":
        trainable = {n for n in names if n.startswith(("text.", "cross.", "proj."))}
        if joint_prompt_tuning:
            trainable |= {n for n in names if n.startswith("visual.prompt.")}
        return trainable
    raise ParameterError(f"unknown stage {stage!r}")


def apply_stage_freeze(store: ParamStore, stage: str, joint_prompt_tuning: bool = False) -> set[str]:
    trainable = trainable_parameters(stage, store, joint_prompt_tuning)
    store.set_frozen(set(store.names()) - trainable)
    return trainable

"""Transformer encoders over the autodiff substrate.

Three stacks share one parameter store:

* a visual encoder whose input sequence is [CLS | prompt slots | patches];
  the prompt slots of the first ``prompt_layers`` layers are replaced with
  fresh learnable vectors on the way up (deep prompts; ``prompt_layers = 1``
  is shallow prompting), so tuning the prompts steers a completely frozen
  backbone.  A replaced slot's output is never read, so a layer whose prompt
  outputs no later layer reads takes its prompts as shared key/value rows:
  they are normalized and projected once per batch, attended to by every
  image, and their queries, attention outputs and feed-forward are never
  computed;
* a text encoder (token + position embeddings, padding masked out of
  attention) whose pooled output is the CLS position;
* a cross-modal encoder over [count token | viewpoint features | per-ordinal
  prompt features] with segment-type embeddings.  A batch's padded input is
  one row gather from a stacked table, and one segment mean (a 0/1 membership
  product) pools the count token, the whole path and every sub-path.

All layers are pre-norm multi-head self-attention plus a feed-forward block
with residual connections.  The key projection has no bias: a key bias adds
``q . bk`` to every score of a query row, a shift that softmax cancels, so it
could neither change an output nor receive a gradient.  The last layer of
each stack can query and feed forward only the leading rows that are read
after it, while every row stays a key and value: the text encoder pools CLS,
so its last layer computes CLS and one more row (two rows keep the BLAS
rounding of a full layer); the cross-modal encoder pools only the count token
and the viewpoint rows, so its prompt and pad rows are never queried or fed
forward there; and a visual caller that reads only CLS (stage-1 training and
its accuracy passes) has the last visual layer compute CLS alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigurationError, ContractError, InputError, ParameterError, ShapeError
from .optim import ParamStore
from .prompts import PAD_ID
from .tensor import (
    Tensor,
    attention_context,
    attention_scores,
    concat,
    gelu,
    layer_norm,
    linear,
    matmul,
    softmax,
    splice_rows,
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

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigurationError(f"{f.name} expects {type(f.default).__name__}, got {value!r}")
        for name in ("d", "heads", "ff_mult", "visual_layers", "text_layers", "cross_layers", "num_patches",
                     "num_classes", "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_text_len < 3:  # [cls], one word and [sep]
            raise ConfigurationError(f"max_text_len must be at least 3, got {self.max_text_len}")
        if self.d % self.heads != 0:
            raise ConfigurationError(f"width {self.d} not divisible by {self.heads} heads")
        if not (0 <= self.prompt_layers <= self.visual_layers):
            raise ConfigurationError("prompt_layers must lie in [0, visual_layers]")
        if self.prompt_count < 0:
            raise ConfigurationError("prompt_count must be nonnegative")


class LayerState:
    """The CLS and patch blocks after the last visual layer (batched).

    A CLS-only encoding never computes the last layer's patch rows, so its
    state has none: reading ``patch_block`` raises ``ContractError``.
    """

    def __init__(self, cls: Tensor, patch_block: Tensor | None):
        self.cls = cls                   # (B, 1, d)
        self._patch_block = patch_block  # (B, E, d), or None when CLS-only

    @property
    def patch_block(self) -> Tensor:
        if self._patch_block is None:
            raise ContractError("a CLS-only visual state has no patch rows")
        return self._patch_block


@dataclass
class CrossModalOutput:
    """Pooled cross-modal features of B trajectories with up to M_max sub-paths."""

    subpaths: Tensor       # (B, M_max, d) sub-path means; zero rows past a trajectory's M
    overall: Tensor        # (B, d) mean over all of a trajectory's viewpoint outputs
    count: Tensor | None   # (B, d) the count token's output, when it is present


# -- initialization ------------------------------------------------------------


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    return np.clip(rng.normal(0.0, std, shape), -2.0 * std, 2.0 * std)


# A layout lists (name, shape, fill) in initialization order.  Only "normal"
# (a truncated normal) draws from the rng, so a layout filled in order is the
# random stream of the stack, and its shapes are known without allocating.
_FILLS = {"zeros": np.zeros, "ones": np.ones, "eye": lambda shape: np.eye(shape[0])}


def _fill(store: ParamStore, layout: list[tuple[str, tuple[int, ...], str]], rng: np.random.Generator) -> None:
    for name, shape, fill in layout:
        store.add(name, _trunc_normal(rng, shape) if fill == "normal" else _FILLS[fill](shape))


def _block_layout(prefix: str, cfg: EncoderConfig) -> list:
    d, f = cfg.d, cfg.d * cfg.ff_mult
    layout = [(f"{prefix}.ln1.g", (d,), "ones"), (f"{prefix}.ln1.b", (d,), "zeros")]
    for name in ("q", "k", "v", "o"):
        layout.append((f"{prefix}.attn.w{name}", (d, d), "normal"))
        if name != "k":
            layout.append((f"{prefix}.attn.b{name}", (d,), "zeros"))
    return layout + [
        (f"{prefix}.ln2.g", (d,), "ones"),
        (f"{prefix}.ln2.b", (d,), "zeros"),
        (f"{prefix}.ff.w1", (d, f), "normal"),
        (f"{prefix}.ff.b1", (f,), "zeros"),
        (f"{prefix}.ff.w2", (f, d), "normal"),
        (f"{prefix}.ff.b2", (d,), "zeros"),
    ]


def _visual_layout(cfg: EncoderConfig) -> list:
    cfg.validate()
    d = cfg.d
    layout = [
        ("visual.patch_embed.w", (cfg.feature_dim, d), "normal"),
        ("visual.patch_embed.b", (d,), "zeros"),
        ("visual.cls", (1, d), "normal"),
    ]
    if cfg.prompt_count > 0:
        layout += [(f"visual.prompt.{i}", (cfg.prompt_count, d), "normal") for i in range(cfg.prompt_layers)]
    for i in range(cfg.visual_layers):
        layout += _block_layout(f"visual.layer{i}", cfg)
    return layout + [
        ("head.w1", (d, d), "normal"),
        ("head.b1", (d,), "zeros"),
        ("head.w2", (d, cfg.num_classes), "normal"),
        ("head.b2", (cfg.num_classes,), "zeros"),
    ]


def _text_layout(cfg: EncoderConfig, vocab_size: int) -> list:
    if vocab_size < 4:
        raise ConfigurationError("vocabulary must include the reserved ids")
    layout = [("text.tok_embed", (vocab_size, cfg.d), "normal"), ("text.pos_embed", (cfg.max_text_len, cfg.d), "normal")]
    for i in range(cfg.text_layers):
        layout += _block_layout(f"text.layer{i}", cfg)
    return layout


def _cross_layout(cfg: EncoderConfig) -> list:
    d = cfg.d
    layout = [
        ("cross.cnt", (1, d), "normal"),
        ("cross.seg_embed", (3, d), "normal"),  # rows: count, visual, prompt
        ("cross.pos_visual", (cfg.max_viewpoints, d), "normal"),
        ("cross.pos_prompt", (cfg.max_subpaths, d), "normal"),
    ]
    for i in range(cfg.cross_layers):
        layout += _block_layout(f"cross.layer{i}", cfg)
    # identity start: the similarity heads begin as a no-op instead of a
    # random rotation, which keeps what little feature diversity exists at
    # initialization visible to the contrastive objective
    return layout + [
        ("proj.text.w", (d, d), "eye"),
        ("proj.text.b", (d,), "zeros"),
        ("proj.visual.w", (d, d), "eye"),
        ("proj.visual.b", (d,), "zeros"),
    ]


def init_visual_params(store: ParamStore, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    """Visual backbone, prompt bank, and the classification head."""
    _fill(store, _visual_layout(cfg), rng)


def init_text_params(store: ParamStore, cfg: EncoderConfig, vocab_size: int, rng: np.random.Generator) -> None:
    _fill(store, _text_layout(cfg, vocab_size), rng)


def init_cross_params(store: ParamStore, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    _fill(store, _cross_layout(cfg), rng)


def param_shapes(cfg: EncoderConfig, vocab_size: int | None = None) -> dict[str, tuple[int, ...]]:
    """Expected name -> shape layout; checkpoint loading validates against it."""
    layout = _visual_layout(cfg)
    if vocab_size is not None:
        layout += _text_layout(cfg, vocab_size) + _cross_layout(cfg)
    return {name: shape for name, shape, _ in layout}


# -- shared layer machinery ------------------------------------------------------


def _attention(xq: Tensor, xkv: Tensor, store: ParamStore, prefix: str, cfg: EncoderConfig,
               mask_bias: np.ndarray | None, shared: Tensor | None = None) -> Tensor:
    """Rows ``xq`` (B, Sq, d) attend over keys and values from ``xkv`` (B, S, d).

    Between the projections and ``wo`` the tape holds three nodes: the
    scores, their softmax and the context.  ``shared`` rows are projected
    once, and ``splice_rows`` inserts the projected key and value rows after
    key and value 0 of every sequence.
    """
    q = linear(xq, store[f"{prefix}.wq"], store[f"{prefix}.bq"])
    k = matmul(xkv, store[f"{prefix}.wk"])
    v = linear(xkv, store[f"{prefix}.wv"], store[f"{prefix}.bv"])
    if shared is not None:
        k = splice_rows(k, matmul(shared, store[f"{prefix}.wk"]))
        v = splice_rows(v, linear(shared, store[f"{prefix}.wv"], store[f"{prefix}.bv"]))
    attn = softmax(attention_scores(q, k, cfg.heads, mask_bias), axis=-1)
    return linear(attention_context(attn, v), store[f"{prefix}.wo"], store[f"{prefix}.bo"])


def encoder_layer(x: Tensor, store: ParamStore, prefix: str, cfg: EncoderConfig,
                  mask_bias: np.ndarray | None = None, shared: Tensor | None = None,
                  rows: int | None = None) -> Tensor:
    """One pre-norm block over the live rows ``x`` (B, S, d).

    Every live row is a key and value, but only the leading ``rows`` rows
    (all of them by default) are queried, projected and fed forward, so the
    output is (B, rows, d).  ``shared`` (H, d) rows, the same for every
    sequence, join the keys and values right after position 0 through
    ``splice_rows``, a node that keeps no array, but produce no output.
    ``mask_bias`` covers the live keys only, so attention refuses it with ``shared``.
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


# -- visual encoder ---------------------------------------------------------------


def visual_encode(
    patches: Tensor | np.ndarray,
    store: ParamStore,
    cfg: EncoderConfig,
    *,
    cls_only: bool = False,
) -> LayerState:
    """Encode patch features (B, E, feature_dim) through the prompted backbone.

    Each banked layer ``i`` reads ``visual.prompt.{i}`` in its prompt slots.
    When the next layer is banked too, or this is the last layer, no later
    layer reads this layer's prompt outputs, so the prompts are shared
    key/value rows.  The last banked layer below an unprompted one splices
    its prompts into the live sequence, and they are carried upward.

    A caller that reads only CLS passes ``cls_only``: the last layer then
    queries, projects and feeds forward the CLS row alone, every live and
    shared row still a key and value, and the state has no patch rows.  The
    CLS output is the full layer's up to BLAS rounding, since the products
    run over fewer rows.
    """
    if not isinstance(patches, Tensor):
        patches = Tensor(patches)
    if patches.ndim != 3 or patches.shape[-1] != cfg.feature_dim:
        raise ShapeError(f"patches must be (B, E, {cfg.feature_dim}), got {patches.shape}")
    b = patches.shape[0]
    banked = cfg.prompt_layers if cfg.prompt_count > 0 else 0

    emb = linear(patches, store["visual.patch_embed.w"], store["visual.patch_embed.b"])
    x = concat([_tile_param(store["visual.cls"], b), emb], axis=1)
    carried = 0  # prompt rows held in the live sequence after CLS
    last = cfg.visual_layers - 1
    for i in range(cfg.visual_layers):
        shared = None
        if i < banked:
            prompt = store[f"visual.prompt.{i}"]
            if i == last or i + 1 < banked:
                shared = prompt
            else:
                x = splice_rows(x, prompt)
                carried = cfg.prompt_count
        x = encoder_layer(x, store, f"visual.layer{i}", cfg, shared=shared, rows=1 if cls_only and i == last else None)
    return LayerState(x[:, :1], None if cls_only else x[:, 1 + carried:])


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
    if ids.ndim != 2:
        raise ShapeError(f"token ids must be (B, L), got {ids.shape}")
    b, length = ids.shape
    if length > cfg.max_text_len:
        raise InputError(f"sequence length {length} exceeds max_text_len {cfg.max_text_len}")
    vocab_size = store["text.tok_embed"].shape[0]
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise InputError(f"token id out of range [0, {vocab_size})")

    x = take_rows(store["text.tok_embed"], ids)
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


def _segment_mean(x: Tensor, bounds: np.ndarray) -> Tensor:
    """Means of the half-open row ranges ``bounds`` (B, K, 2) of rows ``x`` (B, S, d): (B, K, d).

    A product with the (B, K, S) 0/1 range membership, scaled by 1/count; an
    empty range gives a zero row and passes no gradient.
    """
    start, end = bounds[..., :1], bounds[..., 1:]
    rows = np.arange(x.shape[1])
    member = ((rows >= start) & (rows < end)).astype(np.float64)
    count = end - start
    scale = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)
    return matmul(Tensor(member), x) * Tensor(np.broadcast_to(scale, member.shape[:2] + x.shape[2:]))


def cross_modal_encode_batch(
    viewpoints: Tensor,
    prompts: Tensor | None,
    boundaries: Sequence[Sequence[tuple[int, int]]],
    store: ParamStore,
    cfg: EncoderConfig,
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
    ``offset + max(T_b)`` rows alone.  Without ``prompts`` (the prompt-free
    mode) the count row is left out too, and the output has no count.
    """
    batch = len(boundaries)
    t_lens = np.array([bounds[-1][1] for bounds in boundaries])
    m_lens = np.array([len(bounds) for bounds in boundaries])
    if viewpoints.ndim != 2 or viewpoints.shape[0] != t_lens.sum():
        raise AlignmentError(f"{viewpoints.shape[0]} viewpoint rows for paths of {t_lens.sum()} viewpoints")
    prompted = prompts is not None
    if prompted and (prompts.ndim != 2 or prompts.shape[0] != m_lens.sum()):
        raise AlignmentError(f"{prompts.shape[0]} prompt rows for {m_lens.sum()} sub-paths")
    if t_lens.max() > cfg.max_viewpoints:
        raise ConfigurationError(f"trajectory length {t_lens.max()} exceeds max_viewpoints {cfg.max_viewpoints}")
    if m_lens.max() > cfg.max_subpaths:
        raise ConfigurationError(f"{m_lens.max()} sub-paths exceed max_subpaths {cfg.max_subpaths}")

    def positions(lengths: np.ndarray) -> np.ndarray:
        return np.concatenate([np.arange(n) for n in lengths])

    def typed(rows: Tensor, k: int) -> Tensor:  # rows plus segment-type embedding k, tiled over them
        return rows + store["cross.seg_embed"][k:k + 1].expand(rows.shape)

    # one table of rows [count | viewpoints | prompts | pad]; sequence b
    # gathers [count | its viewpoints | its prompts] and pad rows after them
    offset = int(prompted)
    parts = [typed(store["cross.cnt"], 0)] if prompted else []
    parts.append(typed(viewpoints + take_rows(store["cross.pos_visual"], positions(t_lens)), 1))
    p_lens = m_lens if prompted else np.zeros(batch, dtype=int)
    if prompted:
        parts.append(typed(prompts + take_rows(store["cross.pos_prompt"], positions(m_lens)), 2))
    parts.append(Tensor(np.zeros((1, cfg.d))))
    table = concat(parts, axis=0)

    vp_starts = offset + np.cumsum(t_lens) - t_lens
    pf_starts = offset + t_lens.sum() + np.cumsum(p_lens) - p_lens
    lengths = offset + t_lens + p_lens
    live = np.arange(lengths.max()) < lengths[:, None]
    pos = np.arange(lengths.max()) - offset  # ordinal past the count row
    index = np.where(pos < t_lens[:, None], vp_starts[:, None] + pos, pf_starts[:, None] + pos - t_lens[:, None])
    index[:, :offset] = 0  # the count row
    x = take_rows(table, np.where(live, index, table.shape[0] - 1))

    mask = np.where(live, 0.0, MASK_BIAS)[:, None, None, :]
    read = offset + int(t_lens.max())
    last = cfg.cross_layers - 1
    for i in range(cfg.cross_layers):
        x = encoder_layer(x, store, f"cross.layer{i}", cfg, mask_bias=mask, rows=read if i == last else None)

    # pooled rows: [count | whole path | sub-paths, padded with empty ranges]
    bounds = np.zeros((batch, offset + 1 + int(m_lens.max()), 2), dtype=int)
    if prompted:
        bounds[:, 0] = (0, 1)
    bounds[:, offset] = np.stack([np.full(batch, offset), offset + t_lens], axis=1)
    for b, chunks in enumerate(boundaries):
        bounds[b, offset + 1:offset + 1 + len(chunks)] = np.asarray(chunks) + offset
    pooled = _segment_mean(x, bounds)
    return CrossModalOutput(
        subpaths=pooled[:, offset + 1:],
        overall=pooled[:, offset],
        count=pooled[:, 0] if prompted else None,
    )


# -- stage partitions ---------------------------------------------------------------


def trainable_parameters(stage: str, store: ParamStore, prompted: bool = True) -> set[str]:
    """Which names train in each stage; everything else is frozen.

    Stage 1 updates only the prompt bank and the classification head.  Stage 2
    keeps the visual backbone and the prompts fixed, and trains the text
    encoder, the cross-modal encoder and the similarity projections.  A mode
    that is not ``prompted`` feeds the cross-modal encoder no count token and
    no prompt rows, so it also freezes ``cross.cnt`` and ``cross.pos_prompt``:
    a stage trains exactly the tensors its loss reads.
    """
    names = store.names()
    if stage == "stage1":
        return {n for n in names if n.startswith("visual.prompt.") or n.startswith("head.")}
    if stage == "stage2":
        unread = set() if prompted else {"cross.cnt", "cross.pos_prompt"}
        return {n for n in names if n.startswith(("text.", "cross.", "proj."))} - unread
    raise ParameterError(f"unknown stage {stage!r}")


def apply_stage_freeze(store: ParamStore, stage: str, prompted: bool = True) -> set[str]:
    trainable = trainable_parameters(stage, store, prompted)
    store.set_frozen(set(store.names()) - trainable)
    return trainable

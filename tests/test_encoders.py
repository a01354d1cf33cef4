"""Encoder semantics: shape laws, prompt injection, masking, stage partitions.

The forward passes are checked against an independent numpy reference
implementation written directly from the layer definitions (no autodiff).
"""

import math

import numpy as np
import pytest

from navprompt.encoders import (
    CrossModalOutput,
    EncoderConfig,
    apply_stage_freeze,
    classify_logits,
    cross_modal_encode_batch,
    init_cross_params,
    init_text_params,
    init_visual_params,
    param_shapes,
    text_encode,
    trainable_parameters,
    visual_encode,
)
from navprompt.errors import AlignmentError, ConfigurationError, InputError, ParameterError
from navprompt.optim import OptimConfig, Optimizer, ParamStore, backward
from navprompt.prompts import PAD_ID, Vocabulary, tokenize
from navprompt.tensor import Tensor, gather_index, log_softmax, softmax


def tiny_config(**overrides) -> EncoderConfig:
    base = dict(
        d=8, heads=2, ff_mult=2, visual_layers=2, text_layers=1, cross_layers=1,
        prompt_count=3, prompt_layers=2, num_patches=2, feature_dim=4,
        num_classes=3, max_text_len=12, max_viewpoints=8, max_subpaths=4,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def build_store(cfg, seed=0, vocab_size=None):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    init_visual_params(store, cfg, rng)
    if vocab_size is not None:
        init_text_params(store, cfg, vocab_size, rng)
        init_cross_params(store, cfg, rng)
    return store


# -- numpy reference implementation (forward only) ---------------------------------


def ref_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def ref_layer_norm(x, g, b, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def ref_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def ref_layer(x, p, cfg, store, mask=None):
    def w(name):
        return store[name].data

    h = ref_layer_norm(x, w(f"{p}.ln1.g"), w(f"{p}.ln1.b"))
    b, s, d = x.shape
    nh, dk = cfg.heads, cfg.d // cfg.heads
    q = (h @ w(f"{p}.attn.wq") + w(f"{p}.attn.bq")).reshape(b, s, nh, dk).transpose(0, 2, 1, 3)
    k = (h @ w(f"{p}.attn.wk")).reshape(b, s, nh, dk).transpose(0, 2, 1, 3)
    v = (h @ w(f"{p}.attn.wv") + w(f"{p}.attn.bv")).reshape(b, s, nh, dk).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    if mask is not None:
        scores = scores + mask
    ctx = (ref_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
    x = x + ctx @ w(f"{p}.attn.wo") + w(f"{p}.attn.bo")
    h = ref_layer_norm(x, w(f"{p}.ln2.g"), w(f"{p}.ln2.b"))
    h = ref_gelu(h @ w(f"{p}.ff.w1") + w(f"{p}.ff.b1")) @ w(f"{p}.ff.w2") + w(f"{p}.ff.b2")
    return x + h


def ref_plain_visual(patches, cfg, store):
    """[CLS | patches] through the backbone with no prompt slots."""
    b = patches.shape[0]
    emb = patches @ store["visual.patch_embed.w"].data + store["visual.patch_embed.b"].data
    cls = np.broadcast_to(store["visual.cls"].data, (b, 1, cfg.d))
    x = np.concatenate([cls, emb], axis=1)
    for i in range(cfg.visual_layers):
        x = ref_layer(x, f"visual.layer{i}", cfg, store)
    return x


def ref_prompted_visual(patches, cfg, store):
    """[CLS | prompts | patches] through the whole backbone, every row computed.

    Layer 0 reads ``visual.prompt.0``; in replace mode each later banked layer
    overwrites the prompt rows with its own bank entry.  Returns (cls, patches).
    """
    b = patches.shape[0]
    h_count = cfg.prompt_count if cfg.prompt_count and cfg.prompt_layers else 0

    def prompts(i):
        return np.broadcast_to(store[f"visual.prompt.{i}"].data, (b, h_count, cfg.d))

    emb = patches @ store["visual.patch_embed.w"].data + store["visual.patch_embed.b"].data
    cls = np.broadcast_to(store["visual.cls"].data, (b, 1, cfg.d))
    x = np.concatenate([cls, prompts(0), emb] if h_count else [cls, emb], axis=1)
    for i in range(cfg.visual_layers):
        if h_count and cfg.deep_prompt_mode == "replace" and 1 <= i < cfg.prompt_layers:
            x = np.concatenate([x[:, :1], prompts(i), x[:, 1 + h_count:]], axis=1)
        x = ref_layer(x, f"visual.layer{i}", cfg, store)
    return x[:, :1], x[:, 1 + h_count:]


def ref_text(ids, cfg, store):
    """Every position through every text layer; returns the full sequence."""
    x = store["text.tok_embed"].data[ids] + store["text.pos_embed"].data[: ids.shape[1]]
    mask = np.where(ids == PAD_ID, -1e9, 0.0)[:, None, None, :]
    for i in range(cfg.text_layers):
        x = ref_layer(x, f"text.layer{i}", cfg, store, mask=mask)
    return x


def ref_cross(vps, pfs, cfg, store, include_count=True):
    """[count | viewpoints | prompts | pad] rows through every cross layer."""
    def w(name):
        return store[name].data

    seg = w("cross.seg_embed")
    seqs = []
    for j, vp in enumerate(vps):
        parts = [w("cross.cnt") + seg[0]] if include_count else []
        parts.append(vp + w("cross.pos_visual")[: len(vp)] + seg[1])
        if pfs is not None:
            parts.append(pfs[j] + w("cross.pos_prompt")[: len(pfs[j])] + seg[2])
        seqs.append(np.concatenate(parts))
    s_max = max(len(seq) for seq in seqs)
    x = np.stack([np.concatenate([seq, np.zeros((s_max - len(seq), cfg.d))]) for seq in seqs])
    mask = np.zeros((len(seqs), 1, 1, s_max))
    for j, seq in enumerate(seqs):
        mask[j, :, :, len(seq):] = -1e9
    for i in range(cfg.cross_layers):
        x = ref_layer(x, f"cross.layer{i}", cfg, store, mask=mask)
    return x


def record_gelu_rows(monkeypatch):
    """Patch the encoders' ``gelu`` to record each feed-forward input shape."""
    import navprompt.encoders as encoders

    shapes = []
    real_gelu = encoders.gelu

    def recording_gelu(t):
        shapes.append(t.shape)
        return real_gelu(t)

    monkeypatch.setattr(encoders, "gelu", recording_gelu)
    return shapes


# (deep_prompt_mode, visual_layers, prompt_layers, prompt_count)
PROMPT_LAYOUTS = {
    "replace-all": ("replace", 3, 3, 3),
    "replace-partial": ("replace", 3, 2, 3),
    "propagate": ("propagate", 3, 3, 3),
    "promptless": ("replace", 3, 0, 0),
    "single-layer": ("propagate", 1, 1, 3),
}


def layout_config(layout: str) -> EncoderConfig:
    mode, layers, prompted, count = PROMPT_LAYOUTS[layout]
    return tiny_config(deep_prompt_mode=mode, visual_layers=layers, prompt_layers=prompted, prompt_count=count)


class TestVisualEncode:
    def test_final_state_shape_law(self):
        cfg = tiny_config(prompt_count=10, num_patches=4, feature_dim=4)
        store = build_store(cfg)
        patches = np.random.default_rng(1).normal(size=(2, 4, 4))
        final = visual_encode(patches, store, cfg)
        assert final.cls.shape == (2, 1, cfg.d)
        assert final.patch_block.shape == (2, 4, cfg.d)
        partial = tiny_config(prompt_count=10, num_patches=4, feature_dim=4, visual_layers=3, prompt_layers=1)
        final = visual_encode(patches, build_store(partial), partial)
        assert final.cls.shape == (2, 1, cfg.d)
        assert final.patch_block.shape == (2, 4, cfg.d)

    def test_promptless_matches_reference(self):
        cfg = tiny_config(prompt_count=0, prompt_layers=0)
        store = build_store(cfg, seed=3)
        patches = np.random.default_rng(2).normal(size=(3, cfg.num_patches, cfg.feature_dim))
        final = visual_encode(patches, store, cfg)
        ref = ref_plain_visual(patches, cfg, store)
        np.testing.assert_allclose(final.cls.data, ref[:, :1], atol=1e-12)
        np.testing.assert_allclose(final.patch_block.data, ref[:, 1:], atol=1e-12)
        assert final.patch_block.shape == (3, cfg.num_patches, cfg.d)

    @pytest.mark.parametrize("layout", sorted(PROMPT_LAYOUTS))
    def test_matches_full_sequence_reference(self, layout):
        cfg = layout_config(layout)
        store = build_store(cfg, seed=30)
        patches = np.random.default_rng(31).normal(size=(3, cfg.num_patches, cfg.feature_dim))
        final = visual_encode(patches, store, cfg)
        ref_cls, ref_patches = ref_prompted_visual(patches, cfg, store)
        np.testing.assert_allclose(final.cls.data, ref_cls, atol=1e-12)
        np.testing.assert_allclose(final.patch_block.data, ref_patches, atol=1e-12)

    @pytest.mark.parametrize("layout", sorted(PROMPT_LAYOUTS))
    def test_prompt_gradients_match_central_differences(self, layout):
        cfg = layout_config(layout)
        store = build_store(cfg, seed=32)
        apply_stage_freeze(store, "stage1")
        rng = np.random.default_rng(33)
        patches = rng.normal(size=(3, cfg.num_patches, cfg.feature_dim))
        w_cls = rng.normal(size=(3, 1, cfg.d))
        w_patch = rng.normal(size=(3, cfg.num_patches, cfg.d))

        def loss_fn(s):
            final = visual_encode(patches, s, cfg)
            return (final.cls * Tensor(w_cls)).sum() + (final.patch_block * Tensor(w_patch)).sum()

        analytic = backward(loss_fn(store), store)
        names = [n for n in store.names() if n.startswith("visual.prompt.")]
        assert len(names) == (cfg.prompt_layers if cfg.prompt_count else 0)
        eps = 1e-5
        for name in names:
            flat = store[name].data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = loss_fn(store).item()
                flat[i] = keep - eps
                lo = loss_fn(store).item()
                flat[i] = keep
                numeric[i] = (hi - lo) / (2.0 * eps)
            got = analytic.get(name, np.zeros_like(store[name].data)).reshape(-1)
            scale = max(np.abs(numeric).max(), 1e-3)
            assert np.abs(got - numeric).max() / scale < 1e-4, name
            # a prompt that no layer reads (propagate mode above layer 0) has none
            read = cfg.deep_prompt_mode == "replace" or name == "visual.prompt.0"
            assert np.abs(numeric).max() > 1e-3 if read else np.all(got == 0.0)

    def test_replace_mode_feeds_forward_live_rows_only(self, monkeypatch):
        cfg = tiny_config(prompt_count=10, num_patches=4, feature_dim=4, visual_layers=3, prompt_layers=3)
        store = build_store(cfg)
        shapes = record_gelu_rows(monkeypatch)
        visual_encode(np.zeros((2, 4, 4)), store, cfg)
        # one feed-forward per layer, over [CLS | patches]: the prompt rows
        # are keys and values only
        assert shapes == [(2, 1 + 4, cfg.d * cfg.ff_mult)] * cfg.visual_layers

    def test_prompt_perturbation_changes_output(self):
        cfg = tiny_config()
        store = build_store(cfg, seed=4)
        patches = np.random.default_rng(5).normal(size=(1, cfg.num_patches, cfg.feature_dim))
        before = visual_encode(patches, store, cfg).cls.data.copy()
        store["visual.prompt.0"].data[0, 0] += 0.37
        after = visual_encode(patches, store, cfg).cls.data
        assert not np.allclose(before, after)

    def test_frozen_backbone_never_updated(self):
        cfg = tiny_config()
        store = build_store(cfg, seed=6)
        apply_stage_freeze(store, "stage1")
        name = "visual.layer0.attn.wq"
        baseline = store[name].data.tobytes()
        opt = Optimizer(OptimConfig(algorithm="adam", learning_rate=0.1))
        opt.step(store, {name: np.ones_like(store[name].data), "visual.prompt.0": np.ones_like(store["visual.prompt.0"].data)})
        assert store[name].data.tobytes() == baseline
        assert not np.allclose(store["visual.prompt.0"].data, build_store(cfg, seed=6)["visual.prompt.0"].data)

    def test_replace_mode_uses_fresh_prompts_per_layer(self):
        cfg = tiny_config()
        store = build_store(cfg, seed=7)
        patches = np.random.default_rng(8).normal(size=(1, cfg.num_patches, cfg.feature_dim))
        base = visual_encode(patches, store, cfg).cls.data.copy()
        # Layer-1 prompts participate in replace mode ...
        store["visual.prompt.1"].data[0, 0] += 0.5
        replaced = visual_encode(patches, store, cfg).cls.data.copy()
        assert not np.allclose(base, replaced)
        # ... but are ignored in propagate mode, which only reads prompt 0.
        cfg2 = tiny_config(deep_prompt_mode="propagate")
        store2 = build_store(cfg2, seed=7)
        prop_base = visual_encode(patches, store2, cfg2).cls.data.copy()
        store2["visual.prompt.1"].data[0, 0] += 0.5
        prop_after = visual_encode(patches, store2, cfg2).cls.data
        np.testing.assert_array_equal(prop_base, prop_after)


class TestClassify:
    def test_zero_head_uniform(self):
        cfg = tiny_config()
        store = build_store(cfg)
        for name in ("head.w1", "head.b1", "head.w2", "head.b2"):
            store[name].data[:] = 0.0
        probs = softmax(classify_logits(Tensor(np.random.default_rng(0).normal(size=(4, cfg.d))), store), axis=-1)
        np.testing.assert_allclose(probs.data, 1.0 / cfg.num_classes, atol=1e-12)

    def test_softmax_oracle(self):
        cfg = tiny_config(num_classes=2)
        store = build_store(cfg)
        logits = Tensor(np.array([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(softmax(logits, axis=-1).data, [[0.25, 0.75]], atol=1e-15)
        probs = softmax(classify_logits(Tensor(np.zeros((1, cfg.d))), store), axis=-1)
        assert probs.shape == (1, 2)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_missing_head(self):
        store = ParamStore()
        with pytest.raises(ConfigurationError):
            classify_logits(Tensor(np.zeros((1, 4))), store)


class TestTextEncode:
    TEXTS = ("walk out of the bathroom", "turn left", "walk out of the bathroom and turn left")

    def _setup(self, **overrides):
        cfg = tiny_config(**overrides)
        vocab = Vocabulary.build(list(self.TEXTS))
        store = build_store(cfg, seed=9, vocab_size=len(vocab))
        return cfg, vocab, store

    def test_deterministic(self):
        cfg, vocab, store = self._setup()
        ids = tokenize("turn left", vocab, cfg.max_text_len)
        a = text_encode([ids], store, cfg)
        b = text_encode([ids], store, cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_padding_masked_out(self):
        cfg, vocab, store = self._setup()
        ids = tokenize("turn left", vocab, cfg.max_text_len)
        shorter = ids[:6]
        assert PAD_ID in shorter  # both rows end in padding
        a = text_encode([ids], store, cfg)
        b = text_encode([shorter], store, cfg)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_reference(self, layers):
        # rows of different lengths, padded to the widest and past it
        cfg, vocab, store = self._setup(text_layers=layers)
        ids = np.array([tokenize(t, vocab, cfg.max_text_len) for t in self.TEXTS])
        assert (ids == PAD_ID).any(axis=1).all()
        pooled = text_encode(ids, store, cfg)
        assert pooled.shape == (len(self.TEXTS), cfg.d)
        np.testing.assert_allclose(pooled.data, ref_text(ids, cfg, store)[:, 0], atol=1e-12)

    def test_last_layer_feeds_forward_leading_rows_only(self, monkeypatch):
        cfg, vocab, store = self._setup(text_layers=2)
        ids = np.array([tokenize(t, vocab, 8) for t in self.TEXTS])
        shapes = record_gelu_rows(monkeypatch)
        text_encode(ids, store, cfg)
        # CLS is pooled; the second row keeps its products on BLAS gemm
        f = cfg.d * cfg.ff_mult
        assert shapes == [(3, 8, f), (3, 2, f)]

    def test_id_out_of_range(self):
        cfg, vocab, store = self._setup()
        with pytest.raises(InputError):
            text_encode(np.array([[0, 1, len(vocab)]]), store, cfg)

    def test_pooled_width(self):
        cfg, vocab, store = self._setup()
        for text in ("turn left", "walk out of the bathroom please now"):
            pooled = text_encode([tokenize(text, vocab, cfg.max_text_len)], store, cfg)
            assert pooled.shape == (1, cfg.d)


def stacked(blocks):
    """Per-trajectory row blocks stacked in batch order, as one tensor."""
    return Tensor(np.concatenate([np.asarray(getattr(b, "data", b)) for b in blocks], axis=0))


class TestCrossModal:
    def _setup(self, seed=11):
        cfg = tiny_config()
        store = build_store(cfg, seed=seed, vocab_size=8)
        return cfg, store

    def test_single_element_mean(self):
        cfg, store = self._setup()
        vp = Tensor(np.random.default_rng(1).normal(size=(1, cfg.d)))
        pf = Tensor(np.random.default_rng(2).normal(size=(1, cfg.d)))
        out = cross_modal_encode_batch(vp, pf, [[(0, 1)]], store, cfg)
        np.testing.assert_allclose(out.subpaths.data[0, 0], out.overall.data[0], atol=1e-12)

    def test_zero_weights_identity_pooling(self):
        # With every cross parameter zeroed the layers reduce to the identity,
        # so pooled sub-path features equal plain means of the raw features.
        cfg, store = self._setup()
        for name in store.names():
            if name.startswith("cross."):
                store[name].data[:] = 0.0
        rng = np.random.default_rng(3)
        vp = rng.normal(size=(4, cfg.d))
        pf = rng.normal(size=(2, cfg.d))
        out = cross_modal_encode_batch(Tensor(vp), Tensor(pf), [[(0, 2), (2, 4)]], store, cfg)
        np.testing.assert_allclose(out.subpaths.data[0, 0], vp[0:2].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out.subpaths.data[0, 1], vp[2:4].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out.overall.data[0], vp.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out.count.data[0], 0.0, atol=1e-12)

    def test_permutation_consistency(self):
        cfg, store = self._setup(seed=12)
        rng = np.random.default_rng(4)
        vp = Tensor(rng.normal(size=(6, cfg.d)))
        pf = Tensor(rng.normal(size=(3, cfg.d)))
        bounds = [(0, 2), (2, 3), (3, 6)]
        feats = cross_modal_encode_batch(vp, pf, [bounds], store, cfg).subpaths.data[0]
        # Pooling is per-boundary: recomputing any boundary's mean from the
        # transformer output directly must match, in any order.
        for j, (s, e) in enumerate(bounds):
            same = cross_modal_encode_batch(vp, pf, [bounds], store, cfg).subpaths.data[0, j]
            np.testing.assert_allclose(feats[j], same, atol=1e-12)

    def test_batch_matches_single(self):
        cfg, store = self._setup(seed=13)
        rng = np.random.default_rng(5)
        vps = [rng.normal(size=(4, cfg.d)), rng.normal(size=(6, cfg.d))]
        pfs = [rng.normal(size=(2, cfg.d)), rng.normal(size=(3, cfg.d))]
        bounds = [[(0, 2), (2, 4)], [(0, 1), (1, 4), (4, 6)]]
        batched = cross_modal_encode_batch(stacked(vps), stacked(pfs), bounds, store, cfg)
        for i in range(2):
            single = cross_modal_encode_batch(Tensor(vps[i]), Tensor(pfs[i]), [bounds[i]], store, cfg)
            np.testing.assert_allclose(single.overall.data[0], batched.overall.data[i], atol=1e-10)
            m = len(bounds[i])
            np.testing.assert_allclose(single.subpaths.data[0], batched.subpaths.data[i, :m], atol=1e-10)
            # the shorter trajectory's pad sub-path rows are zero
            np.testing.assert_array_equal(batched.subpaths.data[i, m:], 0.0)

    def test_without_count_token(self):
        cfg, store = self._setup()
        vp = Tensor(np.random.default_rng(6).normal(size=(3, cfg.d)))
        out = cross_modal_encode_batch(vp, None, [[(0, 3)]], store, cfg, include_count=False)
        assert out.count is None
        assert isinstance(out, CrossModalOutput)

    def test_row_counts_must_match_the_partitions(self):
        cfg, store = self._setup()
        rng = np.random.default_rng(7)
        bounds = [[(0, 2), (2, 3)], [(0, 4)]]
        with pytest.raises(AlignmentError):
            cross_modal_encode_batch(Tensor(rng.normal(size=(6, cfg.d))), Tensor(rng.normal(size=(3, cfg.d))),
                                     bounds, store, cfg)
        with pytest.raises(AlignmentError):
            cross_modal_encode_batch(Tensor(rng.normal(size=(7, cfg.d))), Tensor(rng.normal(size=(2, cfg.d))),
                                     bounds, store, cfg)

    # three trajectories of 3, 6 and 5 viewpoints with 2, 3 and 1 sub-paths:
    # the widest viewpoint block is not the longest sequence, so the last
    # layer leaves prompt and pad rows out
    BOUNDS = [[(0, 1), (1, 3)], [(0, 2), (2, 3), (3, 6)], [(0, 5)]]

    def _ragged_batch(self, cfg):
        rng = np.random.default_rng(14)
        vps = [rng.normal(size=(b[-1][1], cfg.d)) for b in self.BOUNDS]
        pfs = [rng.normal(size=(len(b), cfg.d)) for b in self.BOUNDS]
        return vps, pfs

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("prompted", [True, False], ids=["count+prompts", "viewpoints-only"])
    def test_matches_reference(self, layers, prompted):
        cfg = tiny_config(cross_layers=layers)
        store = build_store(cfg, seed=15, vocab_size=8)
        vps, pfs = self._ragged_batch(cfg)
        if not prompted:
            pfs = None
        out = cross_modal_encode_batch(stacked(vps), None if pfs is None else stacked(pfs),
                                       self.BOUNDS, store, cfg, include_count=prompted)
        ref = ref_cross(vps, pfs, cfg, store, include_count=prompted)
        offset = 1 if prompted else 0
        for j, bounds in enumerate(self.BOUNDS):
            row = ref[j]
            if prompted:
                np.testing.assert_allclose(out.count.data[j], row[0], atol=1e-12)
            for k, (s, e) in enumerate(bounds):
                np.testing.assert_allclose(out.subpaths.data[j, k], row[offset + s:offset + e].mean(axis=0), atol=1e-12)
            t_len = bounds[-1][1]
            np.testing.assert_allclose(out.overall.data[j], row[offset:offset + t_len].mean(axis=0), atol=1e-12)

    def test_last_layer_feeds_forward_read_rows_only(self, monkeypatch):
        cfg = tiny_config(cross_layers=2)
        store = build_store(cfg, seed=16, vocab_size=8)
        vps, pfs = self._ragged_batch(cfg)
        shapes = record_gelu_rows(monkeypatch)
        cross_modal_encode_batch(stacked(vps), stacked(pfs), self.BOUNDS, store, cfg)
        # sequences are 1 + 3 + 2, 1 + 6 + 3 and 1 + 5 + 1 rows; the last
        # layer computes the count token and the widest viewpoint block
        f = cfg.d * cfg.ff_mult
        assert shapes == [(3, 10, f), (3, 1 + 6, f)]


class TestStagePartitions:
    def test_stage1_trainable_count_closed_form(self):
        cfg = tiny_config()
        store = build_store(cfg)
        trainable = trainable_parameters("stage1", store)
        total = sum(store[n].size for n in trainable)
        head = cfg.d * cfg.d + cfg.d + cfg.d * cfg.num_classes + cfg.num_classes
        assert total == cfg.prompt_layers * cfg.prompt_count * cfg.d + head

    def test_stage1_backbone_frozen(self):
        cfg = tiny_config()
        store = build_store(cfg)
        apply_stage_freeze(store, "stage1")
        for name in store.names():
            if name.startswith("visual.") and not name.startswith("visual.prompt."):
                assert name in store.frozen

    def test_stage2_partition(self):
        cfg = tiny_config()
        store = build_store(cfg, vocab_size=10)
        trainable = apply_stage_freeze(store, "stage2")
        assert "cross.cnt" in trainable
        assert "proj.text.w" in trainable
        assert all(not n.startswith("visual.") for n in trainable)
        assert "head.w1" in store.frozen
        joint = trainable_parameters("stage2", store, joint_prompt_tuning=True)
        assert "visual.prompt.0" in joint

    def test_unknown_stage(self):
        with pytest.raises(ParameterError):
            trainable_parameters("stage3", ParamStore())


class TestGradientFidelity:
    @pytest.mark.parametrize("report", ["stage1_gradient_report", "stage2_gradient_report"])
    def test_every_trainable_tensor_has_a_live_gradient(self, monkeypatch, report):
        # a parameter no output depends on, such as a key bias under softmax,
        # gets a gradient of rounding noise that no gradient check can score
        import navprompt.training as training
        from navprompt.optim import FiniteDifferenceReport

        scales = {}

        def record_scales(f, store, eps):
            grads = backward(f(store), store)
            for name in store.trainable_names():
                scales[name] = float(np.abs(grads.get(name, 0.0)).max())
            return FiniteDifferenceReport(max_rel_error=0.0)

        monkeypatch.setattr(training, "finite_difference_check", record_scales)
        getattr(training, report)()
        assert scales
        assert {name: s for name, s in scales.items() if s <= 1e-12} == {}

    def test_stage1_loss_grads_match_finite_differences(self):
        from navprompt.optim import finite_difference_check

        cfg = tiny_config(prompt_count=2, prompt_layers=1, visual_layers=2, num_classes=2)
        store = build_store(cfg, seed=20)
        apply_stage_freeze(store, "stage1")
        rng = np.random.default_rng(21)
        patches = rng.normal(size=(3, cfg.num_patches, cfg.feature_dim))
        labels = np.array([0, 1, 0])

        def loss_fn(s):
            state = visual_encode(patches, s, cfg)
            logits = classify_logits(state.cls.reshape(patches.shape[0], cfg.d), s)
            logp = log_softmax(logits, axis=-1)
            return -gather_index(logp, labels).mean()

        report = finite_difference_check(loss_fn, store, eps=1e-5)
        assert report.max_rel_error < 1e-4, report.per_param

    def test_stage2_joint_prompt_tuning_grads_match_finite_differences(self):
        # the one stage-2 path that backpropagates through visual_encode
        import dataclasses

        from navprompt.training import gradcheck_config, stage2_gradient_report

        report = stage2_gradient_report(dataclasses.replace(gradcheck_config(), joint_prompt_tuning=True))
        assert {"visual.prompt.0", "visual.prompt.1"} <= set(report.per_param)
        assert report.max_rel_error < 1e-4, report.per_param

    def test_stage2_multilayer_grads_match_central_differences(self):
        # two text and two cross layers, so the last layer of each stack,
        # which computes only the rows read after it, differs from the first
        import dataclasses

        from navprompt.training import (
            build_vocabulary,
            gradcheck_config,
            precompute_viewpoint_features,
            prepare_trajectories,
            stage2_losses,
        )

        cfg = dataclasses.replace(gradcheck_config(), text_layers=2, cross_layers=2)
        enc = cfg.encoder()
        dataset = cfg.trajectory_dataset()
        vocab = build_vocabulary(dataset, enc.max_subpaths)
        store = build_store(enc, seed=40, vocab_size=len(vocab))
        apply_stage_freeze(store, "stage2")
        prepared = prepare_trajectories(dataset, vocab, enc)
        cache = precompute_viewpoint_features(dataset, store, enc)

        def loss_fn(s):
            return stage2_losses(prepared, s, enc, cfg, cache)[0]

        analytic = backward(loss_fn(store), store)
        names = store.trainable_names()
        assert {"text.layer1.ff.w1", "cross.layer1.ff.w1"} <= set(names)
        rng = np.random.default_rng(41)
        eps = 1e-5
        for name in names:
            got = analytic.get(name, np.zeros_like(store[name].data)).reshape(-1)
            flat = store[name].data.reshape(-1)
            # a full sweep takes ~45 s: probe the largest analytic entry, which
            # sets the scale, and three more drawn at random
            picks = {int(np.abs(got).argmax())} | set(rng.choice(flat.size, min(3, flat.size), replace=False).tolist())
            worst = scale = 0.0
            for i in sorted(picks):
                keep = flat[i]
                flat[i] = keep + eps
                hi = loss_fn(store).item()
                flat[i] = keep - eps
                lo = loss_fn(store).item()
                flat[i] = keep
                numeric = (hi - lo) / (2.0 * eps)
                worst = max(worst, abs(got[i] - numeric))
                scale = max(scale, abs(numeric))
            assert scale > 0 and worst / scale < 1e-4, name


def test_param_shapes_layout():
    cfg = tiny_config()
    shapes = param_shapes(cfg, vocab_size=10)
    assert shapes["visual.prompt.0"] == (cfg.prompt_count, cfg.d)
    assert shapes["text.tok_embed"] == (10, cfg.d)
    assert shapes["cross.cnt"] == (1, cfg.d)
    assert shapes["proj.visual.w"] == (cfg.d, cfg.d)

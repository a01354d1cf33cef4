"""Seeded property tests: the batched stage-2 loss is an exact rewrite of the per-trajectory loop.

The per-trajectory terms (``ind`` and ``sub``) are scored as one masked
batched loss over padded features.  The reference here is the loop it
replaced: one ``pairwise_alignment_loss`` per trajectory on its own rows,
averaged over the batch.  Each draw picks trajectories with random sub-path
counts (1 to ``max_subpaths``) and a random batch of them.
"""

import dataclasses

import numpy as np
import pytest

from navprompt.alignment import ABLATION_TERMS, batched_alignment_loss, pairwise_alignment_loss
from navprompt.encoders import apply_stage_freeze, init_cross_params, init_text_params, init_visual_params
from navprompt.errors import AlignmentError
from navprompt.optim import ParamStore, backward
from navprompt.training import (
    build_vocabulary,
    gradcheck_config,
    precompute_viewpoint_features,
    prepare_trajectories,
    stage2_features,
    stage2_losses,
)
from navprompt.tensor import Tensor

MAX_SUBPATHS = 5
DRAWS = 8


@pytest.fixture(scope="module")
def model():
    cfg = dataclasses.replace(
        gradcheck_config(), seed=17, max_text_len=48, max_subpaths=MAX_SUBPATHS,
        subpaths_min=1, subpaths_max=MAX_SUBPATHS, viewpoints_min=MAX_SUBPATHS, viewpoints_max=8,
        trajectory_count=24,
    )
    enc = cfg.encoder()
    dataset = cfg.trajectory_dataset()
    vocab = build_vocabulary(dataset, enc.max_subpaths)
    store = ParamStore()
    rng = np.random.default_rng([cfg.seed, 11])
    init_visual_params(store, enc, rng)
    init_text_params(store, enc, len(vocab), rng)
    init_cross_params(store, enc, rng)
    apply_stage_freeze(store, "stage2")
    prepared = prepare_trajectories(dataset, vocab, enc)
    cache = precompute_viewpoint_features(dataset, store, enc)
    assert {p.m for p in prepared} == set(range(1, MAX_SUBPATHS + 1))
    return cfg, enc, store, prepared, cache


def _draw(prepared, seed):
    """A random batch of 2 to 8 of the trajectories, whose M range over 1..MAX_SUBPATHS."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 9))
    return [int(i) for i in rng.choice(len(prepared), size=size, replace=False)]


def _features(model, idx, term):
    cfg, enc, store, prepared, cache = model
    batch = [prepared[i] for i in idx]
    viewpoints = Tensor(np.concatenate([cache[i] for i in idx]))
    text, visual = stage2_features(batch, store, enc, (term,), viewpoints)[term]
    return batch, text, visual


def _loss_and_grads(model, idx, term, reverse, batched):
    cfg, _, store, _, _ = model
    batch, text, visual = _features(model, idx, term)
    if batched:
        sizes = np.array([p.m for p in batch])
        loss = batched_alignment_loss(text, visual, sizes, cfg.temperature, cfg.smoothing, reverse)
    else:
        loss = None
        for b, p in enumerate(batch):
            part = pairwise_alignment_loss(text[b, :p.m], visual[b, :p.m], cfg.temperature, cfg.smoothing, reverse)
            part = part * (1.0 / len(batch))
            loss = part if loss is None else loss + part
    return loss.item(), backward(loss, store)


@pytest.mark.parametrize("reverse", [False, True], ids=["kl", "kl_reverse"])
@pytest.mark.parametrize("term", ["ind", "sub"])
@pytest.mark.parametrize("draw", range(DRAWS))
def test_batched_loss_and_gradients_match_the_loop(model, term, reverse, draw):
    idx = _draw(model[3], seed=100 * draw + 7)
    got, got_grads = _loss_and_grads(model, idx, term, reverse, batched=True)
    ref, ref_grads = _loss_and_grads(model, idx, term, reverse, batched=False)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)
    assert set(got_grads) == set(ref_grads)
    for name, expected in ref_grads.items():
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got_grads[name], expected, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


@pytest.mark.parametrize("mode", ["full", "sub_only"])
@pytest.mark.parametrize("draw", range(DRAWS))
def test_permuting_the_batch_permutes_features_and_keeps_the_loss(model, mode, draw):
    cfg, enc, store, prepared, cache = model
    idx = _draw(prepared, seed=100 * draw + 8)
    order = np.random.default_rng(draw).permutation(len(idx))
    shuffled = [idx[i] for i in order]
    run_cfg = dataclasses.replace(cfg, ablation=mode)

    totals = [stage2_losses([prepared[i] for i in ids], store, enc, run_cfg, [cache[i] for i in ids])[0].item()
              for ids in (idx, shuffled)]
    assert totals[1] == pytest.approx(totals[0], rel=1e-12, abs=0)

    term = ABLATION_TERMS[mode][-1]  # ind or sub
    batch, text, visual = _features(model, idx, term)
    _, text_p, visual_p = _features(model, shuffled, term)
    for b, j in enumerate(order):
        m = batch[j].m
        np.testing.assert_allclose(text_p.data[b, :m], text.data[j, :m], rtol=0, atol=1e-12)
        np.testing.assert_allclose(visual_p.data[b, :m], visual.data[j, :m], rtol=0, atol=1e-12)


def test_viewpoints_are_one_block_per_trajectory_or_encoded_live(model):
    cfg, enc, store, prepared, cache = model
    idx = _draw(prepared, seed=5)
    batch = [prepared[i] for i in idx]
    cached = stage2_losses(batch, store, enc, cfg, [cache[i] for i in idx])[0].item()
    live = stage2_losses(batch, store, enc, cfg, None)[0].item()
    assert live == pytest.approx(cached, rel=1e-12, abs=0)
    with pytest.raises(AlignmentError):
        stage2_losses(batch, store, enc, cfg, [cache[i] for i in idx[:-1]])

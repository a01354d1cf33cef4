"""Seeded property tests: the batched stage-2 loss is an exact rewrite of the per-trajectory loop.

The per-trajectory terms (``ind`` and ``sub``) are scored as one masked
batched loss over padded features.  The reference here is the loop it
replaced, scored independently of the masked kernel: per trajectory, its
own rows' similarity matrix, row and column softmax and KL divergences as a
graph of separate ops (``contrastive_loss``), averaged over the batch.  Each draw picks trajectories with random sub-path
counts (1 to ``max_subpaths``) and a random batch of them.  Every term is
scored by one ``pairwise_alignment_loss`` call, and retrieval gives the same
metrics whatever the eval batch size.
"""

import dataclasses

import numpy as np
import pytest

import navprompt.training as training
from navprompt.alignment import ABLATION_MODES, ABLATION_TERMS, pairwise_alignment_loss
from navprompt.encoders import apply_stage_freeze, init_cross_params, init_text_params, init_visual_params
from navprompt.optim import Optimizer, ParamStore, backward
from navprompt.training import (
    build_vocabulary,
    evaluate_retrieval,
    gradcheck_config,
    precompute_viewpoint_features,
    prepare_trajectories,
    stage2_features,
    stage2_losses,
)

from block_loss import composed_loss

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
    cache = precompute_viewpoint_features(dataset, store, enc)
    prepared = prepare_trajectories(dataset, vocab, enc, cache)
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
    mode = "sub_only" if term == "sub" else "full"  # the mode that trains the term
    return (batch, *stage2_features(batch, store, enc, mode, (term,))[term])


def _loss_and_grads(model, idx, term, batched):
    cfg, _, store, _, _ = model
    batch, text, visual, sizes = _features(model, idx, term)
    if batched:
        loss = pairwise_alignment_loss(text, visual, sizes, cfg.temperature, cfg.smoothing)
    else:
        loss = None
        for b, p in enumerate(batch):
            part = composed_loss(text[b, :p.m], visual[b, :p.m], cfg.temperature, cfg.smoothing) * (1.0 / len(batch))
            loss = part if loss is None else loss + part
    return loss.item(), backward(loss, store)


@pytest.mark.parametrize("term", ["ind", "sub"])
@pytest.mark.parametrize("draw", range(DRAWS))
def test_batched_loss_and_gradients_match_the_loop(model, term, draw):
    idx = _draw(model[3], seed=100 * draw + 7)
    got, got_grads = _loss_and_grads(model, idx, term, batched=True)
    ref, ref_grads = _loss_and_grads(model, idx, term, batched=False)
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

    totals = [stage2_losses([prepared[i] for i in ids], store, enc, run_cfg)[0].item() for ids in (idx, shuffled)]
    assert totals[1] == pytest.approx(totals[0], rel=1e-12, abs=0)

    term = ABLATION_TERMS[mode][-1]  # ind or sub
    batch, text, visual, _ = _features(model, idx, term)
    _, text_p, visual_p, _ = _features(model, shuffled, term)
    for b, j in enumerate(order):
        m = batch[j].m
        np.testing.assert_allclose(text_p.data[b, :m], text.data[j, :m], rtol=0, atol=1e-12)
        np.testing.assert_allclose(visual_p.data[b, :m], visual.data[j, :m], rtol=0, atol=1e-12)


def test_each_prepared_trajectory_carries_its_viewpoint_block(model):
    # the features a step reads ride on the prepared records, so a batch
    # cannot pair a trajectory with another one's viewpoints
    cfg, enc, store, prepared, cache = model
    for p, block in zip(prepared, cache, strict=True):
        assert p.viewpoints is block and block.shape == (len(p.sample.viewpoints), enc.d)
    idx = _draw(prepared, seed=5)
    loss = stage2_losses([prepared[i] for i in idx], store, enc, cfg)[0].item()
    shifted = [dataclasses.replace(prepared[i], viewpoints=prepared[i].viewpoints + 1.0) for i in idx]
    assert stage2_losses(shifted, store, enc, cfg)[0].item() != loss


def test_prepared_token_ids_are_int32(model):
    # every step holds every trajectory's id rows; int32 halves them and
    # gives the int64 rows' losses, since readers use the values alone
    cfg, enc, store, prepared, _ = model
    assert all(ids.dtype == np.int32 for p in prepared for ids in p.ids.values())
    batch = prepared[:4]
    wide = [dataclasses.replace(p, ids={k: v.astype(np.int64) for k, v in p.ids.items()}) for p in batch]
    assert stage2_losses(wide, store, enc, cfg)[0].item() == stage2_losses(batch, store, enc, cfg)[0].item()


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_each_term_is_one_scoring_call(model, monkeypatch, mode):
    # the bench probe times the loss through this one name, so every term must pass through it
    cfg, enc, store, prepared, cache = model
    batch = [prepared[i] for i in _draw(prepared, seed=9)]
    calls = []

    def counted(text, visual, sizes, *args):
        calls.append(list(sizes))
        return pairwise_alignment_loss(text, visual, sizes, *args)

    monkeypatch.setattr(training, "pairwise_alignment_loss", counted)
    report = stage2_losses(batch, store, enc, dataclasses.replace(cfg, ablation=mode))[1]
    per_term = {"ind": [p.m for p in batch], "sub": [p.m for p in batch], "ove": [len(batch)], "cnt": [len(batch)]}
    assert calls == [per_term[term] for term in ABLATION_TERMS[mode]]
    assert list(report) == [*ABLATION_TERMS[mode], "total"]


@pytest.fixture(scope="module")
def trained(model):
    """A copy of the model's store after 30 Adam steps of ``full``, whose retrieval ranks vary by row."""
    cfg, enc, store, prepared, cache = model
    copy = ParamStore()
    for name in store.names():
        copy.add(name, store[name].data.copy())
    copy.set_frozen(store.frozen)
    optimizer = Optimizer(copy, 1e-2)
    for step in range(30):
        backward(stage2_losses(prepared[8 * (step % 3):8 * (step % 3 + 1)], copy, enc, cfg)[0], copy)
        optimizer.step()
    return copy


@pytest.mark.parametrize("mode", ["full", "sub_only"])
def test_eval_batch_size_changes_no_metric(model, trained, monkeypatch, mode):
    # sub-pair hits are summed per eval batch and whole paths ranked over all of them,
    # so one trajectory a batch, the default and one batch of all give one dict
    _, enc, _, prepared, _ = model
    metrics = []
    for size in (1, training.EVAL_BATCH, len(prepared)):
        monkeypatch.setattr(training, "EVAL_BATCH", size)
        metrics.append(evaluate_retrieval(trained, enc, prepared, mode=mode))
    assert metrics[0] == metrics[1] == metrics[2]
    assert (metrics[0]["count_accuracy"] is None) == (mode == "sub_only")

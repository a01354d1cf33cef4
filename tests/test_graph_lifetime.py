"""Autodiff graphs are freed by reference counting, never left to the cyclic GC.

A backward closure that captured its own output tensor would put every graph
through that op into a reference cycle; a training step's activations would
then stay alive until a full collection.  These tests run with the collector
disabled so such a cycle shows up as a live object or as collectable garbage.
"""

import dataclasses
import gc
import inspect
import weakref

import numpy as np
import pytest

import navprompt.tensor as tensor_mod
from navprompt.alignment import kl_divergence, masked_contrastive_loss
from navprompt.encoders import apply_stage_freeze, init_cross_params, init_text_params, init_visual_params
from navprompt.optim import ParamStore, backward
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
from navprompt.training import (
    build_vocabulary,
    gradcheck_config,
    precompute_viewpoint_features,
    prepare_trajectories,
    stage1_loss,
    stage2_losses,
)


@pytest.fixture
def no_gc():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _pos(shape):
    return np.random.default_rng(3).uniform(0.5, 2.0, shape)


# name -> builder of the op's output from one requires_grad input
OPS = {
    "__add__": lambda x: x + 1.0,
    "__sub__": lambda x: x - 1.0,
    "__mul__": lambda x: x * 2.0,
    "__truediv__": lambda x: x / 2.0,
    "__neg__": lambda x: -x,
    "__radd__": lambda x: 1.0 + x,
    "__rmul__": lambda x: 2.0 * x,
    "add_const": lambda x: x.add_const(np.ones(x.shape)),
    "sqrt": lambda x: x.sqrt(),
    "clip_min": lambda x: x.clip_min(1.0),
    "reshape": lambda x: x.reshape(-1),
    "transpose": lambda x: x.transpose(1, 0),
    "expand": lambda x: x[:1].expand((4, 3)),
    "__getitem__": lambda x: x[1:],
    "sum": lambda x: x.sum(axis=0),
    "mean": lambda x: x.mean(),
    "matmul": lambda x: matmul(x, Tensor(_pos((3, 2)))),
    "add_bias": lambda x: add_bias(x, Tensor(_pos(3))),
    "linear": lambda x: linear(x, Tensor(_pos((3, 2))), Tensor(_pos(2))),
    "concat": lambda x: concat([x, Tensor(_pos((1, 3)))], axis=0),
    "softmax": lambda x: softmax(x, axis=1, temperature=0.5),
    "log_softmax": lambda x: log_softmax(x, axis=1),
    "layer_norm": lambda x: layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))),
    "gelu": gelu,
    "embedding": lambda x: embedding(x, np.array([[0, 2], [3, 1]])),
    "take_rows": lambda x: take_rows(x, np.array([0, 0, 3])),
    "gather_index": lambda x: gather_index(x, np.array([0, 2, 1, 1])),
    "kl_divergence": lambda x: kl_divergence(softmax(x[:3], axis=1), Tensor(np.full((3, 3), 1.0 / 3.0))),
    "segment_mean": lambda x: segment_mean(x.reshape(1, 4, 3), np.array([[[0, 2], [1, 4], [0, 0]]])),
    "masked_contrastive_loss": lambda x: masked_contrastive_loss(x[:3].reshape(1, 3, 3), np.array([2])),
}
# differentiable ops defined outside tensor.py
LOSS_OPS = {"kl_divergence", "masked_contrastive_loss"}

# Tensor methods that build no graph node
NOT_OPS = {"__init__", "__repr__", "_accumulate", "item", "backward"}


def test_every_differentiable_op_is_listed():
    methods = {name for name, obj in vars(Tensor).items() if inspect.isfunction(obj)} - NOT_OPS
    functions = {
        name for name, obj in vars(tensor_mod).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor_mod.__name__ and not name.startswith("_")
    }
    assert methods | functions | LOSS_OPS == set(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_dropped_output_is_freed_without_gc(name, no_gc):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    out = OPS[name](x)
    assert out.requires_grad and out._backward is not None
    # Tensor has no __weakref__ slot; its backward closure is owned by the
    # output alone, so the closure dies exactly when the output does
    ref = weakref.ref(out._backward)
    del out
    assert ref() is None, f"{name}: the output tensor outlived its last reference"


def _stage2_setup(mode):
    cfg = dataclasses.replace(gradcheck_config(), ablation=mode)
    enc = cfg.encoder()
    dataset = cfg.trajectory_dataset()
    vocab = build_vocabulary(dataset, enc.max_subpaths)
    store = ParamStore()
    rng = np.random.default_rng([cfg.seed, 11])
    init_visual_params(store, enc, rng)
    init_text_params(store, enc, len(vocab), rng)
    init_cross_params(store, enc, rng)
    apply_stage_freeze(store, "stage2", cfg.joint_prompt_tuning)
    prepared = prepare_trajectories(dataset, vocab, enc)
    cache = precompute_viewpoint_features(dataset, store, enc)
    return store, lambda: stage2_losses(prepared, store, enc, cfg, cache)[0]


def _stage1_setup():
    cfg = gradcheck_config()
    enc = cfg.encoder()
    dataset = cfg.indoor_dataset()
    feats = np.stack([s.features for s in dataset])
    labels = np.array([s.label for s in dataset])
    store = ParamStore()
    init_visual_params(store, enc, np.random.default_rng([cfg.seed, 11]))
    apply_stage_freeze(store, "stage1")
    return store, lambda: stage1_loss(feats, labels, store, enc)


@pytest.mark.parametrize("step", ["stage2-full", "stage2-cnt_ind", "stage2-cnt", "stage2-sub_only", "stage1"])
def test_training_step_leaves_no_cyclic_garbage(step, no_gc):
    stage, _, mode = step.partition("-")
    store, loss_fn = _stage2_setup(mode) if stage == "stage2" else _stage1_setup()
    gc.collect()
    loss = loss_fn()
    grads = backward(loss, store)
    assert grads
    del loss, grads
    assert gc.collect() == 0

"""Every gradient buffer belongs to exactly one tensor.

``Tensor._accumulate(g, owned=True)`` makes a freshly computed ``g`` the
tensor's gradient without copying it.  If an op marked an array owned that
something else still referenced, two gradients, or a gradient and a
parameter, would share memory and the next ``+=`` or optimizer step would
write through both.  These tests run one training step's backward at the
default widths and look for any such sharing.
"""

import itertools

import numpy as np
import pytest

from navprompt import training
from navprompt.alignment import ABLATION_TERMS, PROMPTED_MODES
from navprompt.optim import backward
from navprompt.tensor import Tensor
from navprompt.training import RunConfig, build_vocabulary, precompute_viewpoint_features, prepare_trajectories


def _assert_no_shared_buffers(store):
    grads = {name: t.grad for name, t in store.entries.items() if t.grad is not None}
    assert grads
    for (a, ga), (b, gb) in itertools.combinations(grads.items(), 2):
        assert not np.shares_memory(ga, gb), f"{a} and {b} share a gradient buffer"
    for (a, ga), (b, t) in itertools.product(grads.items(), store.entries.items()):
        assert not np.shares_memory(ga, t.data), f"the gradient of {a} shares memory with parameter {b}"


@pytest.fixture(scope="module")
def stage2_inputs():
    cfg = RunConfig()
    enc = cfg.encoder()
    batch = cfg.trajectory_dataset()[:cfg.stage2_batch_size]
    vocab = build_vocabulary(batch, enc.max_subpaths)
    visual = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    prepared = prepare_trajectories(batch, vocab, enc, precompute_viewpoint_features(batch, visual, enc))
    return len(vocab), prepared


@pytest.mark.parametrize("mode", ABLATION_TERMS)
def test_stage2_step_gradients_own_their_buffers(stage2_inputs, mode):
    vocab_size, prepared = stage2_inputs
    cfg = RunConfig(ablation=mode)
    enc = cfg.encoder()
    store = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    training._add_stage2_params(store, enc, vocab_size, np.random.default_rng([cfg.seed, 21]), mode in PROMPTED_MODES)
    backward(training.stage2_losses(prepared, store, enc, cfg)[0], store)
    _assert_no_shared_buffers(store)


def test_stage1_step_gradients_own_their_buffers():
    cfg = RunConfig()
    enc = cfg.encoder()
    samples = cfg.indoor_dataset()[:cfg.stage1_batch_size]
    store = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    feats = np.stack([s.features for s in samples])
    labels = np.array([s.label for s in samples])
    backward(training.stage1_loss(feats, labels, store, enc), store)
    _assert_no_shared_buffers(store)


def test_fanned_out_gradient_is_copied_for_each_parent():
    # __add__ hands one g to both parents; each must get its own buffer
    a = Tensor(np.arange(3.0), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones(3))

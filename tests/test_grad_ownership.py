"""Every gradient buffer belongs to exactly one tensor and is C-contiguous.

``Tensor._accumulate(g, owned=True)`` makes a freshly computed ``g`` the
tensor's gradient without copying it.  If an op marked an array owned that
something else still referenced, two gradients, or a gradient and a
parameter, would share memory and the next ``+=`` or optimizer step would
write through both.  These tests run one training step's backward at the
default widths and look for any such sharing, and for any gradient, on a
leaf or handed to a closure, that is not C-contiguous: a gradient's layout
decides which BLAS kernel its products run on, so it must follow from its
shape alone.
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


def _stage2_step(stage2_inputs, mode):
    """The store after one default-width stage-2 backward in ``mode``."""
    vocab_size, prepared = stage2_inputs
    cfg = RunConfig(ablation=mode)
    enc = cfg.encoder()
    store = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    training._add_stage2_params(store, enc, vocab_size, np.random.default_rng([cfg.seed, 21]), mode in PROMPTED_MODES)
    backward(training.stage2_losses(prepared, store, enc, cfg)[0], store)
    return store


def _stage1_step():
    """The store after one default-width stage-1 backward."""
    cfg = RunConfig()
    enc = cfg.encoder()
    samples = cfg.indoor_dataset()[:cfg.stage1_batch_size]
    store = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    feats = np.stack([s.features for s in samples])
    labels = np.array([s.label for s in samples])
    backward(training.stage1_loss(feats, labels, store, enc), store)
    return store


@pytest.mark.parametrize("mode", ABLATION_TERMS)
def test_stage2_step_gradients_own_their_buffers(stage2_inputs, mode):
    _assert_no_shared_buffers(_stage2_step(stage2_inputs, mode))


def test_stage1_step_gradients_own_their_buffers():
    _assert_no_shared_buffers(_stage1_step())


@pytest.fixture
def closure_gradients(monkeypatch):
    """The layout of every gradient a recorded closure receives, its node's ``grad`` when it runs."""
    layouts = []
    result = Tensor._result

    def checked_result(data, parents, backward):
        def checked(g):
            layouts.append((g.shape, g.strides, g.flags.c_contiguous))
            backward(g)

        return result(data, parents, checked)

    monkeypatch.setattr(Tensor, "_result", staticmethod(checked_result))
    return layouts


def _assert_c_contiguous(store, layouts):
    assert layouts, "no closure ran"
    bad = [(shape, strides) for shape, strides, c in layouts if not c]
    assert not bad, f"{len(bad)} of {len(layouts)} closures got a gradient that is not C-contiguous: {bad[:5]}"
    grads = {name: t.grad for name, t in store.entries.items() if t.grad is not None}
    assert grads
    bad = {name: g.strides for name, g in grads.items() if not g.flags.c_contiguous}
    assert not bad, f"leaf gradients that are not C-contiguous: {bad}"


@pytest.mark.parametrize("mode", ABLATION_TERMS)
def test_stage2_step_gradients_are_c_contiguous(stage2_inputs, closure_gradients, mode):
    _assert_c_contiguous(_stage2_step(stage2_inputs, mode), closure_gradients)


def test_stage1_step_gradients_are_c_contiguous(closure_gradients):
    _assert_c_contiguous(_stage1_step(), closure_gradients)


def test_fanned_out_gradient_is_copied_for_each_parent():
    # __add__ hands one g to both parents; each must get its own buffer
    a = Tensor(np.arange(3.0), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones(3))

"""Autodiff graphs die as soon as nothing needs them, by reference counting alone.

A backward closure that captured its own output tensor would put every graph
through that op into a reference cycle; a training step's activations would
then stay alive until a full collection.  ``backward`` consumes the graph,
so an interior node's closure, inputs and gradient buffer go even while the
loss is held.  An output that no gradient can reach records nothing, and the
forward-only passes record no tape at all, so their traced peaks stay small.
These tests run with the collector disabled so a leak shows up as a live
object, as collectable garbage or as a higher traced peak.
"""

import dataclasses
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import navprompt.tensor as tensor_mod
import navprompt.training as training
from navprompt.alignment import kl_divergence, masked_contrastive_loss
from navprompt.encoders import apply_stage_freeze, init_cross_params, init_text_params, init_visual_params
from navprompt.optim import Optimizer, ParamStore, backward
from navprompt.tensor import (
    Tensor,
    add_bias,
    attention_context,
    attention_scores,
    concat,
    gather_index,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    no_grad,
    segment_mean,
    softmax,
    take_rows,
)
from navprompt.training import (
    RunConfig,
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
    "__mul__": lambda x: x * 2.0,
    "__truediv__": lambda x: x / 2.0,
    "__neg__": lambda x: -x,
    "__radd__": lambda x: 1.0 + x,
    "__rmul__": lambda x: 2.0 * x,
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
    "embedding": lambda x: take_rows(x, np.array([[0, 2], [3, 1]])),
    "take_rows": lambda x: take_rows(x, np.array([0, 0, 3])),
    "gather_index": lambda x: gather_index(x, np.array([0, 2, 1, 1])),
    "kl_divergence": lambda x: kl_divergence(softmax(x[:3], axis=1), Tensor(np.full((3, 3), 1.0 / 3.0))),
    "segment_mean": lambda x: segment_mean(x.reshape(1, 4, 3), np.array([[[0, 2], [1, 4], [0, 0]]])),
    "masked_contrastive_loss": lambda x: masked_contrastive_loss(x[:3].reshape(1, 3, 3), np.array([2])),
    "attention_scores": lambda x: attention_scores(x.reshape(1, 4, 3), Tensor(_pos((1, 4, 3))), 3),
    "attention_context": lambda x: attention_context(x.reshape(1, 1, 4, 3), Tensor(_pos((1, 3, 2)))),
    # the (4, 3) input as the shared rows spliced into the keys and values
    "attention_scores_shared": lambda x: attention_scores(Tensor(_pos((2, 2, 3))), Tensor(_pos((2, 3, 3))), 1,
                                                          shared=x),
    "attention_context_shared": lambda x: attention_context(Tensor(_pos((2, 1, 2, 7))), Tensor(_pos((2, 3, 3))), x),
}
# case -> the op it runs: the 2-d token-id lookup text_encode makes, and the spliced shared rows
CASE_OPS = {"embedding": "take_rows", "attention_scores_shared": "attention_scores",
            "attention_context_shared": "attention_context"}
# differentiable ops defined outside tensor.py
LOSS_OPS = {"kl_divergence", "masked_contrastive_loss"}

# Tensor methods and tensor.py functions that build no graph node
NOT_OPS = {"__init__", "__repr__", "_accumulate", "item", "backward", "no_grad"}


def test_every_differentiable_op_is_listed():
    methods = {name for name, obj in vars(Tensor).items() if inspect.isfunction(obj)}
    functions = {
        name for name, obj in vars(tensor_mod).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor_mod.__name__ and not name.startswith("_")
    }
    assert (methods | functions) - NOT_OPS | LOSS_OPS == {CASE_OPS.get(name, name) for name in OPS}


def _is_constant(t):
    return not t.requires_grad and t._backward is None and t._parents == ()


@pytest.mark.parametrize("name", sorted(OPS))
def test_no_grad_records_nothing_and_keeps_the_values(name):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    taped = OPS[name](x)
    with no_grad():
        out = OPS[name](x)
    assert _is_constant(out)
    assert out.shape == taped.shape and out.data.dtype == taped.data.dtype
    assert out.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_on_constants_records_nothing(name):
    assert _is_constant(OPS[name](Tensor(_pos((4, 3)))))


def test_no_grad_nests_and_restores_after_an_exception():
    x = Tensor(_pos((4, 3)), requires_grad=True)
    with no_grad():
        with no_grad():
            assert _is_constant(x * 2.0)
        assert _is_constant(x * 2.0)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        assert _is_constant(x * 2.0)
    with pytest.raises(RuntimeError, match="outside"):
        with no_grad():
            raise RuntimeError("outside")
    out = x * 2.0
    assert out.requires_grad and out._backward is not None and out._parents


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


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_releases_the_op_node(name, no_gc):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    out = OPS[name](x)
    loss = out.sum()
    refs = [weakref.ref(out._backward), weakref.ref(loss._backward)]
    loss.backward()
    # out and loss are still held, but their closures, parents and
    # gradient buffers are gone; the leaf keeps its gradient
    assert all(ref() is None for ref in refs), f"{name}: a closure outlived backward()"
    for node in (out, loss):
        assert node._parents is None and node.grad is None
    assert x.grad is not None and x.grad.shape == x.shape


# op -> number of arrays its backward closure keeps beyond its inputs' own
CLOSURE_ARRAYS = {"gelu": 1, "linear": 0}


@pytest.mark.parametrize("name", sorted(CLOSURE_ARRAYS))
def test_closure_keeps_only_what_backward_cannot_recompute(name):
    out = OPS[name](Tensor(_pos((4, 3)), requires_grad=True))
    arrays = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert len(arrays) == CLOSURE_ARRAYS[name]


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
    apply_stage_freeze(store, "stage2")
    prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
    return store, lambda: stage2_losses(prepared, store, enc, cfg)[0]


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


def _record_tape(monkeypatch):
    """Wrap ``Tensor._result``; the returned list gets, per op output, whether it joined the tape."""
    real = Tensor._result
    recorded = []

    def spy(data, parents, backward=None):
        out = real(data, parents, backward)
        recorded.append(out._backward is not None or bool(out._parents))
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    return recorded


def test_stage1_accuracy_records_no_tape(monkeypatch):
    store, _ = _stage1_setup()
    cfg = gradcheck_config()
    dataset = cfg.indoor_dataset()
    monkeypatch.setattr(training, "ACCURACY_BATCH", 2)
    recorded = _record_tape(monkeypatch)
    training._stage1_accuracy(dataset, list(range(len(dataset))), store, cfg.encoder())
    assert recorded and not any(recorded)


def test_precompute_records_no_tape(monkeypatch):
    # the stage-1 freeze leaves the visual prompts trainable, so only no_grad keeps the tape off
    store, _ = _stage1_setup()
    cfg = gradcheck_config()
    dataset = cfg.trajectory_dataset()
    monkeypatch.setattr(training, "PRECOMPUTE_CHUNK", 4)
    recorded = _record_tape(monkeypatch)
    precompute_viewpoint_features(dataset, store, cfg.encoder())
    assert recorded and not any(recorded)


def test_evaluate_retrieval_records_no_tape(monkeypatch):
    store, _ = _stage2_setup("full")
    cfg = gradcheck_config()
    enc = cfg.encoder()
    dataset = cfg.trajectory_dataset()
    prepared = prepare_trajectories(dataset, build_vocabulary(dataset, enc.max_subpaths), enc,
                                    precompute_viewpoint_features(dataset, store, enc))
    monkeypatch.setattr(training, "EVAL_BATCH", 1)
    recorded = _record_tape(monkeypatch)
    training.evaluate_retrieval(store, enc, prepared)
    assert recorded and not any(recorded)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MB = 2**20


@pytest.fixture(scope="module")
def default_width():
    """Default-width stores and inputs: a stage-1 store, whose visual prompts are trainable, and a
    stage-2 store."""
    cfg = RunConfig()
    enc = cfg.encoder()
    stage1 = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    trajectories = dataclasses.replace(cfg, trajectory_count=300).trajectory_dataset()
    subset = trajectories[:64]
    vocab = build_vocabulary(subset, enc.max_subpaths)
    stage2 = training._stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    training._add_stage2_params(stage2, enc, len(vocab), np.random.default_rng([cfg.seed, 21]), True)
    prepared = prepare_trajectories(subset, vocab, enc, precompute_viewpoint_features(subset, stage2, enc))
    return dict(enc=enc, stage1=stage1, stage2=stage2, images=cfg.indoor_dataset()[:128],
                trajectories=trajectories, prepared=prepared)


# Allocation peaks of the forward-only passes, in tracemalloc's exact count;
# with a tape each one would hold a whole batch's activations
def test_stage1_accuracy_peak(default_width):
    w = default_width
    peak = _traced_peak(lambda: training._stage1_accuracy(w["images"], list(range(128)), w["stage1"], w["enc"]))
    assert peak < 8 * MB, f"{peak / MB:.1f} MB"


def test_precompute_peak(default_width):
    w = default_width
    assert sum(len(s.viewpoints) for s in w["trajectories"]) >= 1800
    peak = _traced_peak(lambda: precompute_viewpoint_features(w["trajectories"], w["stage1"], w["enc"]))
    assert peak < 8 * MB, f"{peak / MB:.1f} MB"


def test_evaluate_retrieval_peak(default_width):
    w = default_width
    peak = _traced_peak(lambda: training.evaluate_retrieval(w["stage2"], w["enc"], w["prepared"]))
    assert peak < 16 * MB, f"{peak / MB:.1f} MB"


def test_consecutive_stage2_steps_hold_one_graph(no_gc):
    store, loss_fn = _stage2_setup("full")
    optimizer = Optimizer(store, 1e-3)

    def step():
        loss = loss_fn()
        backward(loss, store)
        optimizer.step()
        return loss

    tracemalloc.start()
    try:
        # traced from here on, so the gradients this step leaves behind are
        # counted in the base and when they are replaced
        step()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = step()
        one = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        # the loop's pattern: the previous loss is held until the next forward returns
        loss = step()  # noqa: F841
        two = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert two <= 1.05 * one + 16384, f"one step peaks {one} B above the start, two steps {two} B"

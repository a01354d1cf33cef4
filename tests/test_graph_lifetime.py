"""Autodiff graphs die as soon as nothing needs them, by reference counting alone.

A backward closure that captured its own output tensor would put every graph
through that op into a reference cycle; a training step's activations would
then stay alive until a full collection.  A closure holds its parents' nodes
and only the arrays its formula reads, never a ``Tensor``, so an activation
that no formula reads is freed during the forward.  ``backward`` consumes
the graph, so an interior node's closure, kept arrays and gradient buffer go
even while the loss is held.  An output that no gradient can reach records
nothing, and the forward-only passes record no tape at all, so their traced
peaks stay small.  These tests run with the collector disabled so a leak
shows up as a live object, as collectable garbage or as a higher traced
peak.
"""

import dataclasses
import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import navprompt.encoders as encoders
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
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    no_grad,
    segment_mean,
    softmax,
    splice_rows,
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


def _spliced(rows):
    return splice_rows(Tensor(_pos((2, 3, 3))), rows)


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
    # the (4, 3) input as the weight
    "linear_weight": lambda x: linear(Tensor(_pos((2, 4))), x, Tensor(_pos(3))),
    "concat": lambda x: concat([x, Tensor(_pos((1, 3)))], axis=0),
    "softmax": lambda x: softmax(x, axis=1),
    "log_softmax": lambda x: log_softmax(x, axis=1),
    "layer_norm": lambda x: layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))),
    "gelu": gelu,
    "embedding": lambda x: take_rows(x, np.array([[0, 2], [3, 1]])),
    "take_rows": lambda x: take_rows(x, np.array([0, 0, 3])),
    # one entry per row, as the stage-1 cross-entropy picks its labels
    "take_rows_pick": lambda x: take_rows(x.reshape(-1, 1), np.arange(4) * 3 + np.array([0, 2, 1, 1])),
    "kl_divergence": lambda x: kl_divergence(softmax(x[:3], axis=1), Tensor(np.full((3, 3), 1.0 / 3.0))),
    "segment_mean": lambda x: segment_mean(x.reshape(1, 4, 3), np.array([[[0, 2], [1, 4], [0, 0]]])),
    "masked_contrastive_loss": lambda x: masked_contrastive_loss(x[:3].reshape(1, 3, 3), np.array([2])),
    "attention_scores": lambda x: attention_scores(x.reshape(1, 4, 3), Tensor(_pos((1, 4, 3))), 3),
    "attention_context": lambda x: attention_context(x.reshape(1, 1, 4, 3), Tensor(_pos((1, 3, 2)))),
    # the (4, 3) input as the rows spliced into every sequence, and as the live rows of one sequence
    "splice_rows": _spliced,
    "splice_rows_live": lambda x: splice_rows(x.reshape(1, 4, 3), Tensor(_pos((2, 3)))),
    # the (4, 3) input as the shared rows spliced into the keys and values
    "attention_scores_shared": lambda x: attention_scores(Tensor(_pos((2, 2, 3))), _spliced(x), 1),
    "attention_context_shared": lambda x: attention_context(Tensor(_pos((2, 1, 2, 7))), _spliced(x)),
}
# case -> the op it runs: the 2-d token-id lookup text_encode makes, the stage-1 label pick, a weight, the live
# rows of a splice, and attention over spliced shared rows
CASE_OPS = {"embedding": "take_rows", "take_rows_pick": "take_rows", "linear_weight": "linear",
            "splice_rows_live": "splice_rows", "attention_scores_shared": "attention_scores",
            "attention_context_shared": "attention_context"}
# differentiable ops defined outside tensor.py
LOSS_OPS = {"kl_divergence", "masked_contrastive_loss"}

# Tensor methods and tensor.py functions that build no graph node
NOT_OPS = {"__init__", "__repr__", "item", "backward", "no_grad"}


def test_every_differentiable_op_is_listed():
    methods = {name for name, obj in vars(Tensor).items() if inspect.isfunction(obj)}
    functions = {
        name for name, obj in vars(tensor_mod).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor_mod.__name__ and not name.startswith("_")
    }
    assert (methods | functions) - NOT_OPS | LOSS_OPS == {CASE_OPS.get(name, name) for name in OPS}


def _is_constant(t):
    return not t.requires_grad and t._node is None and t._parents == ()


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
    assert out.requires_grad and out._node._backward is not None and out._node._parents


@pytest.mark.parametrize("name", sorted(OPS))
def test_dropped_output_is_freed_without_gc(name, no_gc):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    out = OPS[name](x)
    assert out.requires_grad and out._node._backward is not None
    # Tensor and its node have no __weakref__ slot; the node is owned by the
    # output alone, so its closure dies exactly when the output does
    ref = weakref.ref(out._node._backward)
    del out
    assert ref() is None, f"{name}: the output tensor outlived its last reference"


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_releases_the_op_node(name, no_gc):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    out = OPS[name](x)
    loss = out.sum()
    refs = [weakref.ref(out._node._backward), weakref.ref(loss._node._backward)]
    loss.backward()
    # out and loss are still held, but their nodes' closures, parents and
    # gradient buffers are gone; the leaf keeps its gradient
    assert all(ref() is None for ref in refs), f"{name}: a closure outlived backward()"
    for t in (out, loss):
        assert t._node._parents is None and t._node.grad is None and t.grad is None
    assert x.grad is not None and x.grad.shape == x.shape


# case -> the shapes of the arrays its closure keeps when only the (4, 3)
# input needs a gradient: what the input's gradient formula reads, never the
# input itself or a view of it
KEPT_ARRAYS = {
    "__add__": [], "__radd__": [], "__neg__": [], "add_bias": [], "concat": [],
    "splice_rows": [], "splice_rows_live": [], "reshape": [], "transpose": [], "expand": [], "__getitem__": [], "sum": [],
    "__mul__": [()], "__rmul__": [()], "__truediv__": [()],  # the constant operand
    "mean": [()],  # 1 / count
    "sqrt": [(4, 3)], "softmax": [(4, 3)], "log_softmax": [(4, 3)],  # the output
    "clip_min": [(4, 3)],  # the mask of entries above the floor
    "gelu": [(4, 3)],  # the derivative
    "layer_norm": [(4, 3), (4, 1), (3,)],  # xhat, 1 / std and gamma
    "matmul": [(3, 2)], "linear": [(3, 2)],  # the weight
    "linear_weight": [(2, 4)],  # the input rows
    "embedding": [(2, 2)], "take_rows": [(3,)],  # the indices
    "take_rows_pick": [(4,)],  # the indices
    "segment_mean": [(1, 3, 4), (1, 3, 1)],  # the membership and 1 / count
    "kl_divergence": [(3, 3)],  # the derivative in P
    # both softmaxes and their KL derivatives, and the block weights
    "masked_contrastive_loss": [(1, 3, 3)] * 4 + [(1, 1, 1)],
    "attention_scores": [(1, 4, 3)],  # the keys
    "attention_context": [(1, 3, 2)],  # the values
    "attention_scores_shared": [(2, 2, 3)],  # the queries
    "attention_context_shared": [(2, 1, 2, 7)],  # the weights
}


def _captured(closure):
    """The arrays and tensors a backward closure holds, through nested closures, tuples and lists."""
    arrays, tensors, seen, todo = [], [], set(), [closure]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif inspect.isfunction(obj):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return arrays, tensors


def test_every_case_lists_its_kept_arrays():
    assert set(KEPT_ARRAYS) == set(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_closure_keeps_only_what_backward_cannot_recompute(name):
    x = Tensor(_pos((4, 3)), requires_grad=True)
    out = OPS[name](x)
    arrays, tensors = _captured(out._node._backward)
    assert not tensors, f"{name}: the closure holds a Tensor"
    assert sorted(a.shape for a in arrays) == sorted(KEPT_ARRAYS[name])
    assert not any(np.shares_memory(a, x.data) for a in arrays), f"{name}: the closure keeps the input array"


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
        recorded.append(out._node is not None)
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


def test_stage2_graph_holds_no_tensor():
    store, loss_fn = _stage2_setup("full")
    loss = loss_fn()
    seen, todo = set(), [loss._node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            assert not _captured(node._backward)[1], "a closure of the stage-2 graph holds a Tensor"
        todo.extend(node._parents)
    assert len(seen) > 100


def _watch_unread_activations(monkeypatch, store, keep: bool) -> dict[str, list]:
    """Wrap the encoder ops around activations that no gradient formula reads.

    The returned dict maps each kind of activation to weakrefs of its arrays;
    with ``keep`` a list also holds them, as a tape that held every
    activation would.
    """
    refs = {"pre-softmax scores": [], "residual stream": [], "GELU input": [], "embedding gather": [],
            "cross-modal gather table": []}
    held = []
    params = {id(t) for t in store.entries.values()}

    def watch(kind, array):
        refs[kind].append(weakref.ref(array))
        if keep:
            held.append(array)

    def wrap(name, pick):
        real = getattr(encoders, name)

        def op(*args, **kwargs):
            out = real(*args, **kwargs)
            pick(args, out)
            return out

        monkeypatch.setattr(encoders, name, op)

    def rows(args, out):
        if args[0] is store["text.tok_embed"]:
            watch("embedding gather", out.data)
        elif id(args[0]) not in params:
            watch("cross-modal gather table", args[0].data)

    wrap("softmax", lambda args, out: watch("pre-softmax scores", args[0].data))
    # every layer norm reads the residual stream: a residual sum, the token
    # and position sum, or the cross-modal gather
    wrap("layer_norm", lambda args, out: watch("residual stream", args[0].data))
    wrap("gelu", lambda args, out: watch("GELU input", args[0].data))
    wrap("take_rows", rows)
    return refs


def test_stage2_forward_frees_what_no_formula_reads(monkeypatch, no_gc):
    grads = {}
    for keep in (True, False):
        store, loss_fn = _stage2_setup("full")
        refs = _watch_unread_activations(monkeypatch, store, keep)
        loss = loss_fn()
        for kind, arrays in refs.items():
            assert arrays, f"the forward made no {kind}"
            alive = sum(ref() is not None for ref in arrays)
            # held by the watcher alone, or freed while the loss is still held
            assert alive == (len(arrays) if keep else 0), f"{alive} of {len(arrays)} {kind} arrays are alive"
        grads[keep] = {name: g.tobytes() for name, g in backward(loss, store).items()}
        monkeypatch.undo()
    assert grads[False] == grads[True]


# Bytes alive after one default-width stage-2 forward of 20 trajectories,
# the loss held: the tape.  A tape that held every op's output held 33.1 MiB;
# keeping only what the gradient formulas read, it holds 20.9 MiB.
STAGE2_TAPE_BOUND = 27 * MB


def test_stage2_tape_keeps_only_what_backward_reads(default_width, no_gc):
    w = default_width
    cfg = RunConfig()
    batch = w["prepared"][:cfg.stage2_batch_size]
    stage2_losses(batch, w["stage2"], w["enc"], cfg)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = stage2_losses(batch, w["stage2"], w["enc"], cfg)[0]  # noqa: F841
        alive = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert alive < STAGE2_TAPE_BOUND, f"{alive / MB:.1f} MB alive after the forward"

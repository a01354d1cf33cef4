"""Step clocks and the outside-in tracer.

Every wrapper replaces a name where its caller looks it up (for example
``navprompt.training.backward``, not ``navprompt.optim.backward``, which the
``training`` module imported by value), so nothing under ``src/`` changes.

An untraced run installs only the step clocks: one at the entry of the stage
loss and one at the end of the step.  A training step ends at the return of
the per-step freeze check that directly follows ``Optimizer.step``, so the
check belongs to the step.

A traced run adds spans at every layer boundary.  Spans (name, start, end,
parent) stay in memory until the run ends.  A layer's self time is its span
durations minus the part its child spans cover.  Set-up and output phases
(data reading, prompt preparation, checkpoint I/O, the viewpoint precompute
and evaluation passes) are opaque: calls nested inside them record nothing,
so each such metric is the whole phase.  Garbage-collector pauses are spans
too, recorded wherever they interrupt.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter, defaultdict

import navprompt.data as data
import navprompt.encoders as encoders
import navprompt.optim as optim
import navprompt.training as training

ROOT = -1
clock = time.monotonic

# (owner, attribute, span name)
_OPAQUE = [
    (data, "read_indoor_jsonl", "data.read"),
    (data, "read_trajectory_jsonl", "data.read"),
    (training, "build_vocabulary", "prompts.prepare"),
    (training, "prepare_trajectories", "prompts.prepare"),
    (training, "load_checkpoint", "training.ckpt_load"),
    (training, "save_checkpoint", "training.ckpt_save"),
    (training, "precompute_viewpoint_features", "training.precompute"),
    (training, "evaluate_retrieval", "training.eval"),
    (training, "_stage1_accuracy", "training.eval"),
]
_LAYERS = [
    (training, "visual_encode", "encoders.visual.fwd"),
    (training, "text_encode", "encoders.text.fwd"),
    (training, "cross_modal_encode_batch", "encoders.cross.fwd"),
    (training, "classify_logits", "encoders.head.fwd"),
    (training, "pairwise_alignment_loss", "alignment.pairwise"),
    (training, "total_loss", "alignment.total"),
    (training, "backward", "optim.backward"),
    (optim, "backward", "optim.backward"),
    (optim.Optimizer, "step", "optim.step"),
] + [(encoders, op, f"tensor.{op}") for op in ("linear", "matmul", "softmax", "layer_norm", "gelu", "concat")]
_LOSSES = ("stage1_loss", "stage2_losses")
_FREEZE_CHECK = "_assert_frozen_unchanged"


class Probe:
    """Step clocks, plus layer spans and counts when ``trace`` is set."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.step_starts: list[float] = []
        self.step_ends: list[float] = []
        self.step_items: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.gc_spans: list[tuple[float, float, int]] = []
        self.counts: Counter = Counter()
        self.saved_checkpoints: list[str] = []
        self._stack = [ROOT]
        self._step_span = ROOT
        self._opaque = 0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
            return
        self.gc_spans.append((self._gc_start, clock(), self._stack[-1]))
        self.counts["tensor.gc_freed"] += info.get("collected", 0)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Probe":
        for attr in _LOSSES:
            self._patch(training, attr, self._loss_wrapper(getattr(training, attr)))
        self._patch(training, _FREEZE_CHECK, self._freeze_wrapper(getattr(training, _FREEZE_CHECK)))
        if self.trace:
            for owner, attr, name in _OPAQUE:
                self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, opaque=True))
            for owner, attr, name in _LAYERS:
                self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, opaque=False))
            self._patch(training, "pooled_text_features", self._pooled_wrapper(training.pooled_text_features))
            gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _end_step(self) -> None:
        self.step_ends.append(clock())
        if self._step_span != ROOT:
            self._close(self._step_span)
            self._step_span = ROOT

    def _loss_wrapper(self, fn):
        def loss(*args, **kwargs):
            # stage-1 features (B, ...) or the stage-2 batch list
            self.step_items.append(len(args[0]))
            if not self.trace:
                self.step_starts.append(clock())
                return fn(*args, **kwargs)
            self.step_starts.append(clock())
            self._step_span = self._open("training.step")
            idx = self._open("training.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            walk = self._open("trace.graph_walk")  # a span of its own: its cost lands in no layer
            self.counts["tensor.nodes"] += _count_nodes(out[0] if isinstance(out, tuple) else out)
            self._close(walk)
            return out

        return loss

    def _freeze_wrapper(self, fn):
        def freeze_check(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._end_step()
            return out

        return freeze_check

    def _span_wrapper(self, fn, name: str, opaque: bool):
        counter = _COUNTERS.get(name)

        def span(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(self, args)
            self.counts[name] += 1
            idx = self._open(name)
            self._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self._close(idx)

        return span

    def _pooled_wrapper(self, fn):
        """Count-only: rows entering text deduplication (the dedup ratio's base)."""
        def pooled_text_features(ids, *args, **kwargs):
            if not self._opaque:
                self.counts["text.pooled_rows"] += ids.shape[0]
            return fn(ids, *args, **kwargs)

        return pooled_text_features

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.names)
        covered = [0.0] * n
        out: dict[str, float] = defaultdict(float)
        for start, end, parent in self.gc_spans:
            out["tensor.gc"] += end - start
            if parent != ROOT:
                covered[parent] += end - start
        for i in range(n):
            p = self.parents[i]
            if p != ROOT:
                covered[p] += self.ends[i] - self.starts[i]
        for i in range(n):
            out[self.names[i]] += self.ends[i] - self.starts[i] - covered[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()
        c = self.counts
        steps = len(self.step_starts)
        pooled = c["text.pooled_rows"]
        metrics = {
            "data.read_s": st["data.read"],
            "prompts.prepare_s": st["prompts.prepare"],
            "training.ckpt_load_s": st["training.ckpt_load"],
            "training.precompute_s": st["training.precompute"],
            "training.ckpt_save_s": st["training.ckpt_save"],
            "training.ckpt_bytes": sum(os.path.getsize(p) for p in self.saved_checkpoints),
            "training.fwd_s": st["training.fwd"],
            "training.step_other_s": st["training.step"],
            "training.eval_s": st["training.eval"],
            "encoders.visual.fwd_s": st["encoders.visual.fwd"],
            "encoders.visual.rows": c["encoders.visual.rows"],
            "encoders.text.fwd_s": st["encoders.text.fwd"],
            "encoders.text.rows": c["encoders.text.rows"],
            "encoders.text.tokens": c["encoders.text.tokens"],
            "encoders.text.dedup_ratio": c["encoders.text.rows"] / pooled if pooled else 0.0,
            "encoders.cross.fwd_s": st["encoders.cross.fwd"],
            "encoders.head.fwd_s": st["encoders.head.fwd"],
            "alignment.pairwise_s": st["alignment.pairwise"],
            "alignment.pairwise_calls": c["alignment.pairwise"] / steps if steps else 0.0,
            "alignment.total_s": st["alignment.total"],
            "optim.backward_s": st["optim.backward"],
            "optim.step_s": st["optim.step"],
            "tensor.nodes_per_step": c["tensor.nodes"] / steps if steps else 0.0,
            "tensor.gc_s": st["tensor.gc"],
            "tensor.gc_freed": c["tensor.gc_freed"],
        }
        for op in ("linear", "matmul", "softmax", "layer_norm", "gelu", "concat"):
            metrics[f"tensor.{op}_s"] = st[f"tensor.{op}"]
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%r\t%r\t%d\n" % row)
            for row in self.gc_spans:
                fh.write("tensor.gc\t%r\t%r\t%d\n" % row)


def _count_visual(probe: Probe, args) -> None:
    probe.counts["encoders.visual.rows"] += len(args[0])


def _count_text(probe: Probe, args) -> None:
    ids = args[0]
    probe.counts["encoders.text.rows"] += ids.shape[0]
    probe.counts["encoders.text.tokens"] += ids.size


def _count_checkpoint(probe: Probe, args) -> None:
    probe.saved_checkpoints.append(args[2])  # save_checkpoint(store, config, path)


_COUNTERS = {"encoders.visual.fwd": _count_visual, "encoders.text.fwd": _count_text,
             "training.ckpt_save": _count_checkpoint}


def _count_nodes(loss) -> int:
    """Tape nodes reachable from ``loss`` through their recorded parents."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)

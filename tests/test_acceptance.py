"""Acceptance criteria, one test each, at their stated tolerances.

The two training-based criteria share module-scoped runs: stage 1 feeds the
stage-2 runs (full and sub_only ablation on the same seed).  Each test prints
a single pass line; a failed assertion marks the criterion red.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from navprompt.alignment import cosine_similarity, kl_divergence, similarity_matrix
from navprompt.data import gen_trajectory_dataset
from navprompt.encoders import apply_stage_freeze, init_visual_params
from navprompt.optim import Optimizer, ParamStore, backward
from navprompt.prompts import build_prompt_set
from navprompt.segmenter import DELIMITERS, split_instruction, tokenize_text
from navprompt.tensor import Tensor
from navprompt.training import (
    RunConfig,
    load_checkpoint,
    run_stage1,
    run_stage2,
    stage1_gradient_report,
    stage1_loss,
    stage2_gradient_report,
)

pytestmark = pytest.mark.acceptance


def _report(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def stage1_run(workdir):
    cfg = RunConfig(seed=0, out_dir=str(workdir / "stage1"))
    start = time.perf_counter()
    result = run_stage1(cfg)
    return cfg, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def stage2_runs(workdir, stage1_run):
    cfg, s1, _ = stage1_run
    full_cfg = dataclasses.replace(cfg, out_dir=str(workdir / "stage2_full"))
    start = time.perf_counter()
    full = run_stage2(full_cfg, s1.checkpoint_path)
    full_elapsed = time.perf_counter() - start
    sub_cfg = dataclasses.replace(cfg, ablation="sub_only", out_dir=str(workdir / "stage2_sub"))
    sub = run_stage2(sub_cfg, s1.checkpoint_path)
    return full_cfg, full, full_elapsed, sub


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    r1 = stage1_gradient_report(eps=1e-5)
    r2 = stage2_gradient_report(eps=1e-5)
    elapsed = time.perf_counter() - start
    assert r1.max_rel_error < 1e-4, f"stage-1 gradients off: {r1.max_rel_error:.3e}"
    assert r2.max_rel_error < 1e-4, f"stage-2 gradients off: {r2.max_rel_error:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"gradient fidelity: stage1 {r1.max_rel_error:.2e}, stage2 {r2.max_rel_error:.2e}, {elapsed:.1f}s")


def test_criterion_2_freeze_contract():
    cfg = RunConfig(seed=2)
    enc = cfg.encoder()
    store = ParamStore()
    init_visual_params(store, enc, np.random.default_rng([cfg.seed, 11]))
    trainable = apply_stage_freeze(store, "stage1")
    baseline = {name: store[name].data.tobytes() for name in store.frozen}

    rng = np.random.default_rng(5)
    optimizer = Optimizer(store, cfg.stage1_lr)
    for _ in range(100):
        feats = rng.normal(size=(cfg.stage1_batch_size, enc.num_patches, enc.feature_dim))
        labels = rng.integers(0, enc.num_classes, size=cfg.stage1_batch_size)
        loss = stage1_loss(feats, labels, store, enc)
        backward(loss, store)
        optimizer.step()

    for name, blob in baseline.items():
        assert store[name].data.tobytes() == blob, f"backbone tensor {name} changed"
    count = sum(store[name].size for name in trainable)
    head = enc.d * enc.d + enc.d + enc.d * enc.num_classes + enc.num_classes
    expected = enc.prompt_layers * enc.prompt_count * enc.d + head
    assert count == expected, f"trainable count {count} != {expected}"
    _report(2, f"freeze contract after 100 steps, trainable count {count}")


def test_criterion_3_similarity_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 17))
        d = int(rng.integers(2, 65))
        rx = rng.uniform(-2, 2, (m, d))
        ry = rng.uniform(-2, 2, (m, d))
        s = similarity_matrix(Tensor(rx), Tensor(ry)).data
        for a in range(m):
            for b in range(m):
                ref, _ = cosine_similarity(Tensor(rx[a]), Tensor(ry[b]))
                worst = max(worst, abs(s[a, b] - ref.item()))
    assert worst < 1e-12, f"max deviation {worst:.2e}"
    _report(3, f"similarity matrix matches double loop, max dev {worst:.1e}")


def test_criterion_4_kl_value_check():
    value = kl_divergence(Tensor(np.eye(2)), Tensor(np.full((2, 2), 0.5))).item()
    assert abs(value - math.log(2.0) / 2.0) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        p = rng.uniform(0.01, 3.0, (m, m))
        assert kl_divergence(Tensor(p), Tensor(p.copy())).item() == 0.0
    _report(4, "KL divergence value and self-divergence checks")


def test_criterion_5_total_loss_composition(stage2_runs):
    full_cfg, full, _, _ = stage2_runs
    with open(full.csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "stage-2 log is empty"
    worst = 0.0
    for row in rows:
        combined = (full_cfg.lambda1 * float(row["l_ove"])
                    + full_cfg.lambda2 * float(row["l_cnt"])
                    + float(row["l_ind_sum"]))
        worst = max(worst, abs(float(row["total"]) - combined))
    assert full_cfg.lambda1 == 0.5 and full_cfg.lambda2 == 0.1
    assert worst < 1e-12, f"composition deviates by {worst:.2e}"
    _report(5, f"weighted-total composition holds over {len(rows)} steps, max dev {worst:.1e}")


WORKED_INSTRUCTION = (
    "Walk onto the rug on your right towards the table with black chairs. "
    "Walk on the right side of the table, past the wooden dresser and stop on the blue rug."
)
WORKED_FRAGMENTS = [
    "walk onto the rug on your right towards the table with black chairs",
    "walk on the right side of the table",
    "past the wooden dresser",
    "stop on the blue rug",
]


def test_criterion_6_segmentation_fidelity():
    assert [s.text for s in split_instruction(WORKED_INSTRUCTION)] == WORKED_FRAGMENTS
    two = split_instruction("Walk out of the bathroom and turn left")
    assert [s.text for s in two] == ["walk out of the bathroom", "turn left"]

    rng = np.random.default_rng(6)
    words = ["walk", "turn", "go", "past", "the", "rug", "table", "left", "right", "door"]
    checked = 0
    for sample in gen_trajectory_dataset(count=500, seed=6):
        _assert_round_trip(sample.instruction.text)
        checked += 1
    for _ in range(500):
        pieces = [" ".join(rng.choice(words, size=rng.integers(2, 6))) for _ in range(rng.integers(1, 6))]
        text = pieces[0]
        for piece in pieces[1:]:
            text += [", ", " and ", ". "][rng.integers(0, 3)] + piece
        _assert_round_trip(text + ".")
        checked += 1
    assert checked == 1000
    _report(6, "reference segmentation examples and 1000-instruction round trip")


def _assert_round_trip(text):
    reference = [t for t in tokenize_text(text) if t not in DELIMITERS]
    recovered = [t for s in split_instruction(text) for t in s.tokens]
    assert recovered == reference, f"round trip failed for {text!r}"


def test_criterion_7_template_fidelity():
    import re

    count_re = re.compile(r"^this instruction contains \d+ actions$")
    seq_re = re.compile(r"^this is the [a-z0-9]+ action$")
    ind_re = re.compile(r"^[a-z0-9]+, perform the action [a-z0-9' ]+$")
    rng = np.random.default_rng(7)
    words = ["walk", "go", "turn", "left", "right", "past", "the", "rug", "door", "hall"]
    from navprompt.segmenter import SubInstruction

    for _ in range(1000):
        m = int(rng.integers(1, 13))
        subs = [
            SubInstruction(i + 1, " ".join(rng.choice(words, size=rng.integers(2, 6))), [])
            for i in range(m)
        ]
        subs = [SubInstruction(s.index, s.text, s.text.split()) for s in subs]
        ps = build_prompt_set(subs)
        assert count_re.match(ps.count_prompt)
        assert all(seq_re.match(s) for s in ps.sequential_prompts)
        assert all(ind_re.match(s) for s in ps.individual_prompts)
        assert len(ps.sequential_prompts) == len(ps.individual_prompts) == ps.m == m
        assert ps.overall_prompt == ", ".join(ps.individual_prompts)
    _report(7, "1000 prompt sets satisfy the template regexes and concatenation identity")


def test_criterion_8_stage1_learning(stage1_run):
    cfg, result, elapsed = stage1_run
    assert cfg.stage1_epochs == 20 and cfg.stage1_batch_size == 10
    assert cfg.num_classes == 10 and cfg.indoor_samples_per_class == 100 and cfg.indoor_noise == 0.1
    train_acc = result.metrics["train_accuracy"]
    val_acc = result.metrics["val_accuracy"]
    assert train_acc >= 0.95, f"train accuracy {train_acc:.3f}"
    assert val_acc >= 0.90, f"held-out accuracy {val_acc:.3f}"
    assert elapsed < 300.0, f"stage 1 took {elapsed:.0f}s"
    _report(8, f"stage-1 learning: train {train_acc:.3f}, val {val_acc:.3f}, {elapsed:.0f}s")


def test_criterion_9_stage2_alignment(stage2_runs):
    full_cfg, full, full_elapsed, sub = stage2_runs
    assert full_cfg.stage2_epochs == 20 and full_cfg.stage2_batch_size == 20
    assert full_cfg.trajectory_count == 500
    assert (full_cfg.subpaths_min, full_cfg.subpaths_max) == (2, 4)
    assert (full_cfg.viewpoints_min, full_cfg.viewpoints_max) == (4, 8)

    full_acc = full.metrics["retrieval"]["subpair_accuracy"]
    sub_acc = sub.metrics["retrieval"]["subpair_accuracy"]
    assert full_acc >= 0.90, f"full-prompt subpair accuracy {full_acc:.3f}"
    assert full_acc >= sub_acc, f"full {full_acc:.3f} < sub_only {sub_acc:.3f}"
    assert full_elapsed < 900.0, f"stage 2 took {full_elapsed:.0f}s"
    _report(9, f"stage-2 alignment: full {full_acc:.3f} >= sub_only {sub_acc:.3f}, {full_elapsed:.0f}s")


def test_stage2_early_descent_invariant(stage2_runs):
    # training invariant (not a numbered criterion): the mean total loss
    # strictly decreases over the first five epochs of the default run
    _, full, _, _ = stage2_runs
    epochs = full.metrics["epoch_total_loss"][:5]
    assert all(b < a for a, b in zip(epochs, epochs[1:])), epochs
    print(f"\n[invariant] stage-2 early descent: {[round(x, 4) for x in epochs]}")


def test_criterion_10_determinism_and_persistence(workdir, stage2_runs):
    base = dict(
        seed=10, stage1_epochs=2, stage1_batch_size=4, stage2_epochs=1, stage2_batch_size=5,
        d=16, heads=2, ff_mult=2, visual_layers=2, text_layers=1, cross_layers=1,
        prompt_count=3, prompt_layers=2, num_patches=2, feature_dim=6, num_classes=4,
        max_text_len=32, max_viewpoints=8, max_subpaths=6,
        indoor_samples_per_class=6, trajectory_count=12,
        subpaths_min=2, subpaths_max=3, viewpoints_min=3, viewpoints_max=5,
    )
    runs = []
    for tag in ("a", "b"):
        cfg = RunConfig(out_dir=str(workdir / f"det_{tag}"), **base)
        s1 = run_stage1(cfg)
        s2 = run_stage2(cfg, s1.checkpoint_path)
        runs.append((s1, s2))
    for attr in ("checkpoint_path", "csv_path"):
        assert open(getattr(runs[0][0], attr), "rb").read() == open(getattr(runs[1][0], attr), "rb").read()
        assert open(getattr(runs[0][1], attr), "rb").read() == open(getattr(runs[1][1], attr), "rb").read()

    # round trip: every tensor bitwise identical, frozen set preserved
    _, full, _, _ = stage2_runs
    loaded = load_checkpoint(full.checkpoint_path, "stage2")[0]
    for name in full.store.names():
        assert loaded[name].data.tobytes() == full.store[name].data.tobytes()
    assert loaded.frozen == full.store.frozen
    _report(10, "bitwise-identical reruns and lossless checkpoint round trip")

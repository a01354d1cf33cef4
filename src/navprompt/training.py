"""Training drivers for both stages, checkpointing, and retrieval evaluation.

Stage 1 fits the prompt bank and classification head with cross-entropy on a
frozen backbone.  Stage 2 keeps the backbone (and by default the prompts)
frozen and aligns prompt text features with cross-modal sub-path features
under the weighted contrastive objective.  Both drivers are bitwise
deterministic for a fixed RunConfig: all randomness flows from the seed, and
logs never contain wall-clock values.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .alignment import (
    ABLATION_MODES,
    ABLATION_TERMS,
    LossReport,
    batched_alignment_loss,
    pairwise_alignment_loss,
    retrieval_terms,
    total_loss,
)
from .data import (
    IndoorSample,
    TrajectorySample,
    gen_indoor_dataset,
    gen_trajectory_dataset,
    split_indices,
)
from .encoders import (
    EncoderConfig,
    apply_stage_freeze,
    classify_logits,
    cross_modal_encode_batch,
    init_cross_params,
    init_text_params,
    init_visual_params,
    param_shapes,
    text_encode,
    visual_encode,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FreezeViolationError,
    ParameterError,
)
from .optim import FiniteDifferenceReport, OptimConfig, Optimizer, ParamStore, backward, finite_difference_check
from .prompts import PAD_ID, Vocabulary, build_prompt_set, count_prompt, tokenize
from .segmenter import SubInstruction, check_partition
from .tensor import Tensor, gather_index, linear, log_softmax, take_rows

CHECKPOINT_FORMAT_VERSION = 1
# rows per batch of the forward-only passes: stage-1 accuracy, the viewpoint
# precompute and retrieval evaluation
ACCURACY_BATCH = 64
PRECOMPUTE_CHUNK = 256
EVAL_BATCH = 16
# loss terms with one contrastive block per trajectory; the others have one per batch
PER_PATH_TERMS = ("ind", "sub")


@dataclass
class RunConfig:
    """Flat run configuration; CLI flags and config-file keys mirror the fields."""

    seed: int = 0
    out_dir: str = "runs"
    # stage schedules
    stage1_epochs: int = 20
    stage1_batch_size: int = 10
    stage1_lr: float = 1e-3
    stage2_epochs: int = 20
    stage2_batch_size: int = 20
    stage2_lr: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    # objective
    lambda1: float = 0.5
    lambda2: float = 0.1
    temperature: float = 0.1
    smoothing: float = 0.05
    ablation: str = "full"
    kl_reverse: bool = False
    joint_prompt_tuning: bool = False
    # encoder
    d: int = 64
    heads: int = 4
    ff_mult: int = 4
    visual_layers: int = 4
    text_layers: int = 2
    cross_layers: int = 2
    prompt_count: int = 10
    prompt_layers: int = 4
    num_patches: int = 4
    feature_dim: int = 16
    num_classes: int = 10
    max_text_len: int = 48
    max_viewpoints: int = 16
    max_subpaths: int = 12
    deep_prompt_mode: str = "replace"
    # datasets
    indoor_samples_per_class: int = 100
    indoor_noise: float = 0.1
    trajectory_count: int = 500
    subpaths_min: int = 2
    subpaths_max: int = 4
    viewpoints_min: int = 4
    viewpoints_max: int = 8
    viewpoint_noise: float = 0.1
    duplicate_prob: float = 0.3
    val_fraction: float = 0.1

    def encoder(self) -> EncoderConfig:
        enc = EncoderConfig(**{f.name: getattr(self, f.name) for f in fields(EncoderConfig)})
        enc.validate()
        return enc

    def indoor_dataset(self) -> list[IndoorSample]:
        return gen_indoor_dataset(
            num_classes=self.num_classes, samples_per_class=self.indoor_samples_per_class,
            noise=self.indoor_noise, seed=self.seed,
            num_patches=self.num_patches, feature_dim=self.feature_dim,
        )

    def trajectory_dataset(self) -> list[TrajectorySample]:
        return gen_trajectory_dataset(
            count=self.trajectory_count,
            subpaths_range=(self.subpaths_min, self.subpaths_max),
            viewpoints_range=(self.viewpoints_min, self.viewpoints_max),
            seed=self.seed, feature_dim=self.feature_dim,
            noise=self.viewpoint_noise, duplicate_prob=self.duplicate_prob,
        )

    def optim(self, lr: float) -> OptimConfig:
        return OptimConfig(
            algorithm=self.optimizer, learning_rate=lr,
            adam_beta1=self.adam_beta1, adam_beta2=self.adam_beta2,
            adam_eps=self.adam_eps, weight_decay=self.weight_decay,
        )

    def validate(self) -> None:
        self.encoder()
        self.optim(self.stage1_lr).validate()
        self.optim(self.stage2_lr).validate()
        if not (0 <= self.val_fraction < 1):
            raise ParameterError("val_fraction must lie in [0, 1)")
        if self.ablation not in ABLATION_MODES:
            raise ParameterError(f"unknown ablation {self.ablation!r}")
        if self.subpaths_max > self.max_subpaths or self.viewpoints_max > self.max_viewpoints:
            raise ParameterError("dataset ranges exceed encoder sequence capacity")


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; keys must be RunConfig field names."""
    known = {f.name: f.type for f in fields(RunConfig)}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = coerce_field(key, value)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return out


def coerce_field(key: str, value: str):
    current = getattr(RunConfig(), key)
    if isinstance(current, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ParameterError(f"{key} expects a boolean, got {value!r}")
    if isinstance(current, int):
        try:
            return int(value)
        except ValueError:
            raise ParameterError(f"{key} expects an integer, got {value!r}") from None
    if isinstance(current, float):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ParameterError(f"{key} expects a float, got {value!r}")
        return number
    return value


# -- checkpointing -----------------------------------------------------------------


def save_checkpoint(store: ParamStore, config: dict, path: str) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config,
        "tensors": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in store.entries.items()
        },
        "frozen": sorted(store.frozen),
    }
    tmp = path + ".tmp"
    # json.dumps takes the C encoder; json.dump always takes the pure-Python
    # iterencode path, at the same bytes and about twice the time
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[ParamStore, dict]:
    """Load and validate a checkpoint; nothing is returned on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: truncated or invalid checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {payload.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    config = payload.get("config", {})
    tensors = payload.get("tensors", {})
    frozen = payload.get("frozen", [])
    if not isinstance(config, dict) or not isinstance(tensors, dict):
        raise CheckpointError(f"{path}: 'config' and 'tensors' must be JSON objects")
    if not isinstance(frozen, list) or not all(isinstance(n, str) for n in frozen):
        raise CheckpointError(f"{path}: 'frozen' must be a list of tensor names")

    expected = None
    if "encoder" in config:
        try:
            enc = EncoderConfig(**config["encoder"])
        except TypeError as exc:
            raise CheckpointError(f"{path}: invalid encoder config ({exc})") from exc
        expected = param_shapes(enc, config.get("vocab_size"))
        missing = set(expected) - set(tensors)
        extra = set(tensors) - set(expected)
        if missing or extra:
            raise CheckpointError(f"{path}: tensor set mismatch (missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")

    store = ParamStore()
    for name in sorted(tensors):
        entry = tensors[name]
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise CheckpointError(f"{path}: tensor {name!r} needs 'shape' and 'data' fields")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name!r} shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
        try:
            data = np.asarray(entry["data"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: tensor {name!r} data is not a flat list of numbers") from exc
        if data.ndim != 1:
            raise CheckpointError(f"{path}: tensor {name!r} data is not a flat list of numbers")
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        if data.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor {name!r} data length {data.size} does not match shape {shape}")
        if expected is not None and shape != expected[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, config implies {expected[name]}")
        store.add(name, data.reshape(shape))
    store.set_frozen(set(frozen) & set(store.names()))
    return store, config


def _assert_frozen_unchanged(store: ParamStore, baseline: dict[str, np.ndarray], where: str) -> None:
    for name, ref in baseline.items():
        if not np.array_equal(store[name].data, ref):
            raise FreezeViolationError(f"frozen parameter {name!r} changed during {where}")


def _float_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _batches(indices: Sequence[int], size: int):
    for i in range(0, len(indices), size):
        yield list(indices[i:i + size])


@dataclass
class StageResult:
    metrics: dict
    store: ParamStore
    checkpoint_path: str | None = None
    csv_path: str | None = None
    summary_path: str | None = None
    vocab_path: str | None = None


# -- stage 1 ------------------------------------------------------------------------


def stage1_loss(features: np.ndarray, labels: np.ndarray, store: ParamStore, enc: EncoderConfig) -> Tensor:
    """Mean cross-entropy of the head on prompted CLS features."""
    state = visual_encode(features, store, enc)
    cls = state.cls.reshape(features.shape[0], enc.d)
    logp = log_softmax(classify_logits(cls, store), axis=-1)
    return -gather_index(logp, labels).mean()


def _stage1_accuracy(samples: list[IndoorSample], indices: Sequence[int], store: ParamStore,
                     enc: EncoderConfig) -> float:
    if not indices:
        return float("nan")
    hits = 0
    for batch in _batches(indices, ACCURACY_BATCH):
        feats = np.stack([samples[i].features for i in batch])
        labels = np.array([samples[i].label for i in batch])
        state = visual_encode(feats, store, enc)
        logits = classify_logits(state.cls.reshape(len(batch), enc.d), store)
        hits += int((logits.data.argmax(axis=1) == labels).sum())
    return hits / len(indices)


def run_stage1(cfg: RunConfig, dataset: list[IndoorSample] | None = None,
               write_outputs: bool = True) -> StageResult:
    cfg.validate()
    enc = cfg.encoder()
    if dataset is None:
        dataset = cfg.indoor_dataset()
    train_idx, val_idx = split_indices(len(dataset), cfg.seed, cfg.val_fraction)
    if not train_idx:
        raise DatasetError("stage 1 training split is empty")

    store = ParamStore()
    init_visual_params(store, enc, np.random.default_rng([cfg.seed, 11]))
    trainable = apply_stage_freeze(store, "stage1")
    baseline = {name: store[name].data.copy() for name in store.frozen}

    optimizer = Optimizer(cfg.optim(cfg.stage1_lr))
    shuffle_rng = np.random.default_rng([cfg.seed, 12])
    rows = []
    for epoch in range(cfg.stage1_epochs):
        order = [train_idx[i] for i in shuffle_rng.permutation(len(train_idx))]
        losses = []
        for batch in _batches(order, cfg.stage1_batch_size):
            feats = np.stack([dataset[i].features for i in batch])
            labels = np.array([dataset[i].label for i in batch])
            loss = stage1_loss(feats, labels, store, enc)
            grads = backward(loss, store)
            optimizer.step(store, grads)
            _assert_frozen_unchanged(store, baseline, f"stage1 epoch {epoch}")
            losses.append(loss.item())
        train_acc = _stage1_accuracy(dataset, train_idx, store, enc)
        val_acc = _stage1_accuracy(dataset, val_idx, store, enc)
        rows.append([epoch, repr(float(np.mean(losses))), repr(train_acc), repr(val_acc)])

    # after any epoch, the last one has already measured the final store
    if cfg.stage1_epochs == 0:
        train_acc = _stage1_accuracy(dataset, train_idx, store, enc)
        val_acc = _stage1_accuracy(dataset, val_idx, store, enc)
    prompt_params = enc.prompt_layers * enc.prompt_count * enc.d if enc.prompt_count else 0
    metrics = {
        "train_accuracy": train_acc,
        "val_accuracy": val_acc,
        "trainable_parameters": int(sum(store[n].size for n in trainable)),
        "prompt_parameters": int(prompt_params),
        "epochs": cfg.stage1_epochs,
        "train_size": len(train_idx),
        "val_size": len(val_idx),
    }
    result = StageResult(metrics=metrics, store=store)
    if write_outputs:
        _write_stage_outputs(result, cfg, enc, "stage1", ["epoch", "train_loss", "train_acc", "val_acc"], rows)
    return result


def _write_stage_outputs(result: StageResult, cfg: RunConfig, enc: EncoderConfig, stage: str,
                         header: list[str], rows: list[list], vocab_size: int | None = None) -> None:
    """Write ``<stage>_checkpoint.json``, ``_log.csv`` and ``_summary.json`` into cfg.out_dir."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    config = {"encoder": asdict(enc), "stage": stage, "seed": cfg.seed}
    if vocab_size is not None:
        config["vocab_size"] = vocab_size
    result.checkpoint_path = os.path.join(cfg.out_dir, f"{stage}_checkpoint.json")
    save_checkpoint(result.store, config, result.checkpoint_path)
    result.csv_path = os.path.join(cfg.out_dir, f"{stage}_log.csv")
    _write_csv(result.csv_path, header, rows)
    result.summary_path = os.path.join(cfg.out_dir, f"{stage}_summary.json")
    with open(result.summary_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": result.metrics, "config": asdict(cfg)}, fh, sort_keys=True, indent=2)


# -- stage 2 ------------------------------------------------------------------------


@dataclass
class _Prepared:
    sample: TrajectorySample
    m: int
    ids: dict[str, np.ndarray]  # text name -> (rows, max_text_len) token ids


def _texts_for(sample: TrajectorySample) -> dict[str, list[str]]:
    """Every text of a trajectory that stage 2 encodes, by name."""
    ps = build_prompt_set([
        SubInstruction(index=i + 1, text=text, tokens=text.split())
        for i, text in enumerate(sample.sub_instructions)
    ])
    return {
        "ind": ps.individual_prompts, "seq": ps.sequential_prompts,
        "cnt": [ps.count_prompt], "ove": [ps.overall_prompt],
        "sub": sample.sub_instructions, "ins": [sample.instruction.text],
    }


def build_vocabulary(dataset: list[TrajectorySample], max_subpaths: int) -> Vocabulary:
    texts = [t for sample in dataset for group in _texts_for(sample).values() for t in group]
    # count prompts for every candidate size keep the count metric in-vocabulary
    texts.extend(count_prompt(k) for k in range(1, max_subpaths + 1))
    return Vocabulary.build(texts)


def prepare_trajectories(dataset: list[TrajectorySample], vocab: Vocabulary, enc: EncoderConfig) -> list[_Prepared]:
    prepared = []
    for sample in dataset:
        if len(sample.sub_instructions) != len(sample.chunks):
            raise AlignmentError(
                f"{len(sample.sub_instructions)} sub-instructions but {len(sample.chunks)} sub-path chunks"
            )
        check_partition(sample.chunks, sample.viewpoints.shape[0])
        ids = {name: np.array([tokenize(t, vocab, enc.max_text_len) for t in texts])
               for name, texts in _texts_for(sample).items()}
        prepared.append(_Prepared(sample, len(sample.sub_instructions), ids))
    return prepared


def precompute_viewpoint_features(dataset: list[TrajectorySample], store: ParamStore,
                                  enc: EncoderConfig) -> list[np.ndarray]:
    """Frozen-backbone viewpoint encodings, reusable across every step.

    Each viewpoint is encoded as a single-patch image; its embedding is the
    patch position's final-layer output, whose residual stream keeps the
    viewpoint's own content (the CLS position is reserved for the stage-1
    classification contract and is nearly input-independent at small init).
    """
    all_rows = np.concatenate([s.viewpoints for s in dataset], axis=0)
    outputs = []
    for i in range(0, all_rows.shape[0], PRECOMPUTE_CHUNK):
        block = all_rows[i:i + PRECOMPUTE_CHUNK][:, None, :]  # each viewpoint is one patch
        state = visual_encode(block, store, enc)
        outputs.append(state.patch_block.data.reshape(block.shape[0], enc.d))
    flat = np.concatenate(outputs, axis=0)
    features = []
    offset = 0
    for s in dataset:
        t_len = s.viewpoints.shape[0]
        features.append(flat[offset:offset + t_len].copy())
        offset += t_len
    return features


def _live_viewpoint_features(batch: list[_Prepared], store: ParamStore, enc: EncoderConfig) -> Tensor:
    """The batch's viewpoint features, stacked in batch order, through the prompted visual encoder."""
    rows = np.concatenate([p.sample.viewpoints for p in batch], axis=0)[:, None, :]
    state = visual_encode(rows, store, enc)
    return state.patch_block.reshape(rows.shape[0], enc.d)


def pooled_text_features(ids: np.ndarray, store: ParamStore, enc: EncoderConfig) -> Tensor:
    """Pooled text features for id rows, deduplicated and pad-trimmed.

    Trailing all-pad columns are masked out of attention and never pooled, so
    dropping them is exact; identical rows are encoded once and fanned back
    out with a scatter-add gradient, which is also an exact rewrite.
    """
    lengths = (ids != PAD_ID).sum(axis=1)
    trimmed = ids[:, : max(3, int(lengths.max()))]
    unique, inverse = np.unique(trimmed, axis=0, return_inverse=True)
    return take_rows(text_encode(unique, store, enc), inverse.reshape(-1))


def _padded_rows(rows: Tensor, batch: list[_Prepared]) -> Tensor:
    """Rows stacked over the batch, laid out as (B, M_max, d).

    Slot j of trajectory b holds its row j; slots past its M repeat its first
    row and are padding, which the masked per-trajectory loss ignores.
    """
    sizes = np.array([p.m for p in batch])
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(sizes.max())
    index = starts[:, None] + np.where(slot < sizes[:, None], slot, 0)
    return take_rows(rows, index.reshape(-1)).reshape(len(batch), int(sizes.max()), rows.shape[1])


def stage2_features(
    batch: list[_Prepared],
    store: ParamStore,
    enc: EncoderConfig,
    terms: Sequence[str],
    viewpoints: Tensor,
) -> dict[str, tuple[Tensor, Tensor]]:
    """The projected (text, visual) features of each requested term.

    ``viewpoints`` stacks every trajectory's viewpoint features in batch
    order.  ``ind`` and ``sub`` give (B, M_max, d) rows: each trajectory's
    sub-instruction rows against its sub-path rows, padded past its M (see
    ``_padded_rows``).  ``ove``, ``ins`` and ``cnt`` give (B, d) rows, one
    per trajectory.  When a prompted term (ind, ove, cnt) is requested, the
    sequential prompts and the count token enter the cross-modal encoder.
    """
    prompted = not {"ind", "ove", "cnt"}.isdisjoint(terms)
    wanted = {*terms, "seq"} if prompted else set(terms)

    def ids(name: str) -> np.ndarray:
        return np.concatenate([p.ids[name] for p in batch], axis=0)

    # the short texts share one pooled batch; overall prompts and instructions
    # are much longer, and encoding each of them separately keeps the short
    # batch trimmed to its own length
    blocks = {name: ids(name) for name in ("sub", "ind", "seq", "cnt") if name in wanted}
    pooled = pooled_text_features(np.concatenate(list(blocks.values()), axis=0), store, enc)
    text = {}
    cursor = 0
    for name, block in blocks.items():
        text[name] = pooled[cursor:cursor + len(block)]
        cursor += len(block)
    for name in ("ove", "ins"):
        if name in wanted:
            text[name] = pooled_text_features(ids(name), store, enc)

    cross = cross_modal_encode_batch(
        viewpoints, text["seq"] if prompted else None,
        [p.sample.chunks for p in batch], store, enc, include_count=prompted,
    )
    visual = {"cnt": cross.count, "ove": cross.overall, "ins": cross.overall}

    w_t, b_t = store["proj.text.w"], store["proj.text.b"]
    w_v, b_v = store["proj.visual.w"], store["proj.visual.b"]
    features = {}
    for term in terms:
        text_proj = linear(text[term], w_t, b_t)
        if term in PER_PATH_TERMS:
            features[term] = (_padded_rows(text_proj, batch), linear(cross.subpaths, w_v, b_v))
        else:
            features[term] = (text_proj, linear(visual[term], w_v, b_v))
    return features


def stage2_losses(
    batch: list[_Prepared],
    store: ParamStore,
    enc: EncoderConfig,
    cfg: RunConfig,
    viewpoints: Sequence[np.ndarray] | None = None,
) -> tuple[Tensor, LossReport]:
    """The weighted alignment loss of one mini-batch under cfg.ablation.

    ``viewpoints`` holds each trajectory's precomputed viewpoint features, in
    batch order; None encodes them live, through the visual prompts.  Each
    term's loss is the mean of its contrastive losses: one per trajectory for
    ind and sub, scored together by one masked batched loss, and one over
    the batch for ove and cnt.
    """
    if viewpoints is None:
        vp = _live_viewpoint_features(batch, store, enc)
    elif len(viewpoints) != len(batch):
        raise AlignmentError(f"{len(viewpoints)} viewpoint feature blocks for a batch of {len(batch)}")
    else:
        vp = Tensor(np.concatenate(viewpoints, axis=0))

    features = stage2_features(batch, store, enc, ABLATION_TERMS[cfg.ablation], vp)
    sizes = np.array([p.m for p in batch])
    losses: dict[str, Tensor] = {}
    for term, (text, visual) in features.items():
        if term in PER_PATH_TERMS:
            losses[term] = batched_alignment_loss(text, visual, sizes, cfg.temperature, cfg.smoothing, cfg.kl_reverse)
        else:
            losses[term] = pairwise_alignment_loss(text, visual, cfg.temperature, cfg.smoothing, cfg.kl_reverse)
    return total_loss(losses, cfg.lambda1, cfg.lambda2)


def run_stage2(cfg: RunConfig, stage1_checkpoint, dataset: list[TrajectorySample] | None = None,
               write_outputs: bool = True) -> StageResult:
    cfg.validate()
    enc = cfg.encoder()
    if isinstance(stage1_checkpoint, str):
        store, ckpt_config = load_checkpoint(stage1_checkpoint)
        if "encoder" in ckpt_config and EncoderConfig(**ckpt_config["encoder"]) != enc:
            raise ConfigurationError("stage-1 checkpoint was built with a different encoder config")
    else:
        store = stage1_checkpoint.copy()

    if dataset is None:
        dataset = cfg.trajectory_dataset()
    vocab = build_vocabulary(dataset, enc.max_subpaths)
    rng = np.random.default_rng([cfg.seed, 21])
    init_text_params(store, enc, len(vocab), rng)
    init_cross_params(store, enc, rng)
    trainable = apply_stage_freeze(store, "stage2", cfg.joint_prompt_tuning)
    baseline = {name: store[name].data.copy() for name in store.frozen}

    prepared = prepare_trajectories(dataset, vocab, enc)
    train_idx, val_idx = split_indices(len(prepared), cfg.seed, cfg.val_fraction)
    if not train_idx:
        raise DatasetError("stage 2 training split is empty")

    cache = None
    if not cfg.joint_prompt_tuning:
        cache = precompute_viewpoint_features(dataset, store, enc)

    optimizer = Optimizer(cfg.optim(cfg.stage2_lr))
    shuffle_rng = np.random.default_rng([cfg.seed, 22])
    rows = []
    step = 0
    epoch_totals = []
    for epoch in range(cfg.stage2_epochs):
        order = [train_idx[i] for i in shuffle_rng.permutation(len(train_idx))]
        epoch_losses = []
        for batch_idx in _batches(order, cfg.stage2_batch_size):
            batch = [prepared[i] for i in batch_idx]
            viewpoints = None if cache is None else [cache[i] for i in batch_idx]
            total, report = stage2_losses(batch, store, enc, cfg, viewpoints)
            grads = backward(total, store)
            optimizer.step(store, grads)
            _assert_frozen_unchanged(store, baseline, f"stage2 step {step}")
            # the l_ind_sum column holds the per-trajectory term: ind, or sub
            per_path = report.l_ind if report.l_sub is None else report.l_sub
            rows.append([
                step,
                _float_cell(per_path),
                _float_cell(report.l_ove),
                _float_cell(report.l_cnt),
                _float_cell(report.total),
            ])
            epoch_losses.append(report.total)
            step += 1
        epoch_totals.append(float(np.mean(epoch_losses)))

    metrics = {
        "epoch_total_loss": epoch_totals,
        "trainable_parameters": int(sum(store[n].size for n in trainable)),
        "train_size": len(train_idx),
        "val_size": len(val_idx),
        "vocab_size": len(vocab),
        "ablation": cfg.ablation,
    }
    eval_idx = val_idx if val_idx else train_idx
    metrics["retrieval"] = evaluate_retrieval(
        store, enc, [dataset[i] for i in eval_idx], vocab,
        mode=cfg.ablation, cached_features=[cache[i] for i in eval_idx] if cache else None,
    )

    result = StageResult(metrics=metrics, store=store)
    if write_outputs:
        _write_stage_outputs(result, cfg, enc, "stage2", ["step", "l_ind_sum", "l_ove", "l_cnt", "total"], rows,
                             vocab_size=len(vocab))
        result.vocab_path = os.path.join(cfg.out_dir, "vocab.json")
        vocab.save(result.vocab_path)
    return result


# -- evaluation -------------------------------------------------------------------


@dataclass
class TrajectoryFeatures:
    """Projected features for one trajectory, ready for argmax retrieval."""

    text_feats: np.ndarray            # (M, d) per-sub-instruction
    visual_feats: np.ndarray          # (M, d) per-sub-path
    overall_text: np.ndarray          # (d,)
    overall_visual: np.ndarray        # (d,)
    count_feature: np.ndarray | None  # (d,)
    m: int


def retrieval_metrics(features: list[TrajectoryFeatures],
                      count_candidates: dict[int, np.ndarray] | None = None) -> dict:
    """Pure metric computation over extracted features.

    subpair: within each trajectory, the argmax sub-path of each
    sub-instruction row must be its own; trajectory: global argmax of each
    overall text feature over all trajectories' overall visual features;
    count: the argmax over the candidate count-prompt features, keyed by the
    count each one states, must pick the trajectory's true sub-path count.
    """
    if not features:
        raise DatasetError("evaluation dataset is empty")
    sub_hits = 0
    sub_total = 0
    count_hits = 0
    have_counts = bool(count_candidates) and all(f.count_feature is not None for f in features)
    if have_counts:
        counts = list(count_candidates)
        cand = _unit_rows(np.stack(list(count_candidates.values())))
    for f in features:
        sim = _unit_rows(f.text_feats) @ _unit_rows(f.visual_feats).T
        sub_hits += int((sim.argmax(axis=1) == np.arange(f.m)).sum())
        sub_total += f.m
        if have_counts:
            count_hits += int(counts[int((cand @ _unit_rows(f.count_feature[None, :])[0]).argmax())] == f.m)
    text_mat = _unit_rows(np.stack([f.overall_text for f in features]))
    vis_mat = _unit_rows(np.stack([f.overall_visual for f in features]))
    traj_sim = text_mat @ vis_mat.T
    return {
        "subpair_accuracy": sub_hits / sub_total,
        "trajectory_accuracy": float((traj_sim.argmax(axis=1) == np.arange(len(features))).mean()),
        "count_accuracy": (count_hits / len(features)) if have_counts else None,
    }


def evaluate_retrieval(
    store: ParamStore,
    enc: EncoderConfig,
    dataset: list[TrajectorySample],
    vocab: Vocabulary,
    mode: str = "full",
    cached_features: list[np.ndarray] | None = None,
) -> dict:
    """Argmax retrieval metrics over sub-pairs, whole trajectories, and counts.

    The count candidates are the count prompts of the sub-path counts that
    occur among the evaluated trajectories, the counts training shows.
    """
    if not dataset:
        raise DatasetError("evaluation dataset is empty")
    terms = retrieval_terms(mode)
    per_path, whole = terms[:2]
    prepared = prepare_trajectories(dataset, vocab, enc)
    if cached_features is None:
        cached_features = precompute_viewpoint_features(dataset, store, enc)

    count_candidates = None
    if "cnt" in terms:
        counts = sorted({p.m for p in prepared})
        cnt_ids = np.array([tokenize(count_prompt(k), vocab, enc.max_text_len) for k in counts])
        pooled = pooled_text_features(cnt_ids, store, enc)
        count_candidates = dict(zip(counts, linear(pooled, store["proj.text.w"], store["proj.text.b"]).data))

    features: list[TrajectoryFeatures] = []
    for start in range(0, len(prepared), EVAL_BATCH):
        batch = prepared[start:start + EVAL_BATCH]
        viewpoints = Tensor(np.concatenate(cached_features[start:start + len(batch)], axis=0))
        feats = stage2_features(batch, store, enc, terms, viewpoints)
        text, visual = (t.data for t in feats[per_path])
        whole_text, whole_visual = (t.data for t in feats[whole])
        count_feats = feats["cnt"][1].data if "cnt" in feats else None
        for j, p in enumerate(batch):
            features.append(
                TrajectoryFeatures(
                    text_feats=text[j, :p.m],
                    visual_feats=visual[j, :p.m],
                    overall_text=whole_text[j],
                    overall_visual=whole_visual[j],
                    count_feature=None if count_feats is None else count_feats[j],
                    m=p.m,
                )
            )
    return retrieval_metrics(features, count_candidates)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
    return x / norms


# -- gradient fidelity -----------------------------------------------------------


def gradcheck_config() -> RunConfig:
    """Small widths so an exhaustive central-difference sweep stays fast."""
    return RunConfig(
        seed=7,
        d=8, heads=2, ff_mult=2,
        visual_layers=2, text_layers=1, cross_layers=1,
        prompt_count=2, prompt_layers=2,
        num_patches=2, feature_dim=4, num_classes=3,
        max_text_len=24, max_viewpoints=8, max_subpaths=4,
        subpaths_min=3, subpaths_max=3, viewpoints_min=6, viewpoints_max=6,
        trajectory_count=2, indoor_samples_per_class=2,
    )


def stage1_gradient_report(cfg: RunConfig | None = None, eps: float = 1e-5) -> FiniteDifferenceReport:
    cfg = cfg or gradcheck_config()
    enc = cfg.encoder()
    dataset = cfg.indoor_dataset()
    feats = np.stack([s.features for s in dataset[:4]])
    labels = np.array([s.label for s in dataset[:4]])
    store = ParamStore()
    init_visual_params(store, enc, np.random.default_rng([cfg.seed, 11]))
    apply_stage_freeze(store, "stage1")
    return finite_difference_check(lambda s: stage1_loss(feats, labels, s, enc), store, eps=eps)


def stage2_gradient_report(cfg: RunConfig | None = None, eps: float = 1e-5) -> FiniteDifferenceReport:
    cfg = cfg or gradcheck_config()
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
    # joint prompt tuning encodes the viewpoints live, through the prompts
    cache = None if cfg.joint_prompt_tuning else precompute_viewpoint_features(dataset, store, enc)

    def loss_fn(s):
        total, _ = stage2_losses(prepared, s, enc, cfg, cache)
        return total

    return finite_difference_check(loss_fn, store, eps=eps)

"""Training drivers for both stages, checkpointing, and retrieval evaluation.

Stage 1 fits the prompt bank and classification head with cross-entropy on a
frozen backbone.  Stage 2 keeps the backbone and the prompts frozen, encodes
every viewpoint once through them, and aligns text features with cross-modal
sub-path features under the weighted contrastive objective; it trains exactly
the tensors that its mode's loss reads.  Its records flow one way: each
validated ``TrajectorySample`` gets its frozen viewpoint features
(``precompute_viewpoint_features``), then its token ids
(``prepare_trajectories``); the resulting ``_Prepared`` record is all that a
training step (``stage2_losses``) or an eval batch (``evaluate_retrieval``)
reads.  Both read one feature shape, ``stage2_features``' (text, visual,
sizes) groups of (K, M_max, d) rows: one group per trajectory for the
per-path terms, the one group of the batch for the others.  A step scores
each term's groups with one ``pairwise_alignment_loss`` call; retrieval
ranks them with one ranker, ``retrieval_hits``.  Both drivers are bitwise
deterministic for a fixed RunConfig: all randomness flows from the seed, and
logs never contain wall-clock values.  Both drivers train through one loop,
``_train``: shuffled mini-batches of Adam steps, each followed by a check
that no frozen tensor moved.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .alignment import (
    ABLATION_MODES,
    ABLATION_TERMS,
    DEFAULT_LAMBDA1,
    DEFAULT_LAMBDA2,
    DEFAULT_SMOOTHING,
    DEFAULT_TEMPERATURE,
    PROMPTED_MODES,
    pairwise_alignment_loss,
    retrieval_terms,
    similarity_matrix,
    total_loss,
)
from .data import (
    DEFAULT_DUPLICATE_PROB,
    DEFAULT_NOISE,
    DEFAULT_SAMPLES_PER_CLASS,
    DEFAULT_SUBPATHS,
    DEFAULT_TRAJECTORY_COUNT,
    DEFAULT_VIEWPOINTS,
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
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FreezeViolationError,
    ParameterError,
)
from .optim import (DEFAULT_LEARNING_RATE, FiniteDifferenceReport, Optimizer, ParamStore, backward,
                    finite_difference_check)
from .prompts import PAD_ID, Vocabulary, count_prompt, tokenize
from .tensor import Tensor, concat, linear, log_softmax, no_grad, take_rows

CHECKPOINT_FORMAT_VERSION = 3
# rows per batch of the forward-only passes: stage-1 accuracy, the viewpoint
# precompute and retrieval evaluation
ACCURACY_BATCH = 64
PRECOMPUTE_CHUNK = 128
EVAL_BATCH = 16
# loss terms with one contrastive group per trajectory; the others have one group per batch
PER_PATH_TERMS = ("ind", "sub")


@dataclass
class RunConfig(EncoderConfig):
    """Flat run configuration; CLI flags and config-file keys mirror the fields.

    The encoder fields come from EncoderConfig; other defaults are the ones their modules declare.
    """

    seed: int = 0
    out_dir: str = "runs"
    # stage schedules
    stage1_epochs: int = 20
    stage1_batch_size: int = 10
    stage1_lr: float = DEFAULT_LEARNING_RATE
    stage2_epochs: int = 20
    stage2_batch_size: int = 20
    stage2_lr: float = DEFAULT_LEARNING_RATE
    # objective
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    temperature: float = DEFAULT_TEMPERATURE
    smoothing: float = DEFAULT_SMOOTHING
    ablation: str = "full"
    # datasets
    indoor_samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS
    indoor_noise: float = DEFAULT_NOISE
    trajectory_count: int = DEFAULT_TRAJECTORY_COUNT
    subpaths_min: int = DEFAULT_SUBPATHS[0]
    subpaths_max: int = DEFAULT_SUBPATHS[1]
    viewpoints_min: int = DEFAULT_VIEWPOINTS[0]
    viewpoints_max: int = DEFAULT_VIEWPOINTS[1]
    viewpoint_noise: float = DEFAULT_NOISE
    duplicate_prob: float = DEFAULT_DUPLICATE_PROB
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

    def validate(self) -> None:
        self.encoder()
        for name in ("stage1_lr", "stage2_lr", "temperature"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be above 0, got {getattr(self, name)}")
        # a bound given by name is another field's value
        for name, least in (("seed", 0), ("stage1_batch_size", 1), ("stage2_batch_size", 1), ("stage1_epochs", 0),
                            ("stage2_epochs", 0), ("indoor_noise", 0), ("viewpoint_noise", 0),
                            ("indoor_samples_per_class", 1), ("trajectory_count", 1), ("subpaths_min", 1),
                            ("subpaths_max", "subpaths_min"), ("viewpoints_max", "viewpoints_min"),
                            ("viewpoints_max", "subpaths_max"), ("max_subpaths", "subpaths_max"),
                            ("max_viewpoints", "viewpoints_max"), ("lambda1", 0), ("lambda2", 0),
                            ("num_classes", 2)):
            bound = getattr(self, least) if isinstance(least, str) else least
            if not getattr(self, name) >= bound:
                label = f"{least} ({bound})" if isinstance(least, str) else bound
                raise ParameterError(f"{name} must be at least {label}, got {getattr(self, name)}")
        # effective_smoothing caps every M x M block at 1/(2M), so a value at or
        # above the cap of the smallest block would be clamped everywhere; at 0
        # the target has zeros where every softmax row has mass, and the KL
        # divergence is undefined
        cap = 1 / (2 * self.subpaths_min)
        if not 0 < self.smoothing < cap:
            raise ParameterError(f"smoothing must lie in (0, 1/(2*subpaths_min)) = (0, {cap:g}), got {self.smoothing}")
        if not 0 <= self.duplicate_prob <= 1:
            raise ParameterError(f"duplicate_prob must lie in [0, 1], got {self.duplicate_prob}")
        if not (0 <= self.val_fraction < 1):
            raise ParameterError("val_fraction must lie in [0, 1)")
        if self.ablation not in ABLATION_MODES:
            raise ParameterError(f"unknown ablation {self.ablation!r}")


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; keys must be RunConfig field names."""
    known = {f.name: f.type for f in fields(RunConfig)}
    out: dict = {}
    set_on: dict[str, int] = {}
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise ParameterError(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            out[key] = coerce_field(key, value)
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return out


def coerce_field(key: str, value: str):
    current = getattr(RunConfig(), key)
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


def _envelope_digest(config: dict, frozen: list):
    """A sha256 fed the canonical JSON of ``config`` and ``frozen``; the tensors follow it."""
    digest = hashlib.sha256()
    digest.update(json.dumps({"config": config, "frozen": frozen}, sort_keys=True).encode("utf-8"))
    return digest


def _digest_tensor(digest, name: str, shape, raw: bytes) -> None:
    """Feed one tensor into the checkpoint digest: ``[name, shape]`` as JSON, then its bytes."""
    digest.update(json.dumps([name, list(shape)]).encode("utf-8"))
    digest.update(raw)


def save_checkpoint(store: ParamStore, config: dict, path: str) -> None:
    """Write format 3: each tensor as base64 of its little-endian float64 bytes, and one sha256
    over the config, the frozen set and every tensor's name, shape and bytes."""
    frozen = sorted(store.frozen)
    digest = _envelope_digest(config, frozen)
    tensors = {}
    for name in sorted(store.entries):
        data = store.entries[name].data
        raw = data.astype("<f8", copy=False).tobytes()
        _digest_tensor(digest, name, data.shape, raw)
        tensors[name] = {"shape": list(data.shape), "data": base64.b64encode(raw).decode("ascii")}
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config,
        "tensors": tensors,
        "frozen": frozen,
        "sha256": digest.hexdigest(),
    }
    tmp = path + ".tmp"
    # json.dumps takes the C encoder; json.dump always takes the pure-Python
    # iterencode path, at the same bytes and about twice the time
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def layout_mismatch(store: ParamStore, expected: dict[str, tuple[int, ...]]) -> str | None:
    """How a store's tensor names or shapes differ from a ``param_shapes`` layout, or None."""
    missing = set(expected) - set(store.names())
    extra = set(store.names()) - set(expected)
    if missing or extra:
        return f"tensor set mismatch (missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
    for name, shape in expected.items():
        if store[name].shape != shape:
            return f"tensor {name!r} has shape {store[name].shape}, config implies {shape}"
    return None


def load_checkpoint(path: str, stage: str) -> tuple[ParamStore, EncoderConfig, Vocabulary | None, dict]:
    """Load and verify a ``stage`` checkpoint; nothing is returned on failure.

    Returns the store, the encoder config and the vocabulary (None for
    stage 1) that the checks built, and the config.  The digest is compared
    before the config is read, so the config checks that follow it see only
    what a writer signed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, too deep a nesting
        raise CheckpointError(f"{path}: truncated or invalid checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {version!r} is not read; "
            f"re-run the stage that wrote it to get a format_version {CHECKPOINT_FORMAT_VERSION} checkpoint"
        )
    config = payload.get("config", {})
    tensors = payload.get("tensors", {})
    frozen = payload.get("frozen", [])
    if not isinstance(config, dict) or not isinstance(tensors, dict):
        raise CheckpointError(f"{path}: 'config' and 'tensors' must be JSON objects")
    if not isinstance(frozen, list) or not all(isinstance(n, str) for n in frozen):
        raise CheckpointError(f"{path}: 'frozen' must be a list of tensor names")

    store = ParamStore()
    digest = _envelope_digest(config, frozen)
    for name in sorted(tensors):
        entry = tensors[name]
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise CheckpointError(f"{path}: tensor {name!r} needs 'shape' and 'data' fields")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name!r} shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
        if not isinstance(entry["data"], str):
            raise CheckpointError(f"{path}: tensor {name!r} data is not a base64 string")
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except ValueError as exc:  # binascii.Error, and non-ASCII text
            raise CheckpointError(f"{path}: tensor {name!r} data is not valid base64 ({exc})") from exc
        nbytes = 8 * math.prod(shape)
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: tensor {name!r} holds {len(raw)} bytes, shape {shape} needs {nbytes}")
        _digest_tensor(digest, name, shape, raw)
        data = np.frombuffer(raw, "<f8").reshape(shape)
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        store.add(name, data)
    if payload.get("sha256") != digest.hexdigest():
        raise CheckpointError(
            f"{path}: sha256 {payload.get('sha256')!r} does not match the config, frozen set and tensors "
            "(corrupted or edited)"
        )

    found = config.get("stage")
    if found != stage:
        raise CheckpointError(f"{path}: config records stage {found!r}, where a {stage!r} checkpoint is needed")
    if stage == "stage2" and config.get("ablation") not in ABLATION_MODES:
        raise CheckpointError(f"{path}: config records no known ablation mode ({config.get('ablation')!r}); "
                              "re-run stage 2 to get a checkpoint that does")
    if not isinstance(config.get("encoder"), dict):
        raise CheckpointError(f"{path}: config has no 'encoder' object")
    try:
        vocab = Vocabulary(config.get("vocab")) if stage == "stage2" else None
    except ParameterError as exc:
        raise CheckpointError(f"{path}: invalid vocab ({exc})") from exc
    try:
        enc = EncoderConfig(**config["encoder"])
        expected = param_shapes(enc, None if vocab is None else len(vocab))
    except (TypeError, ConfigurationError) as exc:
        raise CheckpointError(f"{path}: invalid encoder config ({exc})") from exc
    mismatch = layout_mismatch(store, expected)
    if mismatch:
        raise CheckpointError(f"{path}: {mismatch}")
    store.set_frozen(set(frozen) & set(store.names()))
    return store, enc, vocab, config


@dataclass
class _FrozenBaseline:
    """The frozen tensors as views of one buffer, and the buffer's bits when training began."""

    buffer: np.ndarray            # float64: every frozen tensor's values, in store order
    views: dict[str, np.ndarray]  # name -> the C-contiguous view of ``buffer`` that the tensor's .data is
    bits: np.ndarray              # a uint64 copy of ``buffer``


def _pack_frozen(store: ParamStore) -> _FrozenBaseline:
    """Copy the frozen tensors' values into one buffer and rebind each ``.data`` to its view of it.

    No value changes, and the replaced arrays are released, so the frozen
    values are held once in the store and once in the baseline's bits.
    """
    frozen = [(name, t) for name, t in store.entries.items() if not t.requires_grad]
    buffer = np.empty(sum(t.size for _, t in frozen))
    views = {}
    offset = 0
    for name, t in frozen:
        view = buffer[offset:offset + t.size].reshape(t.shape)
        view[...] = t.data
        t.data = views[name] = view
        offset += t.size
    return _FrozenBaseline(buffer, views, buffer.view(np.uint64).copy())


def _assert_frozen_unchanged(store: ParamStore, baseline: _FrozenBaseline, where: str) -> None:
    # compared as bit patterns: -0.0 == 0.0 and NaN != NaN would hide or invent a change; while
    # every frozen .data is still its view, one comparison of the buffer covers them all
    if (all(store[name].data is view for name, view in baseline.views.items())
            and np.array_equal(baseline.buffer.view(np.uint64), baseline.bits)):
        return
    offset = 0
    for name, view in baseline.views.items():
        ref = baseline.bits[offset:offset + view.size].reshape(view.shape)
        offset += view.size
        if not np.array_equal(store[name].data.view(np.uint64), ref):
            raise FreezeViolationError(f"frozen parameter {name!r} changed during {where}")


def _float_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _batches(indices: Sequence[int], size: int):
    for i in range(0, len(indices), size):
        yield list(indices[i:i + size])


def _train(store: ParamStore, stage: str, learning_rate: float, epochs: int, batch_size: int,
           train_idx: Sequence[int], shuffle_rng: np.random.Generator,
           batch_loss: Callable[[list[int]], tuple[Tensor, object]], end_epoch: Callable[[list], None]) -> None:
    """The training loop of both stages.

    Each epoch visits ``train_idx`` in a fresh permutation, in mini-batches.
    ``batch_loss(indices)`` returns a batch's loss and a value to log; each
    step backpropagates the loss, takes one Adam step and checks that no
    frozen tensor moved; the frozen tensors are packed into one buffer first,
    so the check is one comparison.  ``end_epoch`` receives the epoch's
    logged values.
    """
    baseline = _pack_frozen(store)
    optimizer = Optimizer(store, learning_rate)
    step = 0
    for _ in range(epochs):
        values = []
        for batch in _batches([train_idx[i] for i in shuffle_rng.permutation(len(train_idx))], batch_size):
            loss, value = batch_loss(batch)
            backward(loss, store)
            optimizer.step()
            _assert_frozen_unchanged(store, baseline, f"{stage} step {step}")
            values.append(value)
            step += 1
        end_epoch(values)


@dataclass
class StageResult:
    metrics: dict
    store: ParamStore
    checkpoint_path: str
    csv_path: str
    summary_path: str


# -- stage 1 ------------------------------------------------------------------------


def stage1_loss(features: np.ndarray, labels: np.ndarray, store: ParamStore, enc: EncoderConfig) -> Tensor:
    """Mean cross-entropy of the head on prompted CLS features."""
    cls = visual_encode(features, store, enc, cls_only=True).cls.reshape(features.shape[0], enc.d)
    logp = log_softmax(classify_logits(cls, store), axis=-1)
    # each row's log-probability of its label, picked from the flattened (B * C, 1) rows
    return -take_rows(logp.reshape(-1, 1), np.arange(features.shape[0]) * enc.num_classes + labels).mean()


def _stage1_accuracy(samples: list[IndoorSample], indices: Sequence[int], store: ParamStore,
                     enc: EncoderConfig) -> float | None:
    """The share of ``indices`` the head classifies right; None for an empty split."""
    if not indices:
        return None
    hits = 0
    with no_grad():
        for batch in _batches(indices, ACCURACY_BATCH):
            feats = np.stack([samples[i].features for i in batch])
            labels = np.array([samples[i].label for i in batch])
            cls = visual_encode(feats, store, enc, cls_only=True).cls.reshape(len(batch), enc.d)
            logits = classify_logits(cls, store).data
            hits += int((logits.argmax(axis=1) == labels).sum())
    return hits / len(indices)


def _check_indoor_samples(dataset: list[IndoorSample], enc: EncoderConfig) -> None:
    """Refuse, by its index, a sample the visual stack or the head cannot take."""
    for i, s in enumerate(dataset):
        if s.features.shape[1] != enc.feature_dim:
            raise ConfigurationError(f"sample {i} has features {s.features.shape[1]} wide; the encoder takes "
                                     f"feature_dim {enc.feature_dim}")
        if s.features.shape[0] != dataset[0].features.shape[0]:
            raise DatasetError(f"sample {i} has {s.features.shape[0]} patches; sample 0 has "
                               f"{dataset[0].features.shape[0]}")
        if not 0 <= s.label < enc.num_classes:
            raise ConfigurationError(f"sample {i} has label {s.label}; the head takes num_classes {enc.num_classes}")


def _stage1_store(enc: EncoderConfig, rng: np.random.Generator) -> ParamStore:
    """A new store holding the visual stack and head, frozen for stage 1."""
    store = ParamStore()
    init_visual_params(store, enc, rng)
    apply_stage_freeze(store, "stage1")
    return store


def run_stage1(cfg: RunConfig, dataset: list[IndoorSample] | None = None) -> StageResult:
    cfg.validate()
    enc = cfg.encoder()
    if dataset is None:
        dataset = cfg.indoor_dataset()
    _check_indoor_samples(dataset, enc)
    train_idx, val_idx = split_indices(len(dataset), cfg.seed, cfg.val_fraction)
    if not train_idx:
        raise DatasetError("stage 1 training split is empty")
    store = _stage1_store(enc, np.random.default_rng([cfg.seed, 11]))

    def batch_loss(batch: list[int]) -> tuple[Tensor, float]:
        loss = stage1_loss(np.stack([dataset[i].features for i in batch]),
                           np.array([dataset[i].label for i in batch]), store, enc)
        return loss, loss.item()

    def accuracies() -> tuple[float | None, float | None]:
        return _stage1_accuracy(dataset, train_idx, store, enc), _stage1_accuracy(dataset, val_idx, store, enc)

    history = []  # (mean loss, train accuracy, val accuracy) per epoch
    _train(store, "stage1", cfg.stage1_lr, cfg.stage1_epochs, cfg.stage1_batch_size, train_idx,
           np.random.default_rng([cfg.seed, 12]), batch_loss,
           lambda losses: history.append((float(np.mean(losses)), *accuracies())))
    rows = [[epoch, *map(_float_cell, row)] for epoch, row in enumerate(history)]
    # after any epoch, the last one has already measured the final store
    train_acc, val_acc = history[-1][1:] if history else accuracies()
    metrics = {
        "train_accuracy": train_acc,
        "val_accuracy": val_acc,
        "trainable_parameters": int(sum(store[n].size for n in store.trainable_names())),
        "prompt_parameters": enc.prompt_layers * enc.prompt_count * enc.d,
        "epochs": cfg.stage1_epochs,
        "train_size": len(train_idx),
        "val_size": len(val_idx),
    }
    header = ["epoch", "train_loss", "train_acc", "val_acc"]
    return _write_stage_outputs(cfg, enc, "stage1", metrics, store, header, rows)


def _write_stage_outputs(cfg: RunConfig, enc: EncoderConfig, stage: str, metrics: dict, store: ParamStore,
                         header: list[str], rows: list[list], vocab: Vocabulary | None = None) -> StageResult:
    """Write ``<stage>_checkpoint.json``, ``_log.csv`` and ``_summary.json`` into cfg.out_dir.

    A stage-2 checkpoint carries its vocabulary, the tokens in id order: row i
    of ``text.tok_embed`` is token i's embedding, and the ablation mode it trained.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    config = {"encoder": asdict(enc), "stage": stage, "seed": cfg.seed}
    if vocab is not None:
        config.update(vocab=vocab.tokens, ablation=cfg.ablation)
    result = StageResult(metrics, store, *(os.path.join(cfg.out_dir, f"{stage}_{name}")
                                           for name in ("checkpoint.json", "log.csv", "summary.json")))
    save_checkpoint(store, config, result.checkpoint_path)
    with open(result.csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(result.summary_path, "w", encoding="utf-8") as fh:
        # a metric with no value is null, never a non-finite float that strict JSON parsers refuse
        json.dump({"metrics": metrics, "config": asdict(cfg)}, fh, sort_keys=True, indent=2, allow_nan=False)
    return result


# -- stage 2 ------------------------------------------------------------------------


@dataclass
class _Prepared:
    """Everything a training step or an eval batch reads of one trajectory."""

    sample: TrajectorySample
    m: int
    ids: dict[str, np.ndarray]  # text name -> (rows, max_text_len) int32 token ids
    viewpoints: np.ndarray  # (T, d) frozen viewpoint features, see precompute_viewpoint_features


def _texts_for(sample: TrajectorySample) -> dict[str, list[str]]:
    """Every text of a trajectory that stage 2 encodes, by name."""
    ps = sample.prompt_set()
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


def prepare_trajectories(dataset: list[TrajectorySample], vocab: Vocabulary, enc: EncoderConfig,
                         viewpoints: Sequence[np.ndarray]) -> list[_Prepared]:
    """Each trajectory's token ids, with its features from ``precompute_viewpoint_features(dataset, ...)``."""
    prepared = []
    for sample, features in zip(dataset, viewpoints, strict=True):
        # int32 holds any vocabulary id at half the bytes; every reader uses the values alone
        ids = {name: np.array([tokenize(t, vocab, enc.max_text_len) for t in texts], dtype=np.int32)
               for name, texts in _texts_for(sample).items()}
        prepared.append(_Prepared(sample, len(sample.chunks), ids, features))
    return prepared


def precompute_viewpoint_features(dataset: list[TrajectorySample], store: ParamStore,
                                  enc: EncoderConfig) -> list[np.ndarray]:
    """Frozen-backbone viewpoint encodings, reusable across every step.

    Each viewpoint is encoded as a single-patch image; its embedding is the
    patch position's final-layer output, whose residual stream keeps the
    viewpoint's own content (the CLS position is reserved for the stage-1
    classification contract and is nearly input-independent at small init).
    A trajectory whose viewpoints are not ``feature_dim`` wide, or with more
    viewpoints or sub-paths than the cross-modal encoder's position tables
    hold, is refused by its index before any viewpoint is encoded.
    """
    for i, s in enumerate(dataset):
        length, m = s.viewpoints.shape[0], len(s.chunks)
        if s.viewpoints.shape[1] != enc.feature_dim:
            raise ConfigurationError(f"trajectory {i} has viewpoints {s.viewpoints.shape[1]} wide; the encoder "
                                     f"takes feature_dim {enc.feature_dim}")
        if length > enc.max_viewpoints or m > enc.max_subpaths:
            raise ConfigurationError(f"trajectory {i} has {length} viewpoints and {m} sub-paths; the encoder "
                                     f"takes at most max_viewpoints {enc.max_viewpoints} and max_subpaths "
                                     f"{enc.max_subpaths}")
    all_rows = np.concatenate([s.viewpoints for s in dataset], axis=0)
    outputs = []
    with no_grad():
        for i in range(0, all_rows.shape[0], PRECOMPUTE_CHUNK):
            block = all_rows[i:i + PRECOMPUTE_CHUNK][:, None, :]  # each viewpoint is one patch
            outputs.append(visual_encode(block, store, enc).patch_block.data.reshape(block.shape[0], enc.d))
    flat = np.concatenate(outputs, axis=0)
    features = []
    offset = 0
    for s in dataset:
        t_len = s.viewpoints.shape[0]
        features.append(flat[offset:offset + t_len].copy())
        offset += t_len
    return features


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
    return take_rows(rows, index)


def stage2_features(
    batch: list[_Prepared],
    store: ParamStore,
    enc: EncoderConfig,
    mode: str,
    terms: Sequence[str],
) -> dict[str, tuple[Tensor, Tensor, np.ndarray]]:
    """The projected (text, visual, sizes) groups of each requested term under ``mode``.

    Every term gives (K, M_max, d) text and visual rows, group k owning its
    leading sizes[k] rows.  ``ind`` and ``sub`` have one group per
    trajectory, its sub-instruction rows against its sub-path rows, padded
    past its M (see ``_padded_rows``).  ``ove``, ``ins`` and ``cnt`` have
    the one group of the batch, (1, B, d).  In a prompted mode the
    sequential prompts and the count token enter the cross-modal encoder.
    Every input, token ids and frozen viewpoint features alike, comes from
    the prepared records.
    """
    prompted = mode in PROMPTED_MODES
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

    viewpoints = Tensor(np.concatenate([p.viewpoints for p in batch], axis=0))
    cross = cross_modal_encode_batch(viewpoints, text["seq"] if prompted else None,
                                     [p.sample.chunks for p in batch], store, enc)
    visual = {"ind": cross.subpaths, "sub": cross.subpaths, "cnt": cross.count, "ove": cross.overall,
              "ins": cross.overall}
    per_path, whole = np.array([p.m for p in batch]), np.array([len(batch)])

    w_t, b_t = store["proj.text.w"], store["proj.text.b"]
    w_v, b_v = store["proj.visual.w"], store["proj.visual.b"]
    features = {}
    for term in terms:
        text_proj, visual_proj = linear(text[term], w_t, b_t), linear(visual[term], w_v, b_v)
        if term in PER_PATH_TERMS:
            features[term] = (_padded_rows(text_proj, batch), visual_proj, per_path)
        else:
            features[term] = (text_proj.reshape(1, len(batch), -1), visual_proj.reshape(1, len(batch), -1), whole)
    return features


def stage2_losses(
    batch: list[_Prepared],
    store: ParamStore,
    enc: EncoderConfig,
    cfg: RunConfig,
) -> tuple[Tensor, dict[str, float]]:
    """The weighted alignment loss of one mini-batch under cfg.ablation.

    Each term's loss is the mean of its groups' contrastive losses: one per
    trajectory for ind and sub, the one of the batch for ove and cnt.
    """
    features = stage2_features(batch, store, enc, cfg.ablation, ABLATION_TERMS[cfg.ablation])
    return total_loss({term: pairwise_alignment_loss(*groups, cfg.temperature, cfg.smoothing)
                       for term, groups in features.items()}, cfg.lambda1, cfg.lambda2)


def _add_stage2_params(store: ParamStore, enc: EncoderConfig, vocab_size: int, rng: np.random.Generator,
                       prompted: bool) -> None:
    """Add the text and cross-modal stacks to a stage-1 store and freeze it for stage 2."""
    init_text_params(store, enc, vocab_size, rng)
    init_cross_params(store, enc, rng)
    apply_stage_freeze(store, "stage2", prompted)


def run_stage2(cfg: RunConfig, stage1_checkpoint: str, dataset: list[TrajectorySample] | None = None) -> StageResult:
    cfg.validate()
    enc = cfg.encoder()
    store, built, _, _ = load_checkpoint(stage1_checkpoint, "stage1")
    differ = [f"{f.name} {getattr(built, f.name)} (run: {getattr(enc, f.name)})"
              for f in fields(EncoderConfig) if getattr(built, f.name) != getattr(enc, f.name)]
    if differ:
        raise ConfigurationError("stage-1 checkpoint was built with a different encoder config: " + ", ".join(differ))

    if dataset is None:
        dataset = cfg.trajectory_dataset()
    vocab = build_vocabulary(dataset, enc.max_subpaths)
    _add_stage2_params(store, enc, len(vocab), np.random.default_rng([cfg.seed, 21]), cfg.ablation in PROMPTED_MODES)
    train_idx, val_idx = split_indices(len(dataset), cfg.seed, cfg.val_fraction)
    if not train_idx:
        raise DatasetError("stage 2 training split is empty")
    features = precompute_viewpoint_features(dataset, store, enc)
    prepared = prepare_trajectories(dataset, vocab, enc, features)

    epochs = []  # each epoch's per-step term values, see total_loss
    _train(store, "stage2", cfg.stage2_lr, cfg.stage2_epochs, cfg.stage2_batch_size, train_idx,
           np.random.default_rng([cfg.seed, 22]),
           lambda batch: stage2_losses([prepared[i] for i in batch], store, enc, cfg), epochs.append)
    # the l_ind_sum column holds the per-trajectory term, a mean over the batch: ind, or sub
    rows = [[step, *map(_float_cell, (r.get("ind", r.get("sub")), r.get("ove"), r.get("cnt"), r["total"]))]
            for step, r in enumerate(r for reports in epochs for r in reports)]
    metrics = {
        "epoch_total_loss": [float(np.mean([r["total"] for r in reports])) for reports in epochs],
        "trainable_parameters": int(sum(store[n].size for n in store.trainable_names())),
        "train_size": len(train_idx),
        "val_size": len(val_idx),
        "vocab_size": len(vocab),
        "ablation": cfg.ablation,
    }
    eval_idx = val_idx if val_idx else train_idx
    metrics["retrieval"] = evaluate_retrieval(store, enc, [prepared[i] for i in eval_idx], mode=cfg.ablation)

    header = ["step", "l_ind_sum", "l_ove", "l_cnt", "total"]
    return _write_stage_outputs(cfg, enc, "stage2", metrics, store, header, rows, vocab=vocab)


# -- evaluation -------------------------------------------------------------------


def retrieval_hits(text: Tensor, visual: Tensor, sizes) -> int:
    """How many text rows rank their own visual row first within their group.

    ``text`` and ``visual`` are (K, M_max, d) groups, group k owning its
    leading sizes[k] rows, ranked by ``similarity_matrix``; the columns past
    a group's size are masked out, and its rows past it are not counted.
    """
    slot = np.arange(text.shape[1])
    live = slot < np.asarray(sizes)[:, None]
    picks = np.where(live[:, None, :], similarity_matrix(text, visual).data, -np.inf).argmax(axis=2)
    return int((live & (picks == slot)).sum())


def evaluate_retrieval(store: ParamStore, enc: EncoderConfig, prepared: list[_Prepared], mode: str = "full") -> dict:
    """Argmax retrieval metrics over sub-pairs, whole trajectories, and counts.

    Each eval batch's features are the ones training scores.  subpair: the
    sub-path each sub-instruction row ranks first within its trajectory must
    be its own (``retrieval_hits`` summed over the eval batches); trajectory:
    the same over one group of every evaluated whole path; count: the count
    prompt each count feature ranks first, among those of the sub-path counts
    that occur among the evaluated trajectories (the counts training shows),
    must state the trajectory's sub-path count.
    """
    if not prepared:
        raise DatasetError("evaluation dataset is empty")
    terms = retrieval_terms(mode)
    per_path, whole = terms[:2]
    sizes = np.array([p.m for p in prepared])
    with no_grad():
        batches = [stage2_features(prepared[start:start + EVAL_BATCH], store, enc, mode, terms)
                   for start in range(0, len(prepared), EVAL_BATCH)]
        # the whole-path and count rows of every batch, as one group of the evaluated set
        joined = {term: [concat([b[term][i] for b in batches], axis=1) for i in (0, 1)] for term in terms[1:]}
        metrics = {
            "subpair_accuracy": sum(retrieval_hits(*b[per_path]) for b in batches) / int(sizes.sum()),
            "trajectory_accuracy": retrieval_hits(*joined[whole], [len(prepared)]) / len(prepared),
            "count_accuracy": None,
        }
        if "cnt" in joined:
            cnt_ids = {p.m: p.ids["cnt"][0] for p in prepared}  # each trajectory's count prompt
            keys = np.array(sorted(cnt_ids))
            candidates = linear(pooled_text_features(np.stack([cnt_ids[k] for k in keys]), store, enc),
                                store["proj.text.w"], store["proj.text.b"])
            picks = similarity_matrix(joined["cnt"][1][0], candidates).data.argmax(axis=1)
            metrics["count_accuracy"] = int((keys[picks] == sizes).sum()) / len(prepared)
    return metrics


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
    store = _stage1_store(enc, np.random.default_rng([cfg.seed, 11]))
    return finite_difference_check(lambda s: stage1_loss(feats, labels, s, enc), store, eps=eps)


def stage2_gradient_report(cfg: RunConfig | None = None, eps: float = 1e-5) -> FiniteDifferenceReport:
    cfg = cfg or gradcheck_config()
    enc = cfg.encoder()
    dataset = cfg.trajectory_dataset()
    vocab = build_vocabulary(dataset, enc.max_subpaths)
    # the text and cross-modal stacks continue the visual stack's random stream
    rng = np.random.default_rng([cfg.seed, 11])
    store = _stage1_store(enc, rng)
    _add_stage2_params(store, enc, len(vocab), rng, cfg.ablation in PROMPTED_MODES)
    prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
    return finite_difference_check(lambda s: stage2_losses(prepared, s, enc, cfg)[0], store, eps=eps)

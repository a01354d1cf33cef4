"""Training drivers: determinism, checkpointing, logging, and metrics."""

import base64
import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

import navprompt.training as training
from navprompt.alignment import ABLATION_MODES, ABLATION_TERMS, TERM_WEIGHTS
from navprompt.cli import main
from navprompt.data import gen_trajectory_dataset, read_trajectory_jsonl, split_indices, write_trajectory_jsonl
from navprompt.encoders import (
    EncoderConfig,
    apply_stage_freeze,
    init_cross_params,
    init_text_params,
    init_visual_params,
    param_shapes,
)
from navprompt.errors import (
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FreezeViolationError,
    ParameterError,
    ValidationError,
)
from navprompt.optim import ParamStore
from navprompt.training import (
    RunConfig,
    build_vocabulary,
    evaluate_retrieval,
    gradcheck_config,
    load_checkpoint,
    parse_config_file,
    prepare_trajectories,
    retrieval_hits,
    run_stage1,
    run_stage2,
    save_checkpoint,
    stage2_features,
    stage2_losses,
    precompute_viewpoint_features,
)
from navprompt.tensor import Tensor

from block_loss import composed_loss


def tiny_cfg(tmp_path, **overrides):
    base = dict(
        seed=5, out_dir=str(tmp_path / "run"),
        stage1_epochs=2, stage1_batch_size=4,
        stage2_epochs=2, stage2_batch_size=5,
        d=16, heads=2, ff_mult=2, visual_layers=2, text_layers=1, cross_layers=1,
        prompt_count=3, prompt_layers=2, num_patches=2, feature_dim=6,
        num_classes=4, max_text_len=32, max_viewpoints=8, max_subpaths=6,
        indoor_samples_per_class=6, trajectory_count=15,
        subpaths_min=2, subpaths_max=3, viewpoints_min=3, viewpoints_max=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def _f64(*values) -> str:
    """base64 of the little-endian float64 bytes of ``values``."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def _sha256(tensors: dict, config=None, frozen=()) -> str:
    """The format-3 digest from its definition: the JSON text of ``{"config",
    "frozen"}`` with sorted keys, then for each tensor in name order the JSON
    text of ``[name, shape]`` and the tensor's bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps({"config": config or {}, "frozen": list(frozen)}, sort_keys=True).encode("utf-8"))
    for name in sorted(tensors):
        digest.update(json.dumps([name, tensors[name]["shape"]]).encode("utf-8"))
        digest.update(base64.b64decode(tensors[name]["data"]))
    return digest.hexdigest()


def _v3(tensors: dict, **fields) -> str:
    """A format-3 checkpoint body holding ``tensors``; no digest unless given."""
    return json.dumps({"format_version": 3, "tensors": tensors, **fields})


def _signed(tensors: dict, config=None, frozen=()) -> str:
    return _v3(tensors, config=config or {}, frozen=list(frozen), sha256=_sha256(tensors, config, frozen))


_W = {"w": {"shape": [1], "data": _f64(1.0)}}
_RESERVED = ["<pad>", "<unk>", "<cls>", "<sep>"]
_STAGE2 = {"stage": "stage2", "ablation": "full"}


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        store.set_frozen({"visual.cls"})
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {"encoder": dataclasses.asdict(cfg.encoder()), "stage": "stage1"}, path)
        loaded = load_checkpoint(path, "stage1")[0]
        assert set(loaded.names()) == set(store.names())
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
        assert loaded.frozen == {"visual.cls"}

    def test_truncated_file(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {}, path)
        blob = open(path).read()
        with open(path, "w") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "stage1")

    def test_config_mismatch_names_tensor(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        wrong = dataclasses.asdict(tiny_cfg(tmp_path, d=32, heads=2).encoder())
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {"encoder": wrong, "stage": "stage1"}, path)
        with pytest.raises(CheckpointError, match=r"has shape .* config implies"):
            load_checkpoint(path, "stage1")

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump({"format_version": 99, "tensors": {}, "frozen": []}, fh)
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path, "stage1")

    def test_format_1_is_refused(self, tmp_path):
        # the decimal-JSON layout format 1 wrote; there is no migration
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "format_version": 1, "config": {"stage": "stage1"},
            "tensors": {"w": {"shape": [2], "data": [1.0, -2.5]}}, "frozen": [],
        }, sort_keys=True))
        with pytest.raises(CheckpointError, match=r"format_version 1 .*re-run the stage") as exc:
            load_checkpoint(str(path), "stage1")
        assert str(path) in str(exc.value)

    def test_bytes_match_format3_layout(self, tmp_path):
        enc = EncoderConfig(d=4, heads=2, ff_mult=1, visual_layers=1, text_layers=1, cross_layers=1,
                            prompt_count=2, prompt_layers=1, num_patches=2, feature_dim=3, num_classes=2,
                            max_text_len=6, max_viewpoints=4, max_subpaths=3)
        values = [-0.0, 5e-324, 1e308, 0.1]
        store = ParamStore()
        for k, (name, shape) in enumerate(param_shapes(enc, vocab_size=5).items()):
            store.add(name, np.full(shape, k / 3))
        store["visual.cls"].data[0] = values
        frozen = ["visual.cls", "visual.patch_embed.w"]
        store.set_frozen(frozen)
        config = {"encoder": dataclasses.asdict(enc), **_STAGE2, "seed": 3, "vocab": [*_RESERVED, "go"]}
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, config, str(path))
        tensors = {name: {"shape": list(store[name].shape), "data": _f64(*store[name].data.ravel())}
                   for name in store.names()}
        assert _sha256(tensors, config, frozen) == "dbc2c34fb6f36463ac0aa0842d8ac3408c43eeec9ceb40e363b81f6f8bc672ec"
        reference = json.dumps({
            "format_version": 3,
            "config": config,
            "tensors": tensors,
            "frozen": frozen,
            "sha256": _sha256(tensors, config, frozen),
        }, sort_keys=True)
        assert path.read_bytes() == reference.encode("ascii")
        loaded, _, _, loaded_config = load_checkpoint(str(path), "stage2")
        assert loaded_config == config and loaded.frozen == set(frozen)
        # bitwise: the sign of -0.0 and the subnormal survive
        assert loaded["visual.cls"].data.tobytes() == np.array([values]).tobytes()
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
        assert loaded["visual.cls"].data.flags.writeable

    def test_flipped_data_bit_fails_the_digest(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, {"encoder": dataclasses.asdict(cfg.encoder()), "stage": "stage1"}, str(path))
        payload = json.loads(path.read_text())
        entry = payload["tensors"]["visual.cls"]
        raw = bytearray(base64.b64decode(entry["data"]))
        raw[0] ^= 1  # lowest mantissa bit of the first value: still a finite float64
        entry["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.raises(CheckpointError, match="sha256 .* does not match the config, frozen set and tensors") as exc:
            load_checkpoint(str(path), "stage1")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "body,match",
        [
            ('[1, 2]', "expected a JSON object, got list"),
            (b"\xff\xfe\x00", "invalid checkpoint"),
            ('{"format_version": 3, "tensors": []}', "must be JSON objects"),
            ('{"format_version": 3, "config": [], "tensors": {}}', "must be JSON objects"),
            ('{"format_version": 3, "tensors": {}, "frozen": [[1]]}', "'frozen' must be a list"),
            (_signed({}, config={**_STAGE2, "encoder": {"bogus": 1}, "vocab": _RESERVED}), "invalid encoder config"),
            (_v3({"w": _f64(1.0)}), "tensor 'w' needs 'shape' and 'data'"),
            (_v3({"w": {"shape": [1]}}), "tensor 'w' needs 'shape' and 'data'"),
            (_v3({"w": {"data": _f64(1.0)}}), "tensor 'w' needs 'shape' and 'data'"),
            (_v3({"w": {"shape": "ab", "data": _f64(1.0)}}), "tensor 'w' shape"),
            (_v3({"w": {"shape": [True], "data": _f64(1.0)}}), "tensor 'w' shape"),
            (_v3({"w": {"shape": [1], "data": [_f64(1.0)]}}), "tensor 'w' data is not a base64 string"),
            (_v3({"w": {"shape": [2], "data": [1.0, 2.0]}}), "tensor 'w' data is not a base64 string"),
            (_signed({"w": {"shape": [2], "data": _f64(1.0, math.nan)}}), "tensor 'w' holds non-finite"),
            (_signed({"w": {"shape": [1], "data": _f64(math.inf)}}), "tensor 'w' holds non-finite"),
            (_signed({"w": {"shape": [1], "data": _f64(-math.inf)}}), "tensor 'w' holds non-finite"),
            # the base64 payload
            (_v3({"w": {"shape": [1], "data": 1.0}}), "tensor 'w' data is not a base64 string"),
            (_v3({"w": {"shape": [2], "data": _f64(1.0, 2.0)[:-1]}}), "tensor 'w' data is not valid base64"),
            (_v3({"w": {"shape": [2], "data": "*" + _f64(1.0, 2.0)[1:]}}), "tensor 'w' data is not valid base64"),
            (_v3({"w": {"shape": [1], "data": "AAAAAAAA8D\u00e9"}}), "tensor 'w' data is not valid base64"),
            (_signed({"w": {"shape": [2], "data": _f64(1.0)}}), r"tensor 'w' holds 8 bytes, shape \(2,\) needs 16"),
            (_signed({"w": {"shape": [2, 2], "data": _f64(1.0, 2.0)}}), r"holds 16 bytes, shape \(2, 2\) needs 32"),
            (_v3(_W), "sha256 None does not match the config, frozen set and tensors"),
            (_v3(_W, sha256="0" * 64), "sha256 '0+' does not match"),
            (_v3(_W, sha256=_sha256({"v": {"shape": [1], "data": _f64(1.0)}})), "does not match the config"),
            (_v3({"w": {"shape": [1, 2], "data": _f64(1.0, 2.0)}},
                 sha256=_sha256({"w": {"shape": [2], "data": _f64(1.0, 2.0)}})), "does not match the config"),
            # the digest covers the config and the frozen set: an edit to either, unsigned
            (_v3(_W, config={"encoder": {}, "seed": 4}, frozen=["w"],
                 sha256=_sha256(_W, {"encoder": {}, "seed": 3}, ["w"])), "does not match the config"),
            (_v3(_W, config={"encoder": {}}, frozen=[], sha256=_sha256(_W, {"encoder": {}}, ["w"])),
             "does not match the config"),
            # a format-2 file is refused by its version before anything else is read
            (json.dumps({"format_version": 2, "config": {}, "tensors": _W, "frozen": []}),
             r"format_version 2 is not read; re-run the stage that wrote it"),
            # a signed frozen set that names a tensor the file does not hold, refused before the config is read
            (_signed(_W, config={"stage": "stage1"}, frozen=["w", "ghost.tensor"]),
             "'frozen' names 'ghost.tensor', a tensor the checkpoint does not hold"),
            # the config, read only once its digest matches
            (_signed(_W, config={"stage": "stage1"}),
             "config records stage 'stage1', where a 'stage2' checkpoint is needed"),
            (_signed(_W, config={"encoder": {}}), "config records stage None, where a 'stage2' checkpoint is needed"),
            (_signed(_W, config={"stage": "stage2", "ablation": "all"}),
             r"config records no known ablation mode \('all'\); re-run stage 2"),
            (_signed(_W, config=_STAGE2), "config has no 'encoder' object"),
            (_signed({}, config={**_STAGE2, "encoder": {}}),
             r"invalid vocab \(expected a list of tokens in id order, got NoneType\)"),
            (_signed({}, config={**_STAGE2, "encoder": {}, "vocab": dict(zip(_RESERVED, range(4)))}),
             r"invalid vocab \(expected a list of tokens in id order, got dict\)"),
            (_signed({}, config={**_STAGE2, "encoder": {}, "vocab": [*_RESERVED, 4]}),
             r"invalid vocab \(token 4 is 4, not a string"),
            (_signed({}, config={**_STAGE2, "encoder": {}, "vocab": [*_RESERVED, "go", "go"]}),
             "token 'go' is listed twice"),
            (_signed({}, config={**_STAGE2, "encoder": {}, "vocab": _RESERVED[:3]}),
             "must start with the reserved tokens"),
            (_signed({}, config={**_STAGE2, "encoder": {}, "vocab": ["<unk>", "<pad>", "<cls>", "<sep>"]}),
             "must start with the reserved tokens"),
            # nested deeper than the JSON decoder recurses
            ("[" * 200000 + "]" * 200000, "truncated or invalid checkpoint"),
        ],
        ids=[
            "list", "not-utf8", "tensors-list", "config-list", "frozen-nested", "encoder-keys",
            "entry-list", "no-data", "no-shape", "shape-string", "shape-bool", "data-string",
            "data-nested", "nan", "inf", "neg-inf",
            "data-number", "b64-truncated", "b64-alphabet", "b64-non-ascii", "byte-count-short",
            "byte-count-2d", "no-sha256", "wrong-sha256", "sha256-of-other-name", "sha256-of-other-shape",
            "config-edited", "frozen-edited", "format-2", "frozen-unknown", "stage-1", "no-stage", "unknown-ablation", "no-encoder",
            "no-vocab", "vocab-dict", "vocab-non-string",
            "vocab-duplicate", "vocab-reserved-missing", "vocab-reserved-misplaced", "deep-nesting",
        ],
    )
    def test_malformed_file_raises_checkpoint_error(self, tmp_path, body, match):
        path = tmp_path / "ckpt.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(CheckpointError, match=match) as exc:
            load_checkpoint(str(path), "stage2")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("encoder,match", [
        ({"d": "16"}, "d expects int, got"),
        ({"d": 16.0}, "d expects int, got"),
        ({"heads": 0}, "heads must be positive"),
        ({"max_viewpoints": -3}, "has shape"),
    ])
    def test_bad_encoder_config_is_checkpoint_error(self, tmp_path, encoder, match):
        # checked before any shape is used, so a corrupted size cannot reach numpy
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        init_text_params(store, cfg.encoder(), 10, np.random.default_rng(1))
        init_cross_params(store, cfg.encoder(), np.random.default_rng(2))
        path = str(tmp_path / "ckpt.json")
        config = {"encoder": {**dataclasses.asdict(cfg.encoder()), **encoder}, **_STAGE2,
                  "vocab": [*_RESERVED, *"abcdef"]}
        save_checkpoint(store, config, path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, "stage2")

    def test_vocab_size_is_checked_before_use(self, tmp_path):
        # the vocabulary's length is the size text.tok_embed must have
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        init_text_params(store, cfg.encoder(), 10, np.random.default_rng(1))
        init_cross_params(store, cfg.encoder(), np.random.default_rng(2))
        encoder = dataclasses.asdict(cfg.encoder())
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {"encoder": encoder, **_STAGE2, "vocab": [*_RESERVED, *"abcdefgh"]}, path)
        with pytest.raises(CheckpointError, match=r"'text.tok_embed' has shape \(10, 16\), config implies \(12, 16\)"):
            load_checkpoint(path, "stage2")
        save_checkpoint(store, {"encoder": encoder, **_STAGE2, "vocab": "10"}, path)
        with pytest.raises(CheckpointError, match="invalid vocab"):
            load_checkpoint(path, "stage2")
        save_checkpoint(store, {"encoder": encoder, **_STAGE2, "vocab": [*_RESERVED, *"abcdef"]}, path)
        assert load_checkpoint(path, "stage2")[0]["text.tok_embed"].shape == (10, 16)


class TestStage1:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        cfg = tiny_cfg(tmp_path, stage1_epochs=0)
        result = run_stage1(cfg)
        fresh = ParamStore()
        init_visual_params(fresh, cfg.encoder(), np.random.default_rng([cfg.seed, 11]))
        for name in fresh.names():
            assert result.store[name].data.tobytes() == fresh[name].data.tobytes()

    def test_deterministic_checkpoints(self, tmp_path):
        a = run_stage1(tiny_cfg(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_stage1(tiny_cfg(tmp_path, out_dir=str(tmp_path / "b")))
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_summary_reuses_last_epoch_accuracies(self, tmp_path, monkeypatch, epochs):
        from navprompt import training as T

        calls = []
        real = T._stage1_accuracy

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(T, "_stage1_accuracy", counting)
        result = run_stage1(tiny_cfg(tmp_path, stage1_epochs=epochs))
        assert len(calls) == 2 * max(epochs, 1)
        with open(result.summary_path) as fh:
            metrics = json.load(fh)["metrics"]
        with open(result.csv_path) as fh:
            rows = list(csv.reader(fh))
        if epochs:
            assert metrics["train_accuracy"] == float(rows[-1][2])
            assert metrics["val_accuracy"] == float(rows[-1][3])
        assert 0.0 <= metrics["train_accuracy"] <= 1.0 and 0.0 <= metrics["val_accuracy"] <= 1.0

    def test_csv_schema(self, tmp_path):
        result = run_stage1(tiny_cfg(tmp_path))
        with open(result.csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "train_acc", "val_acc"]
        assert len(rows) == 1 + 2

    def test_trainable_count_in_metrics(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        result = run_stage1(cfg)
        enc = cfg.encoder()
        head = enc.d * enc.d + enc.d + enc.d * enc.num_classes + enc.num_classes
        assert result.metrics["trainable_parameters"] == enc.prompt_layers * enc.prompt_count * enc.d + head
        assert result.metrics["prompt_parameters"] == enc.prompt_layers * enc.prompt_count * enc.d

    @pytest.mark.parametrize("stage", ["stage1", "stage2"])
    def test_freeze_violation_trap(self, tmp_path, monkeypatch, stage):
        # both stages freeze the visual backbone; a step that moves it is caught at once
        cfg = tiny_cfg(tmp_path, stage1_epochs=1, stage2_epochs=1)
        s1 = run_stage1(cfg) if stage == "stage2" else None
        real_backward = training.backward

        def sabotage(loss, store):
            grads = real_backward(loss, store)
            store["visual.cls"].data[0, 0] += 1.0  # corrupt a frozen tensor
            return grads

        monkeypatch.setattr(training, "backward", sabotage)
        message = rf"^frozen parameter 'visual\.cls' changed during {stage} step 0$"
        with pytest.raises(FreezeViolationError, match=message):
            run_stage1(cfg) if stage == "stage1" else run_stage2(cfg, s1.checkpoint_path)

    def test_freeze_check_is_bitwise(self, tmp_path, monkeypatch):
        # -0.0 == 0.0 as numbers, but the frozen tensors must keep their bits
        real_backward = training.backward

        def sabotage(loss, store):
            grads = real_backward(loss, store)
            bias = store["visual.layer0.ln1.b"].data
            assert bias[0] == 0.0
            bias[0] = -0.0
            return grads

        monkeypatch.setattr(training, "backward", sabotage)
        with pytest.raises(FreezeViolationError, match=r"^frozen parameter 'visual\.layer0\.ln1\.b' changed during stage1 step 0$"):
            run_stage1(tiny_cfg(tmp_path, stage1_epochs=1))

    def test_freeze_check_names_a_flipped_bit_mid_buffer(self, tmp_path, monkeypatch):
        # the frozen tensors share one buffer; a low bit flipped in the tensor
        # that holds its middle value fails the check, which names that tensor
        real_backward = training.backward
        flipped = []

        def sabotage(loss, store):
            grads = real_backward(loss, store)
            frozen = [name for name in store.names() if name in store.frozen]
            ends = np.cumsum([store[name].size for name in frozen])
            name = frozen[int(np.searchsorted(ends, ends[-1] // 2, side="right"))]
            bits = store[name].data.view(np.uint64).reshape(-1)
            bits[bits.size // 2] ^= 1
            flipped.append((name, frozen))
            return grads

        monkeypatch.setattr(training, "backward", sabotage)
        with pytest.raises(FreezeViolationError) as exc:
            run_stage1(tiny_cfg(tmp_path, stage1_epochs=1))
        name, frozen = flipped[0]
        assert name not in (frozen[0], frozen[-1])
        assert str(exc.value) == f"frozen parameter {name!r} changed during stage1 step 0"

    @pytest.mark.parametrize("equal_bits", [True, False])
    def test_freeze_check_follows_a_rebound_array(self, tmp_path, monkeypatch, equal_bits):
        # a frozen .data rebound to another array is compared by its bits: an
        # equal copy passes, one flipped bit is named
        real_backward = training.backward

        def sabotage(loss, store):
            grads = real_backward(loss, store)
            t = store["visual.layer1.attn.wq"]
            data = t.data.copy()
            if not equal_bits:
                data.view(np.uint64)[0, 0] ^= 1
            t.data = data
            return grads

        monkeypatch.setattr(training, "backward", sabotage)
        cfg = tiny_cfg(tmp_path, stage1_epochs=1)
        if equal_bits:
            run_stage1(cfg)
        else:
            with pytest.raises(FreezeViolationError,
                               match=r"^frozen parameter 'visual\.layer1\.attn\.wq' changed during stage1 step 0$"):
                run_stage1(cfg)

    def test_frozen_tensors_keep_their_layout(self, tmp_path):
        # packed into one buffer, each frozen tensor keeps its values, shape, dtype and C-order strides
        cfg = tiny_cfg(tmp_path, stage1_epochs=1)
        fresh = training._stage1_store(cfg.encoder(), np.random.default_rng([cfg.seed, 11]))
        store = run_stage1(cfg).store
        assert store.frozen == fresh.frozen
        bases = [store[name].data.base for name in store.frozen]
        assert bases[0] is not None and all(base is bases[0] for base in bases)
        for name in store.frozen:
            data, ref = store[name].data, fresh[name].data
            assert (data.shape, data.dtype, data.strides) == (ref.shape, np.float64, ref.strides), name
            assert data.flags.c_contiguous and data.tobytes() == ref.tobytes(), name


class TestStage2:
    def _stage1(self, tmp_path, **kw):
        cfg = tiny_cfg(tmp_path, **kw)
        return cfg, run_stage1(cfg)

    def test_composition_identity_every_step(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        result = run_stage2(cfg, s1.checkpoint_path)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "no steps logged"
        for row in rows:
            total = float(row["total"])
            combined = cfg.lambda1 * float(row["l_ove"]) + cfg.lambda2 * float(row["l_cnt"]) + float(row["l_ind_sum"])
            assert abs(total - combined) < 1e-12

    def test_sub_only_leaves_ove_cnt_blank(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, ablation="sub_only")
        result = run_stage2(cfg, s1.checkpoint_path)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["l_ove"] == "" and row["l_cnt"] == ""
            assert row["l_ind_sum"] != "" and row["total"] != ""

    def test_cnt_mode_logs_only_count(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, ablation="cnt")
        result = run_stage2(cfg, s1.checkpoint_path)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["l_ove"] == "" and row["l_ind_sum"] == ""
            assert abs(float(row["total"]) - cfg.lambda2 * float(row["l_cnt"])) < 1e-12

    def test_lambda_zero_degenerates_to_individual_sum(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, lambda1=0.0, lambda2=0.0)
        result = run_stage2(cfg, s1.checkpoint_path)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["total"]) == float(row["l_ind_sum"])

    def test_deterministic_checkpoints(self, tmp_path):
        cfg_a, s1a = self._stage1(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b, s1b = self._stage1(tmp_path, out_dir=str(tmp_path / "b"))
        a = run_stage2(cfg_a, s1a.checkpoint_path)
        b = run_stage2(cfg_b, s1b.checkpoint_path)
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()
        vocab = load_checkpoint(a.checkpoint_path, "stage2")[3]["vocab"]
        assert vocab == load_checkpoint(b.checkpoint_path, "stage2")[3]["vocab"]
        assert vocab[:4] == _RESERVED and len(vocab) == a.metrics["vocab_size"]
        assert not os.path.exists(os.path.join(cfg_a.out_dir, "vocab.json"))

    def test_checkpoint_config_mismatch(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        path = str(tmp_path / "s1.json")
        save_checkpoint(s1.store, {"encoder": dataclasses.asdict(cfg.encoder()), "stage": "stage1", "seed": 5}, path)
        other = tiny_cfg(tmp_path, d=32)
        with pytest.raises((ConfigurationError, CheckpointError)):
            run_stage2(other, path)

    def test_prompt_chunk_mismatch(self):
        # a trajectory is checked once, when it is built: one sub-instruction
        # more than its chunks is refused there
        sample = gen_trajectory_dataset(count=3, subpaths_range=(2, 3), viewpoints_range=(3, 5), seed=0)[1]
        with pytest.raises(ValidationError, match=rf"^{len(sample.chunks)} chunks for "):
            dataclasses.replace(sample, sub_instructions=[*sample.sub_instructions, "turn left"])

    def test_boundary_gap_rejected(self):
        # sub-path chunks are checked once, when the trajectory is built
        sample = gen_trajectory_dataset(count=3, subpaths_range=(2, 2), viewpoints_range=(4, 4), seed=0)[1]
        with pytest.raises(ValidationError, match="gap or overlap at index 1"):
            dataclasses.replace(sample, chunks=[(0, 1), (2, 4)])
        with pytest.raises(ValidationError, match=r"chunk \[3, 3\) is empty"):
            dataclasses.replace(sample, chunks=[(0, 3), (3, 3)])

    @pytest.mark.parametrize("field,value,match", [
        ("prompt_count", 2, r"prompt_count 3 \(run: 2\)$"),
        ("prompt_layers", 1, r"prompt_layers 2 \(run: 1\)$"),
    ], ids=["prompt_count", "prompt_layers"])
    def test_stage1_checkpoint_encoder_is_checked(self, tmp_path, monkeypatch, field, value, match):
        # the stage-1 checkpoint's encoder config must be the run's; a
        # mismatch is refused, by field, before any data is built
        cfg, s1 = self._stage1(tmp_path)
        monkeypatch.setattr(RunConfig, "trajectory_dataset", lambda self: pytest.fail("data was built"))
        out_dir = str(tmp_path / "stage2")
        with pytest.raises(ConfigurationError, match="stage-1 checkpoint was built with a different encoder "
                                                     "config: " + match):
            run_stage2(dataclasses.replace(cfg, out_dir=out_dir, **{field: value}), s1.checkpoint_path)
        assert not os.path.exists(out_dir)

    def test_empty_dataset_is_refused(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        with pytest.raises(DatasetError, match="stage 2 training split is empty"):
            run_stage2(cfg, s1.checkpoint_path, dataset=[])

    def test_overlong_trajectory_is_refused_before_training(self, tmp_path, monkeypatch):
        # a trajectory longer than max_viewpoints, at a validation index, is
        # refused before the first training step, not in evaluation
        cfg, s1 = self._stage1(tmp_path)
        data = str(tmp_path / "traj.jsonl")
        write_trajectory_jsonl(cfg.trajectory_dataset(), data)
        dataset = read_trajectory_jsonl(data)
        val = split_indices(len(dataset), cfg.seed, cfg.val_fraction)[1][0]
        long_path = np.random.default_rng(0).normal(size=(cfg.max_viewpoints + 1, cfg.feature_dim))
        dataset[val] = dataclasses.replace(dataset[val], viewpoints=long_path,
                                           chunks=[(0, 1), (1, cfg.max_viewpoints + 1)],
                                           sub_instructions=dataset[val].sub_instructions[:2])
        monkeypatch.setattr(training, "stage2_losses", lambda *args: pytest.fail("a training step ran"))
        out_dir = str(tmp_path / "stage2")
        with pytest.raises(ConfigurationError, match=rf"^trajectory {val} has {cfg.max_viewpoints + 1} viewpoints"):
            run_stage2(dataclasses.replace(cfg, out_dir=out_dir), s1.checkpoint_path, dataset=dataset)
        assert not os.path.exists(out_dir)

    def test_oversize_trajectory_is_refused_before_any_viewpoint_is_encoded(self, tmp_path, monkeypatch):
        # the last trajectory has one sub-path more than max_subpaths: the
        # refusal names it although no viewpoint of the file has been encoded
        cfg, s1 = self._stage1(tmp_path)
        dataset = cfg.trajectory_dataset()
        last, m = len(dataset) - 1, cfg.max_subpaths + 1
        dataset[last] = dataclasses.replace(dataset[last], viewpoints=np.zeros((m, cfg.feature_dim)),
                                            chunks=[(j, j + 1) for j in range(m)], sub_instructions=["go left"] * m)
        monkeypatch.setattr(training, "visual_encode", lambda *args, **kwargs: pytest.fail("a viewpoint was encoded"))
        with pytest.raises(ConfigurationError, match=rf"^trajectory {last} has {m} viewpoints and {m} sub-paths; "):
            run_stage2(cfg, s1.checkpoint_path, dataset=dataset)

    def test_stage2_checkpoint_gives_back_the_run(self, tmp_path):
        # one read of a stage-2 checkpoint returns the run's encoder config, vocabulary and mode
        cfg, s1 = self._stage1(tmp_path, ablation="cnt_ind", stage1_epochs=0, stage2_epochs=0)
        result = run_stage2(cfg, s1.checkpoint_path)
        store, enc, vocab, config = load_checkpoint(result.checkpoint_path, "stage2")
        assert enc == cfg.encoder() and config["ablation"] == "cnt_ind"
        assert vocab.tokens == build_vocabulary(cfg.trajectory_dataset(), enc.max_subpaths).tokens
        assert len(vocab) == result.metrics["vocab_size"] and store.frozen == result.store.frozen

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_stage2_trains_what_its_loss_reads(self, tmp_path, mode):
        cfg, s1 = self._stage1(tmp_path, ablation=mode, stage2_epochs=1)
        result = run_stage2(cfg, s1.checkpoint_path)
        unread = {"cross.cnt", "cross.pos_prompt"}
        assert unread <= result.store.frozen if mode == "sub_only" else not unread & result.store.frozen


class TestAblationTable:
    """Each mode's loss terms, weights and retrieval features follow ABLATION_TERMS."""

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = gradcheck_config()
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

        def run(mode):
            report = stage2_losses(prepared, store, enc, dataclasses.replace(cfg, ablation=mode))[1]
            features = stage2_features(prepared, store, enc, mode, ABLATION_TERMS[mode])
            metrics = evaluate_retrieval(store, enc, prepared, mode=mode)
            return report, features, metrics

        return cfg, run

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_mode_follows_the_table(self, setup, mode):
        cfg, run = setup
        report, features, metrics = run(mode)
        terms = ABLATION_TERMS[mode]
        assert list(report) == [*terms, "total"]
        weight = {None: 1.0, "lambda1": cfg.lambda1, "lambda2": cfg.lambda2}
        assert abs(report["total"] - sum(weight[TERM_WEIGHTS[t]] * report[t] for t in terms)) < 1e-12
        # each term is the mean of its groups' contrastive losses: one group per
        # trajectory for ind and sub, the one group of the batch otherwise
        assert list(features) == list(terms)
        for term, (text, visual, sizes) in features.items():
            if term in ("ind", "sub"):
                assert list(sizes) == [cfg.subpaths_max] * cfg.trajectory_count
            else:
                assert list(sizes) == [cfg.trajectory_count]
            assert text.shape[:2] == visual.shape[:2] == (len(sizes), max(sizes))
            losses = [composed_loss(Tensor(t[:m]), Tensor(v[:m]), cfg.temperature, cfg.smoothing).item()
                      for t, v, m in zip(text.data, visual.data, sizes)]
            assert abs(report[term] - sum(losses) / len(losses)) < 1e-12
        full_metrics = run("full")[2]
        if mode == "sub_only":
            assert metrics["count_accuracy"] is None
        else:
            assert metrics == full_metrics

    def test_unknown_mode_is_refused(self, tmp_path, capsys):
        # cnt_ind_ove, once an alias of full, is unknown like any other name,
        # in a run setting and in a stage-2 checkpoint's signed config alike
        cfg = gradcheck_config()
        enc = cfg.encoder()
        vocab = build_vocabulary(cfg.trajectory_dataset(), enc.max_subpaths)
        store = training._stage1_store(enc, np.random.default_rng(0))
        training._add_stage2_params(store, enc, len(vocab), np.random.default_rng(1), True)
        ckpt = str(tmp_path / "stage2_checkpoint.json")
        for mode in ("everything", "cnt_ind_ove"):
            with pytest.raises(ParameterError):
                RunConfig(ablation=mode).validate()
            assert main(["stage1", "--ablation", mode]) == 2
            save_checkpoint(store, {"encoder": dataclasses.asdict(enc), "stage": "stage2", "seed": 0,
                                    "vocab": vocab.tokens, "ablation": mode}, ckpt)
            capsys.readouterr()
            assert main(["eval", "--ckpt", ckpt, "--data", ckpt]) == 2
            assert capsys.readouterr().err.startswith(f"error[CheckpointError]: {ckpt}: config records no known "
                                                      f"ablation mode ('{mode}')")


class TestEvaluation:
    def test_untrained_checkpoint_near_chance(self):
        # M fixed at 4 -> chance is 0.25; allow +-0.1 over >=200 trajectories.
        cfg = RunConfig(seed=9, d=16, heads=2, ff_mult=2, visual_layers=2, text_layers=1,
                        cross_layers=1, prompt_count=2, prompt_layers=1, num_patches=2,
                        feature_dim=6, num_classes=3, max_text_len=32, max_viewpoints=10,
                        max_subpaths=6)
        enc = cfg.encoder()
        dataset = gen_trajectory_dataset(count=220, subpaths_range=(4, 4), viewpoints_range=(4, 8),
                                         seed=9, feature_dim=6)
        vocab = build_vocabulary(dataset, enc.max_subpaths)
        store = ParamStore()
        rng = np.random.default_rng(1234)
        from navprompt.encoders import init_cross_params, init_text_params

        init_visual_params(store, enc, rng)
        init_text_params(store, enc, len(vocab), rng)
        init_cross_params(store, enc, rng)
        prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
        metrics = evaluate_retrieval(store, enc, prepared)
        assert 0.15 <= metrics["subpair_accuracy"] <= 0.35

    @staticmethod
    def _padded(blocks, fill=None):
        """Stack (m_n, d) row blocks into (N, M_max, d); slots past m_n repeat ``fill`` or hold zeros."""
        out = np.zeros((len(blocks), max(len(b) for b in blocks), blocks[0].shape[1]))
        for n, block in enumerate(blocks):
            out[n, :len(block)] = block
            if fill is not None:
                out[n, len(block):] = fill[n]
        return out

    @staticmethod
    def _evaluate(monkeypatch, sizes, text, visual, whole_text, whole_visual, count=None, candidates=None):
        """``evaluate_retrieval`` on given features, two trajectories to an eval batch.

        ``text`` and ``visual`` are (N, M, d) per-path rows, ``whole_text`` and
        ``whole_visual`` (N, d) whole-path rows, and ``count``, when given, the
        (N, d) count features, ranked against ``candidates``, a {count: (d,)
        count-prompt feature} dict, through an identity text projection.
        """
        sizes = np.asarray(sizes)
        # a record's sample is its index into the given features
        prepared = [training._Prepared(n, int(m), {"cnt": np.array([[m]])}, None) for n, m in enumerate(sizes)]

        def features(batch, store, enc, mode, terms):
            idx = [p.sample for p in batch]
            one, m = np.array([len(idx)]), sizes[idx].max()  # per-path rows padded to the batch's longest
            groups = {terms[0]: (Tensor(text[idx, :m]), Tensor(visual[idx, :m]), sizes[idx]),
                      terms[1]: (Tensor(whole_text[idx][None]), Tensor(whole_visual[idx][None]), one)}
            if "cnt" in terms:
                groups["cnt"] = (Tensor(count[idx][None]), Tensor(count[idx][None]), one)
            return groups

        store = ParamStore()
        store.add("proj.text.w", np.eye(text.shape[-1]))
        store.add("proj.text.b", np.zeros(text.shape[-1]))
        monkeypatch.setattr(training, "stage2_features", features)
        monkeypatch.setattr(training, "pooled_text_features",
                            lambda ids, store, enc: Tensor(np.stack([candidates[int(row[0])] for row in ids])))
        monkeypatch.setattr(training, "EVAL_BATCH", 2)
        return evaluate_retrieval(store, EncoderConfig(), prepared, mode="sub_only" if count is None else "full")

    def test_perfect_features_upper_bound(self, monkeypatch):
        rng = np.random.default_rng(0)
        count_candidates = {k: rng.normal(size=8) for k in range(1, 7)}
        sizes = np.array([2, 3, 4])
        bases = [rng.normal(size=(m, 8)) for m in sizes]
        whole = np.stack([b.sum(axis=0) for b in bases])
        count = np.stack([count_candidates[m] for m in sizes])
        rows = self._padded(bases)
        assert retrieval_hits(Tensor(rows), Tensor(rows.copy()), sizes) == sizes.sum()
        assert retrieval_hits(Tensor(whole[None]), Tensor(whole[None]), [3]) == 3
        metrics = self._evaluate(monkeypatch, sizes, rows, rows.copy(), whole, whole.copy(), count, count_candidates)
        assert metrics["subpair_accuracy"] == 1.0
        assert metrics["trajectory_accuracy"] == 1.0
        assert metrics["count_accuracy"] == 1.0

    def test_metrics_invariant_under_shuffling(self, monkeypatch):
        rng = np.random.default_rng(1)
        sizes = np.array([2, 3, 2, 4, 3, 2])
        texts = [rng.normal(size=(m, 8)) for m in sizes]
        visuals = [t + 0.05 * rng.normal(size=t.shape) for t in texts]

        def metrics(order, fill=None):
            t = [texts[i] for i in order]
            v = [visuals[i] for i in order]
            return self._evaluate(monkeypatch, sizes[order], self._padded(t), self._padded(v, fill),
                                  np.stack([x.mean(axis=0) for x in t]), np.stack([x.mean(axis=0) for x in v]))

        base = metrics(np.arange(len(sizes)))
        assert base["count_accuracy"] is None
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(sizes))
            shuffled = metrics(order)
            assert shuffled["subpair_accuracy"] == base["subpair_accuracy"]
            assert shuffled["trajectory_accuracy"] == base["trajectory_accuracy"]
            # a padding column that copies a text row exactly would win that row, were it not masked
            assert metrics(order, fill=[texts[i][0] for i in order]) == shuffled

    def test_empty_dataset(self):
        with pytest.raises(DatasetError):
            evaluate_retrieval(ParamStore(), EncoderConfig(), [])

    def test_count_candidates_are_keyed_by_their_count(self, monkeypatch):
        # two candidates stating 3 and 7 sub-paths: the winner's key is the
        # retrieved count, whatever its position among the candidates
        rng = np.random.default_rng(2)
        three, seven = rng.normal(size=8), rng.normal(size=8)
        sizes = np.array([7, 3, 7])
        rows = self._padded([rng.normal(size=(m, 8)) for m in sizes])
        whole = rows[:, 0]
        count = np.stack([seven, three, three])
        metrics = self._evaluate(monkeypatch, sizes, rows, rows, whole, whole, count, {3: three, 7: seven})
        assert metrics["count_accuracy"] == 2 / 3

    def test_count_retrieval_scores_only_the_counts_that_occur(self):
        # every trajectory has 2 sub-paths, so the one candidate is the count
        # prompt for 2; untrained prompts for other counts cannot win
        cfg = RunConfig(seed=9, d=16, heads=2, ff_mult=2, visual_layers=2, text_layers=1,
                        cross_layers=1, prompt_count=2, prompt_layers=1, num_patches=2,
                        feature_dim=6, num_classes=3, max_text_len=32, max_viewpoints=10,
                        max_subpaths=6)
        enc = cfg.encoder()
        dataset = gen_trajectory_dataset(count=12, subpaths_range=(2, 2), viewpoints_range=(4, 6),
                                         seed=9, feature_dim=6)
        vocab = build_vocabulary(dataset, enc.max_subpaths)
        store = ParamStore()
        rng = np.random.default_rng(1234)
        init_visual_params(store, enc, rng)
        init_text_params(store, enc, len(vocab), rng)
        init_cross_params(store, enc, rng)
        prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
        assert evaluate_retrieval(store, enc, prepared)["count_accuracy"] == 1.0


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nstage1_lr = 0.01\nprompt_layers = 1\nablation = cnt_ind\n# comment\n")
        values = parse_config_file(str(path))
        assert values == {"seed": 3, "stage1_lr": 0.01, "prompt_layers": 1, "ablation": "cnt_ind"}

    def test_unknown_key(self, tmp_path):
        # mystery never existed; the rest are run settings that were removed
        path = tmp_path / "run.cfg"
        for key, value in (("mystery", "1"), ("kl_reverse", "true"), ("optimizer", "sgd"), ("weight_decay", "0.01"),
                           ("joint_prompt_tuning", "true"), ("deep_prompt_mode", "propagate")):
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ParameterError) as err:
                parse_config_file(str(path))
            assert str(err.value) == f"{path}:1: unknown config key '{key}'"
            assert main(["stage1", "--config", str(path)]) == 2
            with pytest.raises(SystemExit) as exc:
                main(["stage1", "--" + key.replace("_", "-"), value])
            assert exc.value.code == 2

    @pytest.mark.parametrize("blob,where", [
        (b"seed = 3\nstage1_lr = 0.0\xae1\n", ":2: not UTF-8 text (invalid start byte at byte 24)"),
        (b"\xff = 1\n", ":1: not UTF-8 text"),
        (b"seed = 3\r\n# caf\xc3", ":2: not UTF-8 text (unexpected end of data"),
    ])
    def test_non_utf8_names_file_and_line(self, tmp_path, blob, where):
        path = tmp_path / "run.cfg"
        path.write_bytes(blob)
        with pytest.raises(ParameterError) as exc:
            parse_config_file(str(path))
        assert str(exc.value).startswith(f"{path}{where}")

    @pytest.mark.parametrize("text,where", [
        ("seed = 1\nstage1_lr = 0.5\n\nseed = 2\n", ":4: config key 'seed' already set on line 1"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, text, where):
        # the later line used to win silently
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ParameterError) as exc:
            parse_config_file(str(path))
        assert str(exc.value) == f"{path}{where}"
        assert main(["stage1", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error[ParameterError]: {path}{where}"]

    def test_line_endings(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 3\r\nstage1_lr = 0.5\rablation = sub_only\n")
        assert parse_config_file(str(path)) == {"seed": 3, "stage1_lr": 0.5, "ablation": "sub_only"}

    def test_validation_ranges(self):
        with pytest.raises(ParameterError):
            RunConfig(val_fraction=1.5).validate()
        with pytest.raises(ParameterError):
            RunConfig(ablation="everything").validate()

"""Training drivers: determinism, checkpointing, logging, and metrics."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from navprompt.alignment import ABLATION_MODES, ABLATION_TERMS, TERM_WEIGHTS, pairwise_alignment_loss
from navprompt.cli import main
from navprompt.data import gen_trajectory_dataset
from navprompt.encoders import (
    EncoderConfig,
    apply_stage_freeze,
    init_cross_params,
    init_text_params,
    init_visual_params,
    param_shapes,
)
from navprompt.errors import (
    AlignmentError,
    CheckpointError,
    ConfigurationError,
    DatasetError,
    FreezeViolationError,
    ParameterError,
    ValidationError,
)
from navprompt.optim import ParamStore
from navprompt.training import (
    CHECKPOINT_FORMAT_VERSION,
    RunConfig,
    TrajectoryFeatures,
    build_vocabulary,
    evaluate_retrieval,
    gradcheck_config,
    load_checkpoint,
    parse_config_file,
    prepare_trajectories,
    retrieval_metrics,
    run_stage1,
    run_stage2,
    save_checkpoint,
    stage2_features,
    stage2_losses,
    precompute_viewpoint_features,
)
from navprompt.tensor import Tensor


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


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        store.set_frozen({"visual.cls"})
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {"encoder": dataclasses.asdict(cfg.encoder())}, path)
        loaded, config = load_checkpoint(path)
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
            load_checkpoint(path)

    def test_config_mismatch_names_tensor(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        store = ParamStore()
        init_visual_params(store, cfg.encoder(), np.random.default_rng(0))
        wrong = dataclasses.asdict(tiny_cfg(tmp_path, d=32, heads=2).encoder())
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(store, {"encoder": wrong}, path)
        with pytest.raises(CheckpointError, match=r"has shape .* config implies"):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump({"format_version": 99, "tensors": {}, "frozen": []}, fh)
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path)

    def test_bytes_match_json_dump(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 0.1, 1 / 3]
        store = ParamStore()
        store.add("a", np.array(values))
        store.add("b", np.array([[1.0, -2.5]]), trainable=False)
        config = {"stage": "stage1", "seed": 3}
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, config, str(path))
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump({
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "config": config,
                "tensors": {"a": {"shape": [5], "data": values}, "b": {"shape": [1, 2], "data": [1.0, -2.5]}},
                "frozen": ["b"],
            }, fh, sort_keys=True)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "body,match",
        [
            ('[1, 2]', "expected a JSON object, got list"),
            (b"\xff\xfe\x00", "invalid checkpoint"),
            ('{"format_version": 1, "tensors": []}', "must be JSON objects"),
            ('{"format_version": 1, "config": [], "tensors": {}}', "must be JSON objects"),
            ('{"format_version": 1, "tensors": {}, "frozen": [[1]]}', "'frozen' must be a list"),
            ('{"format_version": 1, "config": {"encoder": {"bogus": 1}}, "tensors": {}}', "invalid encoder config"),
            ('{"format_version": 1, "tensors": {"w": [1.0]}}', "tensor 'w' needs 'shape' and 'data'"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [1]}}}', "tensor 'w' needs 'shape' and 'data'"),
            ('{"format_version": 1, "tensors": {"w": {"data": [1.0]}}}', "tensor 'w' needs 'shape' and 'data'"),
            ('{"format_version": 1, "tensors": {"w": {"shape": "ab", "data": [1.0]}}}', "tensor 'w' shape"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [true], "data": [1.0]}}}', "tensor 'w' shape"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [1], "data": ["x"]}}}', "tensor 'w' data is not"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [2], "data": [[1.0, 2.0]]}}}', "tensor 'w' data is not"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [2], "data": [1.0, NaN]}}}', "tensor 'w' holds non-finite"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [1], "data": [Infinity]}}}', "tensor 'w' holds non-finite"),
            ('{"format_version": 1, "tensors": {"w": {"shape": [1], "data": [-Infinity]}}}', "tensor 'w' holds non-finite"),
        ],
        ids=[
            "list", "not-utf8", "tensors-list", "config-list", "frozen-nested", "encoder-keys",
            "entry-list", "no-data", "no-shape", "shape-string", "shape-bool", "data-string",
            "data-nested", "nan", "inf", "neg-inf",
        ],
    )
    def test_malformed_file_raises_checkpoint_error(self, tmp_path, body, match):
        path = tmp_path / "ckpt.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        with pytest.raises(CheckpointError, match=match) as exc:
            load_checkpoint(str(path))
        assert str(path) in str(exc.value)


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

    def test_freeze_violation_trap(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, stage1_epochs=1)
        from navprompt import training as T
        from navprompt.optim import Optimizer

        real_step = Optimizer.step

        def sabotage(self, store, grads):
            real_step(self, store, grads)
            store["visual.cls"].data[0, 0] += 1.0  # corrupt a frozen tensor

        monkeypatch.setattr(Optimizer, "step", sabotage)
        with pytest.raises(FreezeViolationError):
            run_stage1(cfg, write_outputs=False)


class TestStage2:
    def _stage1(self, tmp_path, **kw):
        cfg = tiny_cfg(tmp_path, **kw)
        return cfg, run_stage1(cfg, write_outputs=False)

    def test_composition_identity_every_step(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        result = run_stage2(cfg, s1.store)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "no steps logged"
        for row in rows:
            total = float(row["total"])
            combined = cfg.lambda1 * float(row["l_ove"]) + cfg.lambda2 * float(row["l_cnt"]) + float(row["l_ind_sum"])
            assert abs(total - combined) < 1e-12

    def test_sub_only_leaves_ove_cnt_blank(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, ablation="sub_only")
        result = run_stage2(cfg, s1.store)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["l_ove"] == "" and row["l_cnt"] == ""
            assert row["l_ind_sum"] != "" and row["total"] != ""

    def test_cnt_mode_logs_only_count(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, ablation="cnt")
        result = run_stage2(cfg, s1.store)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["l_ove"] == "" and row["l_ind_sum"] == ""
            assert abs(float(row["total"]) - cfg.lambda2 * float(row["l_cnt"])) < 1e-12

    def test_lambda_zero_degenerates_to_individual_sum(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, lambda1=0.0, lambda2=0.0)
        result = run_stage2(cfg, s1.store)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["total"]) == float(row["l_ind_sum"])

    def test_deterministic_checkpoints(self, tmp_path):
        cfg_a, s1a = self._stage1(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b, s1b = self._stage1(tmp_path, out_dir=str(tmp_path / "b"))
        a = run_stage2(cfg_a, s1a.store)
        b = run_stage2(cfg_b, s1b.store)
        assert open(a.checkpoint_path, "rb").read() == open(b.checkpoint_path, "rb").read()
        assert open(a.vocab_path).read() == open(b.vocab_path).read()

    def test_checkpoint_config_mismatch(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        path = str(tmp_path / "s1.json")
        save_checkpoint(s1.store, {"encoder": dataclasses.asdict(cfg.encoder()), "stage": "stage1", "seed": 5}, path)
        other = tiny_cfg(tmp_path, d=32)
        with pytest.raises((ConfigurationError, CheckpointError)):
            run_stage2(other, path)

    def test_prompt_chunk_mismatch(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path)
        dataset = gen_trajectory_dataset(count=3, subpaths_range=(2, 3), viewpoints_range=(3, 5), seed=0,
                                         feature_dim=cfg.feature_dim)
        dataset[1].sub_instructions.append("turn left")
        with pytest.raises(AlignmentError):
            run_stage2(cfg, s1.store, dataset=dataset, write_outputs=False)

    def test_boundary_gap_rejected(self, tmp_path):
        # sub-path chunks are checked once, when trajectories are prepared
        cfg, s1 = self._stage1(tmp_path)
        dataset = gen_trajectory_dataset(count=3, subpaths_range=(2, 2), viewpoints_range=(4, 4), seed=0,
                                         feature_dim=cfg.feature_dim)
        dataset[1].chunks = [(0, 1), (2, 4)]
        with pytest.raises(ValidationError, match="gap or overlap at index 1"):
            run_stage2(cfg, s1.store, dataset=dataset, write_outputs=False)
        dataset[1].chunks = [(0, 3), (3, 3)]
        vocab = build_vocabulary(dataset, cfg.max_subpaths)
        with pytest.raises(ValidationError, match=r"chunk \[3, 3\) is empty"):
            prepare_trajectories(dataset, vocab, cfg.encoder())

    def test_joint_prompt_tuning_trains_prompts(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, joint_prompt_tuning=True, stage2_epochs=1)
        before = s1.store["visual.prompt.0"].data.copy()
        result = run_stage2(cfg, s1.store, write_outputs=False)
        assert "visual.prompt.0" not in result.store.frozen
        assert not np.array_equal(result.store["visual.prompt.0"].data, before)
        # the backbone itself stays frozen even when prompts train jointly
        assert "visual.layer0.attn.wq" in result.store.frozen

    def test_reverse_kl_flag_runs_and_composes(self, tmp_path):
        cfg, s1 = self._stage1(tmp_path, kl_reverse=True, stage2_epochs=1)
        result = run_stage2(cfg, s1.store)
        with open(result.csv_path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            combined = cfg.lambda1 * float(row["l_ove"]) + cfg.lambda2 * float(row["l_cnt"]) + float(row["l_ind_sum"])
            assert abs(float(row["total"]) - combined) < 1e-12


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
        cache = precompute_viewpoint_features(dataset, store, enc)

        def run(mode):
            prepared = prepare_trajectories(dataset, vocab, enc)
            total, report = stage2_losses(prepared, store, enc, dataclasses.replace(cfg, ablation=mode),
                                          cache, list(range(len(prepared))))
            features = stage2_features(prepared, store, enc, ABLATION_TERMS[mode], [Tensor(c) for c in cache])
            metrics = evaluate_retrieval(store, enc, dataset, vocab, mode=mode, cached_features=cache)
            return total, report, features, metrics

        return cfg, run

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_mode_follows_the_table(self, setup, mode):
        cfg, run = setup
        total, report, features, metrics = run(mode)
        terms = ABLATION_TERMS[mode]
        values = {term: getattr(report, f"l_{term}") for term in TERM_WEIGHTS}
        assert {term for term, v in values.items() if v is not None} == set(terms)
        weight = {None: 1.0, "lambda1": cfg.lambda1, "lambda2": cfg.lambda2}
        assert abs(report.total - sum(weight[TERM_WEIGHTS[t]] * values[t] for t in terms)) < 1e-12
        # each term is the mean of its contrastive losses: per trajectory for ind and sub
        assert list(features) == list(terms)
        for term, pairs in features.items():
            assert len(pairs) == (cfg.trajectory_count if term in ("ind", "sub") else 1)
            losses = [pairwise_alignment_loss(t, v, cfg.temperature, cfg.smoothing).item() for t, v in pairs]
            assert abs(values[term] - sum(losses) / len(losses)) < 1e-12
        full_total, _, _, full_metrics = run("full")
        if mode == "cnt_ind_ove":
            assert total.data.tobytes() == full_total.data.tobytes()
        if mode == "sub_only":
            assert metrics["count_accuracy"] is None
        else:
            assert metrics == full_metrics

    def test_unknown_mode_is_refused(self, tmp_path):
        with pytest.raises(ParameterError):
            RunConfig(ablation="everything").validate()
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--ckpt", missing, "--vocab", missing, "--data", missing, "--mode", "everything"])
        assert exc.value.code == 2


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
        metrics = evaluate_retrieval(store, enc, dataset, vocab)
        assert 0.15 <= metrics["subpair_accuracy"] <= 0.35

    def test_perfect_features_upper_bound(self):
        rng = np.random.default_rng(0)
        feats = []
        count_candidates = rng.normal(size=(6, 8))
        for m in (2, 3, 4):
            basis = rng.normal(size=(m, 8))
            feats.append(TrajectoryFeatures(
                text_feats=basis.copy(),
                visual_feats=basis.copy(),
                overall_text=basis.sum(axis=0),
                overall_visual=basis.sum(axis=0),
                count_feature=count_candidates[m - 1],
                m=m,
            ))
        metrics = retrieval_metrics(feats, count_candidates)
        assert metrics["subpair_accuracy"] == 1.0
        assert metrics["trajectory_accuracy"] == 1.0
        assert metrics["count_accuracy"] == 1.0

    def test_metrics_invariant_under_shuffling(self):
        rng = np.random.default_rng(1)
        feats = []
        for m in (2, 3, 2, 4, 3, 2):
            t = rng.normal(size=(m, 8))
            v = t + 0.05 * rng.normal(size=(m, 8))
            feats.append(TrajectoryFeatures(
                text_feats=t, visual_feats=v,
                overall_text=t.mean(axis=0), overall_visual=v.mean(axis=0),
                count_feature=None, m=m,
            ))
        base = retrieval_metrics(feats)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(feats))
            shuffled = retrieval_metrics([feats[i] for i in order])
            assert shuffled["subpair_accuracy"] == base["subpair_accuracy"]
            assert shuffled["trajectory_accuracy"] == base["trajectory_accuracy"]

    def test_empty_dataset(self):
        with pytest.raises(DatasetError):
            retrieval_metrics([])


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nstage1_lr = 0.01\njoint_prompt_tuning = true\nablation = cnt_ind\n# comment\n")
        values = parse_config_file(str(path))
        assert values == {"seed": 3, "stage1_lr": 0.01, "joint_prompt_tuning": True, "ablation": "cnt_ind"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ParameterError):
            parse_config_file(str(path))

    def test_validation_ranges(self):
        with pytest.raises(ParameterError):
            RunConfig(val_fraction=1.5).validate()
        with pytest.raises(ParameterError):
            RunConfig(ablation="everything").validate()

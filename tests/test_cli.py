"""CLI subcommands exercised in-process through main()."""

import csv
import json
import re

import numpy as np
import pytest

import navprompt.training as training
from navprompt.cli import main
from navprompt.data import read_trajectory_jsonl
from navprompt.errors import CheckpointError, ParameterError
from navprompt.training import (
    RunConfig,
    build_vocabulary,
    coerce_field,
    evaluate_retrieval,
    load_checkpoint,
    precompute_viewpoint_features,
    prepare_trajectories,
    save_checkpoint,
)


def _cfg_flags(tmp_path, **extra):
    base = {
        "seed": 5, "out-dir": str(tmp_path / "run"),
        "stage1-epochs": 1, "stage1-batch-size": 4,
        "stage2-epochs": 1, "stage2-batch-size": 5,
        "d": 16, "heads": 2, "ff-mult": 2, "visual-layers": 2, "text-layers": 1,
        "cross-layers": 1, "prompt-count": 2, "prompt-layers": 1, "num-patches": 2,
        "feature-dim": 6, "num-classes": 3, "max-text-len": 32,
        "max-viewpoints": 8, "max-subpaths": 6,
        "indoor-samples-per-class": 4, "trajectory-count": 10,
        "subpaths-min": 2, "subpaths-max": 3, "viewpoints-min": 3, "viewpoints-max": 5,
    }
    base.update(extra)
    flags = []
    for key, value in base.items():
        flags.extend([f"--{key}", str(value)])
    return flags


def test_gen_data_requires_seed(tmp_path, capsys):
    rc = main(["gen-data", "--kind", "indoor", "--output", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert "ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["indoor", "trajectories"])
def test_gen_data_reads_the_seed_from_the_config_file(tmp_path, capsys, kind):
    sizes = ["--indoor-samples-per-class", "2", "--trajectory-count", "4"]
    flag, from_file = tmp_path / "flag.jsonl", tmp_path / "file.jsonl"
    assert main(["gen-data", "--kind", kind, "--seed", "3", *sizes, "--output", str(flag)]) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 3\n")
    assert main(["gen-data", "--kind", kind, "--config", str(cfg_file), *sizes, "--output", str(from_file)]) == 0
    assert from_file.read_bytes() == flag.read_bytes()
    # with the seed in neither, one error line names both sources
    cfg_file.write_text("stage1_epochs = 1\n")
    capsys.readouterr()
    assert main(["gen-data", "--kind", kind, "--config", str(cfg_file), "--output", str(from_file)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error[ParameterError]: gen-data requires --seed or 'seed = ...' in its --config file"]


def test_gen_segment_prompts_round_trip(tmp_path, capsys):
    data = str(tmp_path / "traj.jsonl")
    rc = main(["gen-data", "--kind", "trajectories", "--seed", "3",
               "--trajectory-count", "4", "--output", data])
    assert rc == 0
    seg = str(tmp_path / "seg.jsonl")
    assert main(["segment", "--input", data, "--output", seg]) == 0
    capsys.readouterr()
    with open(seg) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 4
    for rec in records:
        assert rec["aligned_ranges"][0][0] == 0
        assert rec["aligned_ranges"][-1][1] == len(rec["path"])

    assert main(["prompts", "--input", data]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    parsed = json.loads(out[0])
    assert set(parsed) == {"count_prompt", "sequential_prompts", "individual_prompts", "overall_prompt", "m"}


def test_segment_and_prompts_output_is_pinned(tmp_path, capsys):
    # on a gen-data file, segment writes each line back with its aligned
    # ranges appended: the same bytes it wrote when it echoed the raw path
    data = tmp_path / "traj.jsonl"
    assert main(["gen-data", "--kind", "trajectories", "--seed", "3", "--trajectory-count", "6",
                 "--output", str(data)]) == 0
    seg = tmp_path / "seg.jsonl"
    assert main(["segment", "--input", str(data), "--output", str(seg)]) == 0
    lines = data.read_text().splitlines()
    assert seg.read_text().splitlines() == [
        line[:-1] + ', "aligned_ranges": ' + json.dumps(json.loads(line)["chunk_view"]) + "}" for line in lines
    ]
    # a record with integer path entries and no chunk_view
    record = tmp_path / "rec.jsonl"
    record.write_text(json.dumps({"instruction": "Walk out of the bathroom and turn left.",
                                  "path": [[0, 1], [1, 0], [2, 1]]}) + "\n")
    assert main(["segment", "--input", str(record), "--output", str(seg)]) == 0
    assert seg.read_text() == (
        '{"instruction": "Walk out of the bathroom and turn left.", "path": [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]], '
        '"chunk_view": [[0, 2], [2, 3]], "sub_instructions": ["walk out of the bathroom", "turn left"], '
        '"aligned_ranges": [[0, 2], [2, 3]]}\n'
    )
    capsys.readouterr()
    assert main(["prompts", "--input", str(record)]) == 0
    assert capsys.readouterr().out == (
        '{"count_prompt": "this instruction contains 2 actions", '
        '"sequential_prompts": ["this is the first action", "this is the second action"], '
        '"individual_prompts": ["first, perform the action walk out of the bathroom", '
        '"second, perform the action turn left"], '
        '"overall_prompt": "first, perform the action walk out of the bathroom, '
        'second, perform the action turn left", "m": 2}\n'
    )


def _strict_json(text):
    """Parse JSON as a strict parser does: NaN and the infinities are refused."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("epochs", [0, 1])
def test_stage1_without_a_validation_split_writes_strict_json(tmp_path, capsys, epochs):
    # an empty split has no accuracy: null in the summary and the printed
    # metrics, an empty cell in the log, never NaN
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": epochs, "val-fraction": 0})]) == 0
    printed = _strict_json(capsys.readouterr().out)
    with open(tmp_path / "run" / "stage1_summary.json", encoding="utf-8") as fh:
        summary = _strict_json(fh.read())
    for metrics in (printed["metrics"], summary["metrics"]):
        assert metrics["val_accuracy"] is None and metrics["val_size"] == 0
        assert 0.0 <= metrics["train_accuracy"] <= 1.0
    with open(tmp_path / "run" / "stage1_log.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + epochs
    for row in rows[1:]:
        assert row[3] == "" and float(row[2]) == summary["metrics"]["train_accuracy"]


def test_viewpoint_width_is_checked_by_trajectory(tmp_path, capsys):
    # records of two path widths: the one that differs from feature_dim is
    # named, and the run ends in a one-line error, not a traceback
    rc = main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})])
    assert rc == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    data = tmp_path / "mixed.jsonl"
    data.write_text("".join(json.dumps({"instruction": "walk out of the bathroom and turn left",
                                        "path": np.zeros((3, width)).tolist()}) + "\n" for width in (6, 4)))
    out = tmp_path / "stage2"
    assert main(["stage2", "--stage1-ckpt", ckpt, "--data", str(data), *_cfg_flags(tmp_path),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error[ConfigurationError]: trajectory 1 has viewpoints 4 wide; the encoder takes feature_dim 6"
    ]
    assert not out.exists()


def test_two_stage_pipeline_and_eval(tmp_path, capsys):
    rc = main(["stage1", *_cfg_flags(tmp_path)])
    assert rc == 0
    stage1_out = json.loads(capsys.readouterr().out)
    ckpt = stage1_out["checkpoint"]

    train = str(tmp_path / "train.jsonl")
    assert main(["gen-data", "--kind", "trajectories", *_cfg_flags(tmp_path), "--output", train]) == 0
    capsys.readouterr()
    rc = main(["stage2", "--stage1-ckpt", ckpt, "--data", train, *_cfg_flags(tmp_path)])
    assert rc == 0
    stage2_out = json.loads(capsys.readouterr().out)
    assert "retrieval" in stage2_out["metrics"]
    run_dir = tmp_path / "run"
    assert not (run_dir / "vocab.json").exists()

    data = str(tmp_path / "eval.jsonl")
    assert main(["gen-data", "--kind", "trajectories", "--seed", "3",
                 *_cfg_flags(tmp_path, **{"trajectory-count": 6}), "--output", data]) == 0
    capsys.readouterr()
    ckpt2 = str(run_dir / "stage2_checkpoint.json")
    rc = main(["eval", "--ckpt", ckpt2, "--data", data])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"subpair_accuracy", "trajectory_accuracy", "count_accuracy"}
    # the checkpoint's vocabulary is the one stage 2 fitted to its training data
    store, enc, _, _ = load_checkpoint(ckpt2, "stage2")
    vocab = build_vocabulary(read_trajectory_jsonl(train), enc.max_subpaths)
    dataset = read_trajectory_jsonl(data)
    prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
    assert metrics == evaluate_retrieval(store, enc, prepared)

    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", ckpt2, "--vocab", ckpt2, "--data", data])
    assert exc.value.code == 2
    assert "unrecognized arguments: --vocab" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--indoor-noise", "-1", "indoor_noise must be at least 0, got -1.0"),
    ("--viewpoint-noise", "-1", "viewpoint_noise must be at least 0, got -1.0"),
    ("--duplicate-prob", "2", "duplicate_prob must lie in [0, 1], got 2.0"),
    ("--stage2-lr", "0", "stage2_lr must be above 0, got 0.0"),
    ("--subpaths-min", "0", "subpaths_min must be at least 1, got 0"),
    ("--trajectory-count", "0", "trajectory_count must be at least 1, got 0"),
    ("--indoor-samples-per-class", "0", "indoor_samples_per_class must be at least 1, got 0"),
    ("--num-classes", "1", "num_classes must be at least 2, got 1"),
], ids=["indoor_noise", "viewpoint_noise", "duplicate_prob", "stage2_lr", "subpaths_min", "trajectory_count",
        "indoor_samples_per_class", "num_classes"])
def test_generator_ranges_are_refused_by_name(tmp_path, monkeypatch, capsys, flag, value, message):
    # the run setting is refused before any data is built or the output directory is made
    import navprompt.training as training

    for build in ("indoor_dataset", "trajectory_dataset"):
        monkeypatch.setattr(training.RunConfig, build, lambda self: pytest.fail("data was built"))
    out = tmp_path / "out"
    for argv in (["gen-data", "--kind", "indoor", "--seed", "0", "--output", str(out / "x.jsonl")],
                 ["gen-data", "--kind", "trajectories", "--seed", "0", "--output", str(out / "x.jsonl")],
                 ["stage1", "--out-dir", str(out)],
                 ["stage2", "--stage1-ckpt", str(tmp_path / "none.json"), "--out-dir", str(out)]):
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error[ParameterError]: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--text-layers", "-1"), ("--text-layers", "0"), ("--cross-layers", "-1"), ("--cross-layers", "0"),
    ("--num-patches", "-1"), ("--num-patches", "0"),
], ids=["text_layers_negative", "text_layers_zero", "cross_layers_negative", "cross_layers_zero",
        "num_patches_negative", "num_patches_zero"])
def test_layer_and_patch_counts_are_refused_by_name(tmp_path, monkeypatch, capsys, flag, value):
    # without a text layer every text pools to the same [cls] row, and a
    # negative patch count ended in a numpy traceback: both are refused,
    # naming the field, before any data is built
    import navprompt.training as training

    for build in ("indoor_dataset", "trajectory_dataset"):
        monkeypatch.setattr(training.RunConfig, build, lambda self: pytest.fail("data was built"))
    field = flag[2:].replace("-", "_")
    out = tmp_path / "out"
    for argv in (["stage1", "--out-dir", str(out)],
                 ["stage2", "--stage1-ckpt", str(tmp_path / "none.json"), "--out-dir", str(out)]):
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error[ConfigurationError]: {field} must be positive"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["2", "0"])
def test_text_length_below_three_is_refused_by_name(tmp_path, monkeypatch, capsys, value):
    # a text needs [cls], one word and [sep]: stage 1 used to save a checkpoint
    # at a shorter length that stage 2 then failed on, naming tokenize's argument
    import navprompt.training as training

    for build in ("indoor_dataset", "trajectory_dataset"):
        monkeypatch.setattr(training.RunConfig, build, lambda self: pytest.fail("data was built"))
    out = tmp_path / "out"
    for argv in (["gen-data", "--kind", "indoor", "--seed", "0", "--output", str(out / "x.jsonl")],
                 ["stage1", "--out-dir", str(out)],
                 ["stage2", "--stage1-ckpt", str(tmp_path / "none.json"), "--out-dir", str(out)]):
        assert main([*argv, "--max-text-len", value]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error[ConfigurationError]: max_text_len must be at least 3, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    ({"lambda1": "-1"}, "lambda1 must be at least 0, got -1.0"),
    ({"lambda2": "-0.5"}, "lambda2 must be at least 0, got -0.5"),
    ({"temperature": "0"}, "temperature must be above 0, got 0.0"),
    ({"temperature": "-0.1"}, "temperature must be above 0, got -0.1"),
    ({"smoothing": "-0.1"}, "smoothing must lie in (0, 1/(2*subpaths_min)) = (0, 0.25), got -0.1"),
    ({"smoothing": "0"}, "smoothing must lie in (0, 1/(2*subpaths_min)) = (0, 0.25), got 0.0"),
    ({"smoothing": "2"}, "smoothing must lie in (0, 1/(2*subpaths_min)) = (0, 0.25), got 2.0"),
    ({"smoothing": "0.25"}, "smoothing must lie in (0, 1/(2*subpaths_min)) = (0, 0.25), got 0.25"),
    ({"smoothing": "0.2", "subpaths_min": "3"},
     "smoothing must lie in (0, 1/(2*subpaths_min)) = (0, 0.166667), got 0.2"),
    ({"seed": "-1"}, "seed must be at least 0, got -1"),
], ids=["lambda1", "lambda2", "temperature_zero", "temperature_negative", "smoothing_negative", "smoothing_zero",
        "smoothing_two", "smoothing_at_cap", "smoothing_above_cap_of_three", "seed_negative"])
def test_objective_ranges_are_refused_by_name(tmp_path, monkeypatch, capsys, flags, message):
    # the objective's fields are refused before any data is built or the output directory is made
    import navprompt.training as training

    values = {key: coerce_field(key, value) for key, value in flags.items()}
    with pytest.raises(ParameterError) as exc:
        RunConfig(**values).validate()
    assert str(exc.value) == message
    RunConfig().validate()  # the defaults, smoothing 0.05 among them, stay valid

    monkeypatch.setattr(training.RunConfig, "trajectory_dataset", lambda self: pytest.fail("data was built"))
    out = tmp_path / "out"
    argv = ["stage2", "--stage1-ckpt", str(tmp_path / "none.json"), "--out-dir", str(out)]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error[ParameterError]: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data-indoor", "gen-data-trajectories", "stage1", "stage2", "config-file"])
def test_negative_seed_is_refused_by_every_command(tmp_path, capsys, command):
    # numpy's seed sequence takes no negative entropy; the seed is refused
    # by name before it reaches one
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    argv = {"gen-data-indoor": ["gen-data", "--kind", "indoor", "--seed", "-1", "--output", str(out / "x.jsonl")],
            "gen-data-trajectories": ["gen-data", "--kind", "trajectories", "--seed", "-1",
                                      "--output", str(out / "x.jsonl")],
            "stage1": ["stage1", "--seed", "-1", "--out-dir", str(out)],
            "stage2": ["stage2", "--seed", "-1", "--stage1-ckpt", str(tmp_path / "none.json"), "--out-dir", str(out)],
            "config-file": ["stage1", "--config", str(cfg), "--out-dir", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error[ParameterError]: seed must be at least 0, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("records,message", [
    ([([[0.0] * 6] * 2, 0), ([[0.0] * 4] * 2, 1)],
     "ConfigurationError]: sample 1 has features 4 wide; the encoder takes feature_dim 6"),
    ([([[0.0] * 6] * 2, 0), ([[0.0] * 6] * 2, 1), ([[0.0] * 6] * 3, 2)],
     "DatasetError]: sample 2 has 3 patches; sample 0 has 2"),
    ([([[0.0] * 6] * 2, 0), ([[0.0] * 6] * 2, 12)],
     "ConfigurationError]: sample 1 has label 12; the head takes num_classes 3"),
    ([([[0.0] * 6] * 2, -1), ([[0.0] * 6] * 2, 1)],
     "ConfigurationError]: sample 0 has label -1; the head takes num_classes 3"),
], ids=["feature_width", "patch_count", "label_too_large", "label_negative"])
def test_stage1_samples_are_checked_by_index(tmp_path, capsys, records, message):
    # a sample the visual stack or the head cannot take is named before the
    # first step, in a one-line error, not a traceback or a silent miss
    data = tmp_path / "indoor.jsonl"
    data.write_text("".join(json.dumps({"features": f, "label": label}) + "\n" for f, label in records))
    out = tmp_path / "out"
    assert main(["stage1", "--data", str(data), *_cfg_flags(tmp_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error[{message}"]
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 9\nstage1_epochs = 1\n")
    data = str(tmp_path / "indoor.jsonl")
    rc = main(["gen-data", "--kind", "indoor", "--config", str(cfg_file), "--seed", "11",
               "--num-classes", "3", "--indoor-samples-per-class", "2",
               "--num-patches", "2", "--feature-dim", "6", "--output", data])
    assert rc == 0
    capsys.readouterr()
    with open(data) as fh:
        assert len(fh.readlines()) == 6


def test_missing_input_is_io_error(tmp_path, capsys):
    rc = main(["segment", "--input", str(tmp_path / "ghost.jsonl"), "--output", str(tmp_path / "o.jsonl")])
    assert rc == 3
    assert "error[io]" in capsys.readouterr().err


def test_an_out_dir_that_is_a_file_is_refused_before_training(tmp_path, capsys, monkeypatch):
    # both stages make the output directory before training, so a bad --out-dir costs no run
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    blocker = tmp_path / "a_file"
    blocker.write_text("")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output directory was made")

    monkeypatch.setattr(training, "_train", no_training)
    for command in (["stage1"], ["stage2", "--stage1-ckpt", ckpt]):
        assert main([*command, *_cfg_flags(tmp_path, **{"out-dir": str(blocker)})]) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error[io]: [Errno 17] File exists")


def test_bad_checkpoint_is_categorized(tmp_path, capsys):
    bad = tmp_path / "ckpt.json"
    bad.write_text("{not json")
    rc = main(["eval", "--ckpt", str(bad), "--data", str(bad)])
    assert rc == 2
    assert "CheckpointError" in capsys.readouterr().err


def test_deeply_nested_checkpoint_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "ckpt.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[CheckpointError]: {bad}: truncated or invalid checkpoint")


def _sub_only_run(tmp_path, capsys):
    """A 1-epoch sub_only stage-2 checkpoint and a 6-trajectory eval file."""
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    s1 = json.loads(capsys.readouterr().out)["checkpoint"]
    assert main(["stage2", "--stage1-ckpt", s1, *_cfg_flags(tmp_path, ablation="sub_only")]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    data = str(tmp_path / "eval.jsonl")
    assert main(["gen-data", "--kind", "trajectories", "--seed", "3",
                 *_cfg_flags(tmp_path, **{"trajectory-count": 6}), "--output", data]) == 0
    capsys.readouterr()
    return ckpt, data


def test_eval_reads_the_mode_from_the_checkpoint(tmp_path, capsys):
    # a sub_only run trains no count token, so its evaluation has no count metric
    ckpt, data = _sub_only_run(tmp_path, capsys)
    assert load_checkpoint(ckpt, "stage2")[3]["ablation"] == "sub_only"
    assert main(["eval", "--ckpt", ckpt, "--data", data]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["count_accuracy"] is None
    store, enc, vocab, _ = load_checkpoint(ckpt, "stage2")
    dataset = read_trajectory_jsonl(data)
    prepared = prepare_trajectories(dataset, vocab, enc, precompute_viewpoint_features(dataset, store, enc))
    assert metrics == evaluate_retrieval(store, enc, prepared, mode="sub_only")
    # the mode is the checkpoint's; there is no flag to override it
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", ckpt, "--data", data, "--mode", "full"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode full" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_without_a_known_mode(tmp_path, capsys):
    # a stage-2 checkpoint written before the config recorded its mode is refused in one line
    ckpt, data = _sub_only_run(tmp_path, capsys)
    store, _, _, config = load_checkpoint(ckpt, "stage2")
    del config["ablation"]
    save_checkpoint(store, config, ckpt)
    assert main(["eval", "--ckpt", ckpt, "--data", data]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[CheckpointError]: {ckpt}: config records no known ablation mode (None); "
        "re-run stage 2 to get a checkpoint that does"]


def test_gradcheck_stage1(capsys):
    rc = main(["gradcheck", "--stage", "1"])
    assert rc == 0
    first, last = capsys.readouterr().out.strip().splitlines()
    worst = re.fullmatch(r"stage1 cross-entropy: worst (\S+) (\S+) of its gradient scale", first)
    assert worst, first
    assert worst[1].startswith(("visual.prompt.", "head.")) and float(worst[2]) < 1e-4
    assert last == "gradcheck: PASS"


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
def test_gradcheck_refuses_a_bad_tolerance(monkeypatch, capsys, tolerance):
    import navprompt.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the finite-difference sweep ran")

    monkeypatch.setattr(cli, "stage1_gradient_report", no_sweep)
    monkeypatch.setattr(cli, "stage2_gradient_report", no_sweep)
    assert main(["gradcheck", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error[ParameterError]: --tolerance must be finite and above 0, got {float(tolerance)}"]


def test_stage2_refuses_a_checkpoint_with_key_biases(tmp_path, capsys):
    # attention no longer has a key bias, and a stage-1 checkpoint written
    # while it did still carries visual.layer*.attn.bk, signed by its writer: it is refused
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    store, _, _, config = load_checkpoint(ckpt, "stage1")
    store.add("visual.layer0.attn.bk", np.zeros(16))
    store.set_frozen(store.frozen | {"visual.layer0.attn.bk"})
    save_checkpoint(store, config, ckpt)
    with pytest.raises(CheckpointError, match=r"extra \['visual\.layer0\.attn\.bk'\]"):
        load_checkpoint(ckpt, "stage1")
    assert main(["stage2", "--stage1-ckpt", ckpt, *_cfg_flags(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[CheckpointError]: ") and "visual.layer0.attn.bk" in err


def test_eval_refuses_a_checkpoint_with_deep_prompt_mode(tmp_path, capsys):
    # the encoder config once had a deep_prompt_mode field; a checkpoint
    # written then still carries it in its signed config, and is refused
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    s1 = json.loads(capsys.readouterr().out)["checkpoint"]
    assert main(["stage2", "--stage1-ckpt", s1, *_cfg_flags(tmp_path, **{"stage2-epochs": 0})]) == 0
    ckpt = json.loads(capsys.readouterr().out)["checkpoint"]
    store, _, _, config = load_checkpoint(ckpt, "stage2")
    config["encoder"]["deep_prompt_mode"] = "replace"
    save_checkpoint(store, config, ckpt)
    with pytest.raises(CheckpointError, match="invalid encoder config .*'deep_prompt_mode'") as exc:
        load_checkpoint(ckpt, "stage2")
    assert str(exc.value).startswith(f"{ckpt}: ")
    assert main(["eval", "--ckpt", ckpt, "--data", ckpt]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[CheckpointError]: {ckpt}: invalid encoder config")


def test_eval_refuses_a_format_1_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "stage2_checkpoint.json"
    ckpt.write_text(json.dumps({"format_version": 1, "config": {}, "tensors": {"w": {"shape": [1], "data": [0.5]}},
                                "frozen": []}))
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[CheckpointError]: {ckpt}: format_version 1 ")


def test_non_utf8_config_is_one_line_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 3\nstage1_lr = 0.0\xae1\n")
    rc = main(["stage1", "--config", str(cfg_file)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error[ParameterError]: {cfg_file}:2: not UTF-8 text (invalid start byte at byte 24)"]


def test_eval_refuses_a_stage1_checkpoint(tmp_path, capsys):
    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    data = str(tmp_path / "eval.jsonl")
    assert main(["gen-data", "--kind", "trajectories", "--seed", "3", "--trajectory-count", "4",
                 "--output", data]) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "run" / "stage1_checkpoint.json")
    rc = main(["eval", "--ckpt", ckpt, "--data", data])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error[CheckpointError]: {ckpt}: config records stage 'stage1', where a 'stage2' checkpoint "
                   "is needed"]


def test_each_command_refuses_the_other_stages_checkpoint(tmp_path, monkeypatch, capsys):
    # the signed stage is checked on load, before any data is built or read and before any output is written
    import navprompt.cli as cli
    import navprompt.training as training

    assert main(["stage1", *_cfg_flags(tmp_path, **{"stage1-epochs": 0})]) == 0
    s1 = json.loads(capsys.readouterr().out)["checkpoint"]
    assert main(["stage2", "--stage1-ckpt", s1, *_cfg_flags(tmp_path, **{"stage2-epochs": 0})]) == 0
    s2 = json.loads(capsys.readouterr().out)["checkpoint"]
    monkeypatch.setattr(training.RunConfig, "trajectory_dataset", lambda self: pytest.fail("data was built"))
    monkeypatch.setattr(cli, "read_trajectory_jsonl", lambda path: pytest.fail("data was read"))
    out = tmp_path / "out"
    for argv, ckpt, found, needed in (
            (["stage2", "--stage1-ckpt", s2, *_cfg_flags(tmp_path), "--out-dir", str(out)], s2, "stage2", "stage1"),
            (["eval", "--ckpt", s1, "--data", s1], s1, "stage1", "stage2")):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error[CheckpointError]: {ckpt}: config records stage {found!r}, where a {needed!r} checkpoint is needed"]
    assert not out.exists()


# values that parse but that RunConfig.validate refuses before any data is
# built; the error names the field rather than the line or flag
_OUT_OF_RANGE = [
    ("stage1_batch_size = 0", "stage1_batch_size must be at least 1, got 0"),
    ("stage1_batch_size = -5", "stage1_batch_size must be at least 1, got -5"),
    ("stage2_batch_size = 0", "stage2_batch_size must be at least 1, got 0"),
    ("stage1_epochs = -1", "stage1_epochs must be at least 0, got -1"),
    ("stage2_epochs = -1", "stage2_epochs must be at least 0, got -1"),
    ("stage1_lr = 0", "stage1_lr must be above 0, got 0.0"),
    ("stage2_lr = -0.5", "stage2_lr must be above 0, got -0.5"),
    ("subpaths_min = 5", "subpaths_max must be at least subpaths_min (5), got 4"),
    ("viewpoints_max = 3", "viewpoints_max must be at least viewpoints_min (4), got 3"),
    ("subpaths_max = 9", "viewpoints_max must be at least subpaths_max (9), got 8"),
    ("max_viewpoints = 7", "max_viewpoints must be at least viewpoints_max (8), got 7"),
]


@pytest.mark.parametrize("line,message", [
    ("stage1_lr = abc", "stage1_lr expects a float, got 'abc'"),
    ("temperature = nan", "temperature expects a float, got 'nan'"),
    ("stage1_epochs = 1.5", "stage1_epochs expects an integer, got '1.5'"),
    ("lambda1 = nan", "lambda1 expects a float, got 'nan'"),
    ("smoothing = inf", "smoothing expects a float, got 'inf'"),
    *_OUT_OF_RANGE,
])
def test_bad_config_value_is_one_line_error(tmp_path, capsys, line, message):
    # a config file line and the same value given as a flag are refused alike
    located = (line, message) not in _OUT_OF_RANGE
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"seed = 3\n{line}\n")
    rc = main(["stage1", "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error[ParameterError]: {f'{cfg_file}:2: ' if located else ''}{message}"]

    key, value = (part.strip() for part in line.split("="))
    flag = "--" + key.replace("_", "-")
    rc = main(["stage1", "--seed", "3", "--out-dir", str(tmp_path / "run"), flag, value])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error[ParameterError]: {f'{flag}: ' if located else ''}{message}"]
    assert not (tmp_path / "run").exists()


_INDOOR_OK = {"features": [[0.5, -1.0, 0.25, 2.0, 1.0, 0.0], [1.5, 0.5, -0.5, 0.0, 1.0, 2.0]], "label": 1}
_TRAJ_OK = {"instruction": "walk out of the bathroom and turn left", "path": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]}
# (name, bad indoor line, bad trajectory line)
_BAD_LINES = [
    ("invalid-json", '{"features": [[1.0]', '{"instruction": "turn left"'),
    ("not-an-object", "[1, 2]", "[1, 2]"),
    ("non-numeric", json.dumps({**_INDOOR_OK, "features": [["a", "b"]]}),
     json.dumps({**_TRAJ_OK, "path": [["a", "b"]]})),
    ("boolean", json.dumps({**_INDOOR_OK, "features": [[True, False]]}),
     json.dumps({**_TRAJ_OK, "path": [[True], [False]]})),
    ("ragged", json.dumps({**_INDOOR_OK, "features": [[1.0, 2.0], [3.0]]}),
     json.dumps({**_TRAJ_OK, "path": [[1.0, 2.0], [3.0]]})),
    ("flat", json.dumps({**_INDOOR_OK, "features": [1.0, 2.0]}), json.dumps({**_TRAJ_OK, "path": [1.0, 2.0]})),
    ("nan", '{"features": [[NaN, 1.0]], "label": 0}', '{"instruction": "turn left", "path": [[NaN]]}'),
    ("infinity", '{"features": [[Infinity, 1.0]], "label": 0}',
     '{"instruction": "turn left", "path": [[1.0], [-Infinity]]}'),
    ("missing-field", json.dumps({"features": [[1.0]]}), json.dumps({"path": [[1.0]]})),
    # nested deeper than the JSON decoder recurses
    ("deep-nesting", '{"features": ' + "[" * 100000 + "]" * 100000 + ', "label": 0}',
     '{"instruction": "turn left", "path": ' + "[" * 100000 + "]" * 100000 + "}"),
]


def _loader_command(kind, path, tmp_path):
    if kind == "indoor":
        return ["stage1", "--data", path, *_cfg_flags(tmp_path)]
    return ["segment", "--input", path, "--output", str(tmp_path / "seg.jsonl")]


# trajectory lines that parse but whose two sub-instructions cannot be paired
_UNPAIRABLE_LINES = [
    ("chunk-count", json.dumps({**_TRAJ_OK, "chunk_view": [[0, 3]]})),
    ("short-path", json.dumps({**_TRAJ_OK, "path": [[0.0, 1.0]]})),
]


def _check_bad_line(tmp_path, capsys, caplog, kind, bad):
    """An all-bad file is one error line; a mixed file skips the bad line."""
    good = json.dumps(_INDOOR_OK if kind == "indoor" else _TRAJ_OK)

    all_bad = tmp_path / "bad.jsonl"
    all_bad.write_text(bad + "\n\n" + bad + "\n")
    rc = main(_loader_command(kind, str(all_bad), tmp_path))
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[DatasetError]: ")
    assert f"{all_bad}:1: " in err[0]
    assert not caplog.records

    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([good, bad, good, good]) + "\n")
    with caplog.at_level("WARNING"):
        rc = main(_loader_command(kind, str(mixed), tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [f"{mixed}:2"]
    if kind == "indoor":
        metrics = json.loads(out)["metrics"]
        assert metrics["train_size"] + metrics["val_size"] == 3
    else:
        assert out.startswith("segmented 3 records")


@pytest.mark.parametrize("kind", ["indoor", "trajectories"])
@pytest.mark.parametrize("name,indoor_line,traj_line", _BAD_LINES, ids=[row[0] for row in _BAD_LINES])
def test_malformed_jsonl_line(tmp_path, capsys, caplog, kind, name, indoor_line, traj_line):
    _check_bad_line(tmp_path, capsys, caplog, kind, indoor_line if kind == "indoor" else traj_line)


@pytest.mark.parametrize("name,traj_line", _UNPAIRABLE_LINES, ids=[row[0] for row in _UNPAIRABLE_LINES])
def test_unpairable_trajectory_line(tmp_path, capsys, caplog, name, traj_line):
    _check_bad_line(tmp_path, capsys, caplog, "trajectories", traj_line)


def test_non_utf8_jsonl_is_dataset_error(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"instruction": "caf\xe9", "path": [[1.0]]}\n')
    rc = main(["segment", "--input", str(path), "--output", str(tmp_path / "seg.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[DatasetError]: ")

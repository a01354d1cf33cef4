"""Seeded byte-level corruption of every file loader.

Each round truncates, overwrites, inserts or deletes bytes of a valid file
and loads the result.  A loader may accept the file or raise a
NavPromptError; any other exception type fails the test with the round's
bytes.  What an accepted file may hold is checked per loader: the JSONL
loaders account for every non-blank line as a record or a ``path:line``
skip warning, and a checkpoint that loads carries exactly the saved config,
frozen set and tensors, because its digest covers all three.
"""

import dataclasses
import io
import random

import numpy as np
import pytest

from navprompt.data import (
    gen_indoor_dataset,
    gen_trajectory_dataset,
    read_indoor_jsonl,
    read_trajectory_jsonl,
    write_indoor_jsonl,
    write_trajectory_jsonl,
)
from navprompt.encoders import EncoderConfig, init_cross_params, init_text_params, init_visual_params
from navprompt.errors import NavPromptError
from navprompt.optim import ParamStore
from navprompt.training import load_checkpoint, parse_config_file, save_checkpoint

ROUNDS = 400
# three in four written bytes come from the characters these formats are made
# of, so corruption reaches the parsers' later checks and not only UTF-8
# decoding
_SYNTAX = b'{}[]",:.-+0123456789eEtrufalsnNI =#\n\\/Aa'


def _corrupt(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)

    def some_bytes(n: int) -> bytes:
        return bytes(rng.choice(_SYNTAX) if rng.random() < 0.75 else rng.randrange(256) for _ in range(n))

    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("truncate", "overwrite", "insert", "delete"))
        pos = rng.randrange(len(data) + 1)
        n = rng.randint(1, 4)
        if op == "truncate":
            del data[pos:]
        elif op == "overwrite":
            data[pos:pos + n] = some_bytes(len(data[pos:pos + n]))
        elif op == "insert":
            data[pos:pos] = some_bytes(n)
        else:
            del data[pos:pos + n]
    return bytes(data)


def _fuzz(tmp_path, name: str, blob: bytes, seed: int, load, accepted=lambda value, bad: None) -> int:
    """Load ROUNDS corruptions of ``blob``; return how many were refused."""
    rng = random.Random(seed)
    path = tmp_path / name
    refused = 0
    for k in range(ROUNDS):
        bad = _corrupt(blob, rng)
        path.write_bytes(bad)
        try:
            value = load(str(path))
        except NavPromptError:
            refused += 1
            continue
        except Exception as exc:  # any other type is the failure under test
            pytest.fail(f"round {k} (seed {seed}): {type(exc).__name__}: {exc}\ninput: {bad!r}")
        accepted(value, bad)
    return refused


def _non_blank_lines(blob: bytes) -> int:
    return sum(1 for line in io.StringIO(blob.decode("utf-8"), newline=None) if line.strip())


def _check_jsonl(tmp_path, caplog, blob: bytes, seed: int, read) -> None:
    def accepted(records, bad):
        skipped = [r for r in caplog.records if r.getMessage().endswith("; line skipped")]
        assert len(records) + len(skipped) == _non_blank_lines(bad)
        caplog.clear()

    def load(path):
        caplog.clear()
        return read(path)

    with caplog.at_level("WARNING"):
        refused = _fuzz(tmp_path, "data.jsonl", blob, seed, load, accepted)
    assert 0 < refused < ROUNDS


def test_indoor_jsonl(tmp_path, caplog):
    path = tmp_path / "indoor.jsonl"
    write_indoor_jsonl(gen_indoor_dataset(num_classes=2, samples_per_class=2, num_patches=2, feature_dim=3), str(path))
    _check_jsonl(tmp_path, caplog, path.read_bytes(), 1, read_indoor_jsonl)


def test_trajectory_jsonl(tmp_path, caplog):
    path = tmp_path / "traj.jsonl"
    samples = gen_trajectory_dataset(count=3, subpaths_range=(1, 3), viewpoints_range=(3, 5), feature_dim=3)
    write_trajectory_jsonl(samples, str(path))
    _check_jsonl(tmp_path, caplog, path.read_bytes(), 2, read_trajectory_jsonl)


def test_config_file(tmp_path):
    path = tmp_path / "reference.cfg"
    path.write_bytes(b"# run settings\nseed = 3\nstage1_lr = 0.001\nprompt_layers = 1\n"
                     b"ablation = cnt_ind\nd = 16\ntemperature = 0.1  # tau\n")
    assert parse_config_file(str(path))["d"] == 16
    refused = _fuzz(tmp_path, "run.cfg", path.read_bytes(), 3, parse_config_file)
    assert 0 < refused < ROUNDS


def test_checkpoint(tmp_path):
    enc = EncoderConfig(d=4, heads=2, ff_mult=1, visual_layers=1, text_layers=1, cross_layers=1,
                        prompt_count=2, prompt_layers=1, num_patches=2, feature_dim=3, num_classes=2,
                        max_text_len=6, max_viewpoints=4, max_subpaths=3)
    store = ParamStore()
    rng = np.random.default_rng(0)
    init_visual_params(store, enc, rng)
    init_text_params(store, enc, 5, rng)
    init_cross_params(store, enc, rng)
    store.set_frozen({"visual.cls", "text.tok_embed"})
    config = {"encoder": dataclasses.asdict(enc), "stage": "stage2", "ablation": "full",
              "vocab": ["<pad>", "<unk>", "<cls>", "<sep>", "left"], "seed": 3}
    path = tmp_path / "reference.json"
    save_checkpoint(store, config, str(path))

    def accepted(loaded, bad):
        loaded_store, _, _, loaded_config = loaded
        assert loaded_config == config and loaded_store.frozen == store.frozen
        assert sorted(loaded_store.names()) == sorted(store.names())
        for name in store.names():
            assert loaded_store[name].data.tobytes() == store[name].data.tobytes()

    refused = _fuzz(tmp_path, "ckpt.json", path.read_bytes(), 4, lambda p: load_checkpoint(p, "stage2"), accepted)
    assert refused > ROUNDS // 2


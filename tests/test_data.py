"""The trajectory record, the synthetic dataset generators and their persistence."""

import dataclasses

import numpy as np
import pytest

from navprompt.data import (
    ACTION_BANK,
    TrajectorySample,
    gen_indoor_dataset,
    gen_trajectory_dataset,
    read_indoor_jsonl,
    read_trajectory_jsonl,
    split_indices,
    write_indoor_jsonl,
    write_trajectory_jsonl,
)
from navprompt.errors import DatasetError, ParameterError, ValidationError
from navprompt.segmenter import Instruction, split_instruction


def _record(length, chunks, subs):
    return TrajectorySample(viewpoints=np.zeros((length, 2)), instruction=Instruction.from_text("walk"),
                            chunks=chunks, sub_instructions=subs)


class TestTrajectorySample:
    @pytest.mark.parametrize("length,chunks,subs,message", [
        (4, [(0, 1), (2, 4)], ["a", "b"], r"gap or overlap at index 1 \(got start 2\)"),
        (4, [(0, 3), (2, 4)], ["a", "b"], r"gap or overlap at index 3 \(got start 2\)"),
        (4, [(0, 2), (2, 2), (2, 4)], ["a", "b", "c"], r"chunk \[2, 2\) is empty or reversed"),
        (4, [(0, 1), (1, 3)], ["a", "b"], r"chunks cover \[0, 3\) but the path has length 4"),
        (4, [(0, 2), (2, 5)], ["a", "b"], r"chunks cover \[0, 5\) but the path has length 4"),
        (4, [(0, 2), (2, 4)], ["a", "b", "c"], r"^2 chunks for 3 sub-instructions$"),
        (0, [], [], r"^0 chunks for 0 sub-instructions$"),
        (4, [(0, 2), (2, 3, 4)], ["a", "b"], r"chunk \(2, 3, 4\) is not a \[start, end\) pair"),
        (4, [(0, 2), (2.0, 4)], ["a", "b"], r"chunk \(2\.0, 4\) must hold integers"),
        (2, [[False, 1], [True, 2]], ["a", "b"], r"chunk \[False, 1\] must hold integers"),
    ], ids=["gap", "overlap", "empty_chunk", "short_cover", "long_cover", "count_mismatch", "no_chunks",
            "non_pair", "non_integer", "boolean"])
    def test_malformed_record_is_refused_at_construction(self, length, chunks, subs, message):
        with pytest.raises(ValidationError, match=message):
            _record(length, chunks, subs)

    def test_fields_are_normalized_and_frozen(self):
        sample = _record(4, [[np.int64(0), 1], (1, np.int32(4))], ("a", "b"))
        assert sample.chunks == [(0, 1), (1, 4)]
        assert all(type(i) is int for chunk in sample.chunks for i in chunk)
        assert sample.sub_instructions == ["a", "b"]
        for field in ("chunks", "sub_instructions", "viewpoints", "instruction"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, field, getattr(sample, field))


class TestIndoorGenerator:
    def test_default_size(self):
        samples = gen_indoor_dataset(num_classes=10, samples_per_class=100, seed=0)
        assert len(samples) == 1000
        assert all(0 <= s.label < 10 for s in samples)

    def test_zero_noise_identical_within_class(self):
        samples = gen_indoor_dataset(num_classes=3, samples_per_class=4, noise=0.0, seed=1)
        by_class = {}
        for s in samples:
            by_class.setdefault(s.label, []).append(s.features)
        for feats in by_class.values():
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])

    def test_deterministic(self):
        a = gen_indoor_dataset(num_classes=4, samples_per_class=5, seed=7)
        b = gen_indoor_dataset(num_classes=4, samples_per_class=5, seed=7)
        for x, y in zip(a, b):
            assert x.label == y.label
            np.testing.assert_array_equal(x.features, y.features)

    def test_class_floor(self):
        with pytest.raises(ParameterError):
            gen_indoor_dataset(num_classes=1, samples_per_class=5, seed=0)
        with pytest.raises(ParameterError, match=r"noise must be nonnegative, got -1\.0"):
            gen_indoor_dataset(num_classes=2, samples_per_class=5, noise=-1.0, seed=0)
        with pytest.raises(ParameterError, match=r"^seed must be at least 0, got -1$"):
            gen_indoor_dataset(num_classes=2, samples_per_class=5, seed=-1)


class TestTrajectoryGenerator:
    def test_chunks_partition_viewpoints(self):
        samples = gen_trajectory_dataset(count=50, subpaths_range=(2, 4), viewpoints_range=(4, 8), seed=0)
        for s in samples:
            assert s.chunks[0][0] == 0
            assert s.chunks[-1][1] == s.viewpoints.shape[0]
            for (a, b), (c, d) in zip(s.chunks, s.chunks[1:]):
                assert b == c and b > a
            assert len(s.chunks) == len(s.sub_instructions)

    def test_resegmentation_recovers_fragments(self):
        samples = gen_trajectory_dataset(count=100, subpaths_range=(2, 4), viewpoints_range=(4, 8), seed=3)
        for s in samples:
            subs = split_instruction(s.instruction)
            assert [x.text for x in subs] == s.sub_instructions

    def test_deterministic(self):
        a = gen_trajectory_dataset(count=10, seed=5)
        b = gen_trajectory_dataset(count=10, seed=5)
        for x, y in zip(a, b):
            assert x.instruction.text == y.instruction.text
            np.testing.assert_array_equal(x.viewpoints, y.viewpoints)
            assert x.chunks == y.chunks

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            gen_trajectory_dataset(count=5, subpaths_range=(3, 5), viewpoints_range=(2, 4), seed=0)
        for kwargs, message in (
            ({"duplicate_prob": 2.0}, r"duplicate_prob must lie in \[0, 1\], got 2\.0"),
            ({"duplicate_prob": -0.5}, r"duplicate_prob must lie in \[0, 1\], got -0\.5"),
            ({"noise": -1.0}, r"noise must be nonnegative, got -1\.0"),
        ):
            with pytest.raises(ParameterError, match=message):
                gen_trajectory_dataset(count=5, seed=0, **kwargs)
        with pytest.raises(ParameterError, match=r"^seed must be at least 0, got -1$"):
            gen_trajectory_dataset(count=5, seed=-1)

    def test_action_bank_is_segmentation_safe(self):
        for action in ACTION_BANK:
            toks = action.split()
            assert len(toks) >= 2
            assert not ({"and", ",", "."} & set(toks))


class TestSplitIndices:
    def test_deterministic_and_disjoint(self):
        a_train, a_val = split_indices(500, seed=1, val_fraction=0.1)
        b_train, b_val = split_indices(500, seed=1, val_fraction=0.1)
        assert a_train == b_train and a_val == b_val
        assert not set(a_train) & set(a_val)
        assert sorted(a_train + a_val) == list(range(500))

    def test_fraction_respected(self):
        train, val = split_indices(2000, seed=2, val_fraction=0.1)
        assert 0.05 < len(val) / 2000 < 0.15

    def test_different_seeds_differ(self):
        _, val_a = split_indices(500, seed=1, val_fraction=0.1)
        _, val_b = split_indices(500, seed=2, val_fraction=0.1)
        assert val_a != val_b


class TestJsonlRoundTrip:
    def test_indoor(self, tmp_path):
        samples = gen_indoor_dataset(num_classes=3, samples_per_class=2, seed=0)
        path = str(tmp_path / "indoor.jsonl")
        write_indoor_jsonl(samples, path)
        loaded = read_indoor_jsonl(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.label == b.label
            np.testing.assert_array_equal(a.features, b.features)

    def test_trajectories(self, tmp_path):
        samples = gen_trajectory_dataset(count=8, seed=1)
        path = str(tmp_path / "traj.jsonl")
        write_trajectory_jsonl(samples, path)
        loaded = read_trajectory_jsonl(path)
        assert len(loaded) == 8
        for a, b in zip(samples, loaded):
            np.testing.assert_array_equal(a.viewpoints, b.viewpoints)
            assert a.viewpoints.dtype == b.viewpoints.dtype and a.viewpoints.tobytes() == b.viewpoints.tobytes()
            assert a.chunks == b.chunks
            assert a.sub_instructions == b.sub_instructions
            assert a.instruction.text == b.instruction.text

    def test_trajectories_without_chunks_fall_back_to_uniform(self, tmp_path):
        import json

        path = str(tmp_path / "plain.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "instruction": "walk out of the bathroom and turn left",
                "path": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.2, 0.8]],
            }) + "\n")
        loaded = read_trajectory_jsonl(path)
        assert loaded[0].chunks == [(0, 2), (2, 4)]
        assert loaded[0].sub_instructions == ["walk out of the bathroom", "turn left"]

    def test_record_keeps_its_own_sub_instructions(self, tmp_path):
        import json

        # "then" is no delimiter: segmenting the instruction would give one sub-instruction for two chunks
        record = {"instruction": "walk to the door then turn left", "path": [[0.0], [1.0]],
                  "chunk_view": [[0, 1], [1, 2]], "sub_instructions": ["walk to the door", "then turn left"]}
        path = tmp_path / "own.jsonl"
        path.write_text(json.dumps(record) + "\n")
        loaded = read_trajectory_jsonl(str(path))
        assert loaded[0].sub_instructions == ["walk to the door", "then turn left"]
        assert loaded[0].chunks == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("subs", [[], "walk", ["walk", ""], ["walk", "  "], ["walk", 3], {"a": "b"}],
                             ids=["empty", "string", "empty_item", "blank_item", "number", "object"])
    def test_malformed_sub_instructions_skip_the_line(self, tmp_path, caplog, subs):
        import json

        path = tmp_path / "bad.jsonl"
        good = {"instruction": "walk out of the bathroom and turn left", "path": [[0.0], [1.0], [2.0]]}
        path.write_text("\n".join(json.dumps(r) for r in [good, {**good, "sub_instructions": subs}]) + "\n")
        with caplog.at_level("WARNING"):
            loaded = read_trajectory_jsonl(str(path))
        assert len(loaded) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:2: 'sub_instructions' must be a non-empty list of non-blank strings; line skipped"
        ]

    def test_unpairable_line_skipped(self, tmp_path, caplog):
        import json

        path = tmp_path / "mixed.jsonl"
        good = {"instruction": "walk out of the bathroom and turn left", "path": [[0.0], [1.0], [2.0]]}
        path.write_text("\n".join(json.dumps(r) for r in [good, {**good, "chunk_view": [[0, 3]]}]) + "\n")
        with caplog.at_level("WARNING"):
            loaded = read_trajectory_jsonl(str(path))
        assert [s.chunks for s in loaded] == [[(0, 2), (2, 3)]]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:2: 1 chunks for 2 sub-instructions; line skipped"
        ]

    def test_empty_indoor_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError):
            read_indoor_jsonl(str(path))

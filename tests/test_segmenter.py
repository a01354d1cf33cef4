"""Segmentation fidelity, sub-path pairing, and dataset ingestion."""

import json

import numpy as np
import pytest

from navprompt.data import TrajectorySample, read_trajectory_jsonl
from navprompt.errors import DatasetError, ParseError, ValidationError
from navprompt.segmenter import (
    DELIMITERS,
    Instruction,
    even_partition,
    split_instruction,
    tokenize_text,
)

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


class TestSplitInstruction:
    def test_worked_example_four_fragments(self):
        subs = split_instruction(WORKED_INSTRUCTION)
        assert [s.text for s in subs] == WORKED_FRAGMENTS
        assert [s.index for s in subs] == [1, 2, 3, 4]

    def test_two_clause_example(self):
        subs = split_instruction("Walk out of the bathroom and turn left")
        assert [s.text for s in subs] == ["walk out of the bathroom", "turn left"]

    def test_no_delimiter(self):
        subs = split_instruction("turn left")
        assert len(subs) == 1
        assert subs[0].text == "turn left"

    def test_short_fragment_merges_backward(self):
        subs = split_instruction("walk to the kitchen, quickly")
        assert [s.text for s in subs] == ["walk to the kitchen quickly"]

    def test_short_leading_fragment_merges_forward(self):
        subs = split_instruction("okay, walk to the kitchen")
        assert [s.text for s in subs] == ["okay walk to the kitchen"]

    def test_empty_raises(self):
        with pytest.raises(ParseError):
            split_instruction("   ")

    def test_delimiters_only_raises(self):
        with pytest.raises(ParseError):
            split_instruction("and, and.")

    def test_consecutive_delimiters_no_empty_fragment(self):
        subs = split_instruction("walk forward and, then stop here.")
        assert all(s.tokens for s in subs)
        assert [s.text for s in subs] == ["walk forward", "then stop here"]


def _random_instruction(rng):
    words = ["walk", "turn", "go", "past", "the", "rug", "table", "left", "right", "door", "up", "down"]
    n_frags = rng.integers(1, 6)
    pieces = []
    for _ in range(n_frags):
        length = rng.integers(2, 6)
        pieces.append(" ".join(rng.choice(words, size=length)))
    delims = [", ", " and ", ". "]
    text = pieces[0]
    for piece in pieces[1:]:
        text += delims[rng.integers(0, 3)] + piece
    return text + "."


class TestSegmentationProperties:
    def test_round_trip_token_coverage(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            text = _random_instruction(rng)
            original = [t for t in tokenize_text(text) if t not in DELIMITERS]
            subs = split_instruction(text)
            recovered = [t for s in subs for t in s.tokens]
            assert recovered == original

    def test_monotone_ordinals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            text = _random_instruction(rng)
            tokens = tokenize_text(text)
            subs = split_instruction(text)
            cursor = 0
            for s in subs:
                pos = tokens.index(s.tokens[0], cursor)
                assert pos >= cursor
                cursor = pos

    def test_deterministic(self):
        text = _random_instruction(np.random.default_rng(3))
        assert split_instruction(text) == split_instruction(text)


def _sample(m, length, chunks):
    """A record of ``m`` sub-instructions paired with ``chunks`` of a ``length``-viewpoint path."""
    return TrajectorySample(viewpoints=np.zeros((length, 1)), instruction=Instruction.from_text("step"),
                            chunks=chunks, sub_instructions=[f"step {i + 1}" for i in range(m)])


class TestPairSubpaths:
    def test_even_split(self):
        assert even_partition(4, 2) == [(0, 2), (2, 4)]

    def test_remainder_to_front(self):
        assert even_partition(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_remainder_rule_by_enumeration(self):
        # Oracle: sizes must differ by at most one, be non-increasing, and
        # partition the path exactly.
        for m in range(1, 6):
            for length in range(m, 20):
                ranges = even_partition(length, m)
                sizes = [end - start for start, end in ranges]
                assert sum(sizes) == length
                assert ranges[0][0] == 0 and ranges[-1][1] == length
                assert all(ranges[i][1] == ranges[i + 1][0] for i in range(m - 1))
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)

    def test_explicit_chunks_pass_through(self):
        assert _sample(2, 5, chunks=[[0, 1], [1, 5]]).chunks == [(0, 1), (1, 5)]
        # chunks built in code may hold numpy integers
        sample = _sample(2, 5, chunks=[(np.int64(0), np.int64(1)), (np.int64(1), 5)])
        assert [(type(start), end) for start, end in sample.chunks] == [(int, 1), (int, 5)]

    def test_path_too_short(self):
        with pytest.raises(ValidationError):
            even_partition(2, 3)

    def test_malformed_chunks(self):
        with pytest.raises(ValidationError):
            _sample(2, 4, chunks=[[0, 3], [2, 4]])
        with pytest.raises(ValidationError):
            _sample(2, 4, chunks=[[0, 2], [2, 3]])
        with pytest.raises(ValidationError):
            _sample(3, 4, chunks=[[0, 2], [2, 4]])


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(p)

    def test_valid_records(self, tmp_path):
        lines = [
            json.dumps({"instruction": "walk out and turn left", "path": [[0.0], [1.0]]}),
            json.dumps({"instruction": "go up the stairs", "path": [[0.5]]}),
            json.dumps({"instruction": "stop at the door, wait there", "path": [[1.0], [2.0], [3.0]], "chunk_view": [[0, 1], [1, 3]]}),
        ]
        records = read_trajectory_jsonl(self._write(tmp_path, lines))
        assert len(records) == 3
        assert records[2].chunks == [(0, 1), (1, 3)]

    def test_missing_instruction_skipped(self, tmp_path, caplog):
        lines = [
            json.dumps({"path": [[0.0]]}),
            json.dumps({"instruction": "turn left now", "path": [[0.0]]}),
        ]
        with caplog.at_level("WARNING"):
            records = read_trajectory_jsonl(self._write(tmp_path, lines))
        assert len(records) == 1
        assert any(":1:" in r.message for r in caplog.records)

    def test_overlapping_chunks_rejected(self, tmp_path):
        lines = [
            json.dumps({"instruction": "walk out and turn left", "path": [[0.0], [1.0], [2.0]], "chunk_view": [[0, 2], [1, 3]]}),
            json.dumps({"instruction": "turn left now", "path": [[0.0]]}),
        ]
        records = read_trajectory_jsonl(self._write(tmp_path, lines))
        assert len(records) == 1

    def test_zero_valid_records(self, tmp_path):
        with pytest.raises(DatasetError):
            read_trajectory_jsonl(self._write(tmp_path, ["not json", json.dumps({"path": [[1.0]]})]))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trajectory_jsonl(str(tmp_path / "missing.jsonl"))

"""Instruction segmentation and sub-path pairing.

Instructions split into ordinal sub-instructions at sentence periods, commas,
and the standalone token "and".  Each sub-instruction is paired with a
contiguous range of viewpoint indices, either from explicit chunk annotations
or by a near-equal fallback partition.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from .errors import AlignmentError, DatasetError, ParseError, ValidationError

log = logging.getLogger(__name__)

T = TypeVar("T")

DELIMITERS = {".", ",", "and"}

# Fragments with fewer tokens than this merge into a neighbor; bare remnants
# like a lone "left" after splitting carry no standalone action semantics.
MIN_FRAGMENT_TOKENS = 2

_TOKEN_RE = re.compile(r"[\w']+|[^\w\s]")


def tokenize_text(text: str) -> list[str]:
    """Lowercase word tokens with punctuation separated into its own tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Instruction:
    text: str
    tokens: list[str] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str) -> "Instruction":
        tokens = tokenize_text(text)
        if not tokens:
            raise ParseError("instruction is empty or whitespace-only")
        return cls(text=text, tokens=tokens)


@dataclass(frozen=True)
class SubInstruction:
    index: int  # 1-based ordinal
    text: str
    tokens: list[str]


@dataclass(frozen=True)
class AlignedPair:
    sub_instruction: SubInstruction
    start: int
    end: int  # half-open [start, end)


def split_instruction(instr: Instruction | str) -> list[SubInstruction]:
    """Split at delimiter tokens, drop the delimiters, merge short remnants.

    A fragment with fewer than MIN_FRAGMENT_TOKENS tokens is merged into the
    preceding fragment, or into the following one when it comes first.
    """
    if isinstance(instr, str):
        instr = Instruction.from_text(instr)

    fragments: list[list[str]] = []
    current: list[str] = []
    for token in instr.tokens:
        if token in DELIMITERS:
            if current:
                fragments.append(current)
                current = []
        else:
            current.append(token)
    if current:
        fragments.append(current)
    if not fragments:
        raise ParseError(f"instruction contains only delimiters: {instr.text!r}")

    merged: list[list[str]] = []
    pending_front: list[str] = []
    for tokens in fragments:
        if len(tokens) < MIN_FRAGMENT_TOKENS and len(fragments) > 1:
            if merged:
                merged[-1].extend(tokens)
            else:
                pending_front.extend(tokens)
        else:
            if pending_front:
                tokens = pending_front + tokens
                pending_front = []
            merged.append(list(tokens))
    if pending_front:
        # Every fragment was short; fall back to a single sub-instruction.
        merged.append(pending_front)

    return [
        SubInstruction(index=i + 1, text=" ".join(tokens), tokens=tokens)
        for i, tokens in enumerate(merged)
    ]


def check_partition(chunks, path_length: int) -> list[tuple[int, int]]:
    """``chunks`` as (start, end) pairs that partition [0, path_length) in order.

    Raises ValidationError on a non-pair or non-integer item, a gap, an
    overlap, an empty range, or a cover of the wrong length.
    """
    out: list[tuple[int, int]] = []
    for item in chunks:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValidationError(f"chunk {item!r} is not a [start, end) pair")
        s, e = item
        if not (isinstance(s, (int, np.integer)) and isinstance(e, (int, np.integer))):
            raise ValidationError(f"chunk {item!r} must hold integers")
        out.append((int(s), int(e)))
    cursor = 0
    for s, e in out:
        if s != cursor:
            raise ValidationError(f"chunks leave a gap or overlap at index {cursor} (got start {s})")
        if e <= s:
            raise ValidationError(f"chunk [{s}, {e}) is empty or reversed")
        cursor = e
    if cursor != path_length:
        raise ValidationError(f"chunks cover [0, {cursor}) but the path has length {path_length}")
    return out


def pair_subpaths(
    subs: list[SubInstruction],
    path_length: int,
    chunks: list | None = None,
) -> list[AlignedPair]:
    """Pair each sub-instruction with a contiguous viewpoint range.

    Explicit chunks are validated and used verbatim; otherwise [0, path_length)
    is partitioned into len(subs) near-equal ranges with the remainder given
    to the earliest ranges.
    """
    m = len(subs)
    if chunks is not None:
        ranges = check_partition(chunks, path_length)
        if len(ranges) != m:
            raise ValidationError(f"{len(ranges)} chunks for {m} sub-instructions")
    else:
        if path_length < m:
            raise AlignmentError(f"path of length {path_length} cannot cover {m} sub-instructions")
        base, rem = divmod(path_length, m)
        ranges = []
        cursor = 0
        for i in range(m):
            size = base + (1 if i < rem else 0)
            ranges.append((cursor, cursor + size))
            cursor += size
    return [AlignedPair(sub, s, e) for sub, (s, e) in zip(subs, ranges)]


@dataclass
class DatasetRecord:
    instruction: Instruction
    path: list
    chunks: list[tuple[int, int]] | None  # the record's own chunk_view, if any
    pairs: list[AlignedPair]              # its sub-instructions, paired with sub-paths


def load_dataset(path: str) -> list[DatasetRecord]:
    """Read a JSONL file of {instruction, path, chunk_view?} records.

    Each record is segmented and paired on load, so a line whose sub-paths
    cannot be paired is skipped like any other malformed line.
    """
    return read_jsonl(path, _parse_record, "records")


def read_jsonl(path: str, parse: Callable[[object], T], what: str) -> list[T]:
    """Parse every non-blank line of a JSONL file with ``parse``.

    A line that is not JSON (nested too deep to decode included), or whose
    value ``parse`` rejects with a ValidationError or ParseError, is skipped
    with a ``path:line`` warning.
    A file that yields no record at all raises DatasetError naming the first
    bad line instead, so a wholly bad file gives one error and no warnings.
    """
    records: list[T] = []
    skipped: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(parse(json.loads(line)))
                except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deep a nesting
                    skipped.append(f"{path}:{lineno}: invalid JSON ({exc})")
                except (ParseError, ValidationError) as exc:
                    skipped.append(f"{path}:{lineno}: {exc}")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})") from exc
    if not records:
        first = f"; {len(skipped)} bad lines, the first at {skipped[0]}" if skipped else ""
        raise DatasetError(f"{path}: no valid {what}{first}")
    for message in skipped:
        log.warning("%s; line skipped", message)
    return records


def numeric_matrix(value, name: str) -> np.ndarray:
    """``value`` as a non-empty 2-d float64 array of finite numbers.

    Strings, booleans, nulls, ragged rows and NaN/Infinity raise
    ValidationError, so a loaded record can never carry them into training.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 2 or arr.size == 0 or arr.dtype.kind not in "iuf":
        raise ValidationError(f"'{name}' must be a non-empty 2-d array of numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"'{name}' holds non-finite values")
    return arr


def _parse_record(obj) -> DatasetRecord:
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    text = obj.get("instruction")
    if not isinstance(text, str):
        raise ValidationError("missing or non-string 'instruction'")
    raw_path = obj.get("path")
    if not isinstance(raw_path, list) or not raw_path:
        raise ValidationError("missing or empty 'path'")
    numeric_matrix(raw_path, "path")
    chunks = obj.get("chunk_view")
    if chunks is not None and not isinstance(chunks, list):
        raise ValidationError("'chunk_view' must be a list of [start, end) pairs")
    instruction = Instruction.from_text(text)
    try:
        pairs = pair_subpaths(split_instruction(instruction), len(raw_path), chunks)
    except AlignmentError as exc:
        raise ValidationError(str(exc)) from exc
    parsed_chunks = None if chunks is None else [(p.start, p.end) for p in pairs]
    return DatasetRecord(instruction=instruction, path=raw_path, chunks=parsed_chunks, pairs=pairs)

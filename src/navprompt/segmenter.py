"""Instruction segmentation and the sub-path partition rule.

Instructions split into ordinal sub-instructions at sentence periods, commas,
and the standalone token "and".  Each sub-instruction pairs with a contiguous
range of viewpoint indices; ``check_partition`` is the rule such ranges obey,
and ``even_partition`` gives the ranges of a record without chunk annotations.
``data.TrajectorySample`` holds the paired record and checks it on
construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

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

    Raises ValidationError on a non-pair or non-integer item (a boolean is
    not an index), a gap, an overlap, an empty range, or a cover of the
    wrong length.
    """
    out: list[tuple[int, int]] = []
    for item in chunks:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValidationError(f"chunk {item!r} is not a [start, end) pair")
        s, e = item
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in item):
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


def even_partition(path_length: int, m: int) -> list[tuple[int, int]]:
    """[0, path_length) as m contiguous near-equal ranges, the remainder given to the earliest.

    This is the sub-path pairing of a record that carries no chunk annotations.
    """
    if path_length < m:
        raise ValidationError(f"path of length {path_length} cannot cover {m} sub-instructions")
    base, rem = divmod(path_length, m)
    ranges = []
    cursor = 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        ranges.append((cursor, cursor + size))
        cursor += size
    return ranges

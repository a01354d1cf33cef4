"""Dataset records, their synthetic generators and their JSONL files.

A ``TrajectorySample`` is the one trajectory record from file to batch: its
viewpoint features, its instruction, and the instruction's sub-instructions,
each paired with a contiguous sub-path.  It checks that pairing once, when it
is built, so every stage that reads it can trust it.  ``read_trajectory_jsonl``
builds the records of a file: it takes each record's own sub-instructions,
or segments its instruction when it has none, and pairs them with sub-paths
from the record's ``chunk_view`` or by the even partition.

Every class (stage 1) and every action type (stage 2) gets a fixed random
prototype feature pattern; samples add Gaussian noise around it, so both
stages are learnable by construction and fully deterministic under a seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .encoders import EncoderConfig
from .errors import DatasetError, ParameterError, ParseError, ValidationError
from .prompts import ContextPromptSet, build_prompt_set
from .segmenter import Instruction, SubInstruction, check_partition, even_partition, split_instruction

log = logging.getLogger(__name__)

T = TypeVar("T")

_VERBS = [
    "walk into the", "walk out of the", "walk past the",
    "go through the", "walk towards the", "stop at the",
]
_ROOMS = ["kitchen", "bathroom", "hallway", "bedroom", "office", "garage", "balcony", "closet"]
_STANDALONE = [
    "turn left", "turn right", "turn around",
    "go up the stairs", "go down the stairs", "wait by the door",
]

ACTION_BANK: list[str] = [f"{verb} {room}" for verb in _VERBS for room in _ROOMS] + _STANDALONE

_JOINERS = [", ", " and ", ". "]

# generator defaults, which RunConfig's dataset fields share; widths come from EncoderConfig
DEFAULT_SAMPLES_PER_CLASS = 100
DEFAULT_TRAJECTORY_COUNT = 500
DEFAULT_SUBPATHS = (2, 4)
DEFAULT_VIEWPOINTS = (4, 8)
DEFAULT_NOISE = 0.1
DEFAULT_DUPLICATE_PROB = 0.3


@dataclass
class IndoorSample:
    features: np.ndarray  # (num_patches, feature_dim)
    label: int


@dataclass(frozen=True, eq=False)  # eq=False: the viewpoint array has no truth value to compare by
class TrajectorySample:
    """One trajectory whose sub-instructions pair, in order, with sub-paths that partition it.

    Construction normalizes ``chunks`` to (int, int) pairs and raises
    ValidationError unless they partition the viewpoints and number as many
    as the sub-instructions, at least one.
    """

    viewpoints: np.ndarray  # (T, feature_dim)
    instruction: Instruction
    chunks: list[tuple[int, int]]
    sub_instructions: list[str]

    def __post_init__(self):
        chunks = check_partition(self.chunks, len(self.viewpoints))
        if not len(self.sub_instructions) == len(chunks) >= 1:
            raise ValidationError(f"{len(chunks)} chunks for {len(self.sub_instructions)} sub-instructions")
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "sub_instructions", list(self.sub_instructions))

    def prompt_set(self) -> ContextPromptSet:
        return build_prompt_set([SubInstruction(index=i + 1, text=text, tokens=text.split())
                                 for i, text in enumerate(self.sub_instructions)])


def gen_indoor_dataset(
    num_classes: int = EncoderConfig.num_classes,
    samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
    noise: float = DEFAULT_NOISE,
    seed: int = 0,
    num_patches: int = EncoderConfig.num_patches,
    feature_dim: int = EncoderConfig.feature_dim,
) -> list[IndoorSample]:
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got {seed}")
    if num_classes < 2:
        raise ParameterError(f"need at least 2 classes, got {num_classes}")
    if samples_per_class < 1:
        raise ParameterError("samples_per_class must be positive")
    if not noise >= 0:
        raise ParameterError(f"noise must be nonnegative, got {noise}")
    rng = np.random.default_rng([seed, 101])
    prototypes = rng.normal(size=(num_classes, num_patches, feature_dim))
    samples = []
    for label in range(num_classes):
        for _ in range(samples_per_class):
            features = prototypes[label] + noise * rng.standard_normal((num_patches, feature_dim))
            samples.append(IndoorSample(features=features, label=label))
    return samples


def gen_trajectory_dataset(
    count: int = DEFAULT_TRAJECTORY_COUNT,
    subpaths_range: tuple[int, int] = DEFAULT_SUBPATHS,
    viewpoints_range: tuple[int, int] = DEFAULT_VIEWPOINTS,
    seed: int = 0,
    feature_dim: int = EncoderConfig.feature_dim,
    noise: float = DEFAULT_NOISE,
    duplicate_prob: float = DEFAULT_DUPLICATE_PROB,
) -> list[TrajectorySample]:
    """Trajectories whose sub-paths are noisy copies of per-action prototypes.

    With probability ``duplicate_prob`` a trajectory repeats one action type,
    which makes the ordinal information genuinely informative: identical
    action texts can then only be told apart by their position.
    """
    m_lo, m_hi = subpaths_range
    t_lo, t_hi = viewpoints_range
    if not (1 <= m_lo <= m_hi):
        raise ParameterError(f"bad sub-path range {subpaths_range}")
    if t_hi < t_lo or t_hi < m_hi:
        raise ParameterError(f"viewpoint range {viewpoints_range} cannot cover up to {m_hi} sub-paths")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got {seed}")
    if count < 1:
        raise ParameterError("count must be positive")
    if not noise >= 0:
        raise ParameterError(f"noise must be nonnegative, got {noise}")
    if not 0 <= duplicate_prob <= 1:
        raise ParameterError(f"duplicate_prob must lie in [0, 1], got {duplicate_prob}")

    rng = np.random.default_rng([seed, 202])
    prototypes = rng.normal(size=(len(ACTION_BANK), feature_dim))
    samples = []
    for _ in range(count):
        m = int(rng.integers(m_lo, m_hi + 1))
        t = int(rng.integers(max(t_lo, m), t_hi + 1))
        if m >= 2 and rng.random() < duplicate_prob:
            actions = list(rng.choice(len(ACTION_BANK), size=m - 1, replace=False))
            actions.insert(int(rng.integers(0, m)), actions[int(rng.integers(0, m - 1))])
        else:
            actions = list(rng.choice(len(ACTION_BANK), size=m, replace=False))
        sizes = 1 + rng.multinomial(t - m, np.full(m, 1.0 / m))
        chunks = []
        cursor = 0
        rows = []
        for action, size in zip(actions, sizes):
            chunks.append((cursor, cursor + int(size)))
            cursor += int(size)
            rows.append(prototypes[action] + noise * rng.standard_normal((int(size), feature_dim)))
        sub_texts = [ACTION_BANK[a] for a in actions]
        text = sub_texts[0]
        for sub in sub_texts[1:]:
            text += _JOINERS[int(rng.integers(0, len(_JOINERS)))] + sub
        text += "."
        samples.append(
            TrajectorySample(
                viewpoints=np.concatenate(rows, axis=0),
                instruction=Instruction.from_text(text),
                chunks=chunks,
                sub_instructions=sub_texts,
            )
        )
    return samples


def split_indices(n: int, seed: int, val_fraction: float) -> tuple[list[int], list[int]]:
    """Deterministic train/validation split by hashing (seed, index)."""
    train, val = [], []
    for i in range(n):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        (val if u < val_fraction else train).append(i)
    return train, val


# -- JSONL persistence -----------------------------------------------------------


def write_indoor_jsonl(samples: list[IndoorSample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps({"features": s.features.tolist(), "label": int(s.label)}))
            fh.write("\n")


def read_indoor_jsonl(path: str) -> list[IndoorSample]:
    """Load {features, label} records; bad lines are skipped as ``read_jsonl`` describes."""
    return read_jsonl(path, _parse_indoor, "indoor samples")


def _parse_indoor(obj) -> IndoorSample:
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    label = obj.get("label")
    if type(label) is not int:
        raise ValidationError("missing or non-integer 'label'")
    return IndoorSample(features=numeric_matrix(obj.get("features"), "features"), label=label)


def trajectory_record(s: TrajectorySample) -> dict:
    """The JSONL record of ``s`` that ``read_trajectory_jsonl`` reads back."""
    return {"instruction": s.instruction.text, "path": s.viewpoints.tolist(),
            "chunk_view": [list(c) for c in s.chunks], "sub_instructions": s.sub_instructions}


def write_trajectory_jsonl(samples: list[TrajectorySample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(trajectory_record(s)))
            fh.write("\n")


def read_trajectory_jsonl(path: str) -> list[TrajectorySample]:
    """Load {instruction, path, chunk_view?, sub_instructions?} records as trajectories.

    A record's own ``sub_instructions``, a non-empty list of non-blank
    strings, are its sub-instructions; a record without them has its
    instruction segmented.  A record without ``chunk_view`` pairs its
    sub-instructions with the even partition of its path.  A line that makes
    no valid record is skipped as ``read_jsonl`` describes.
    """
    return read_jsonl(path, _parse_trajectory, "records")


def _parse_trajectory(obj) -> TrajectorySample:
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    text = obj.get("instruction")
    if not isinstance(text, str):
        raise ValidationError("missing or non-string 'instruction'")
    viewpoints = numeric_matrix(obj.get("path"), "path")
    chunks = obj.get("chunk_view")
    if chunks is not None and not isinstance(chunks, list):
        raise ValidationError("'chunk_view' must be a list of [start, end) pairs")
    instruction = Instruction.from_text(text)
    subs = obj.get("sub_instructions")
    if subs is None:
        subs = [sub.text for sub in split_instruction(instruction)]
    elif not (isinstance(subs, list) and subs and all(isinstance(t, str) and t.strip() for t in subs)):
        raise ValidationError("'sub_instructions' must be a non-empty list of non-blank strings")
    if chunks is None:
        chunks = even_partition(len(viewpoints), len(subs))
    return TrajectorySample(viewpoints=viewpoints, instruction=instruction, chunks=chunks, sub_instructions=subs)


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

"""Hard context prompt templates and text-to-id tokenization.

Four prompt forms describe a segmented instruction: a count prompt for the
number of actions, a sequential prompt per ordinal position, an individual
prompt embedding each action description, and an overall prompt that
concatenates every individual prompt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import ParameterError, VocabularyError
from .segmenter import SubInstruction, tokenize_text

ORDINAL_WORDS = [
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
]

OVERALL_SEPARATOR = ", "


def ordinal(i: int) -> str:
    """Ordinal word for small i, digit form ("11th") beyond the table."""
    if i < 1:
        raise ParameterError(f"ordinal index must be >= 1, got {i}")
    if i <= len(ORDINAL_WORDS):
        return ORDINAL_WORDS[i - 1]
    return f"{i}th"


def count_prompt(m: int) -> str:
    if m < 1:
        raise ParameterError(f"count must be >= 1, got {m}")
    return f"this instruction contains {m} actions"


def sequential_prompt(i: int) -> str:
    return f"this is the {ordinal(i)} action"


def individual_prompt(i: int, action_text: str) -> str:
    if not action_text or not action_text.strip():
        raise ParameterError("action text must be nonempty")
    return f"{ordinal(i)}, perform the action {action_text.strip().lower()}"


@dataclass(frozen=True)
class ContextPromptSet:
    count_prompt: str
    sequential_prompts: list[str]
    individual_prompts: list[str]
    overall_prompt: str
    m: int

    def as_dict(self) -> dict:
        return {
            "count_prompt": self.count_prompt,
            "sequential_prompts": self.sequential_prompts,
            "individual_prompts": self.individual_prompts,
            "overall_prompt": self.overall_prompt,
            "m": self.m,
        }


def build_prompt_set(subs: list[SubInstruction]) -> ContextPromptSet:
    """All four prompt forms for one segmented instruction."""
    if not subs:
        raise ParameterError("need at least one sub-instruction")
    for expected, sub in enumerate(subs, start=1):
        if sub.index != expected:
            raise ParameterError(f"sub-instruction ordinals must run 1..{len(subs)}, found {sub.index} at position {expected}")
    m = len(subs)
    individual = [individual_prompt(s.index, s.text) for s in subs]
    return ContextPromptSet(
        count_prompt=count_prompt(m),
        sequential_prompts=[sequential_prompt(s.index) for s in subs],
        individual_prompts=individual,
        overall_prompt=OVERALL_SEPARATOR.join(individual),
        m=m,
    )


PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
_RESERVED = {"<pad>": PAD_ID, "<unk>": UNK_ID, "<cls>": CLS_ID, "<sep>": SEP_ID}


class Vocabulary:
    """Immutable token-to-id map with fixed reserved ids."""

    def __init__(self, token_to_id: dict[str, int]):
        if not isinstance(token_to_id, dict):
            raise ParameterError(f"expected a token -> id object, got {type(token_to_id).__name__}")
        for token, idx in token_to_id.items():
            if not isinstance(token, str) or type(idx) is not int:
                raise ParameterError(f"entry {token!r}: {idx!r} is not a string token with an integer id")
        for token, idx in _RESERVED.items():
            if token_to_id.get(token) != idx:
                raise ParameterError(f"reserved token {token!r} must map to {idx}")
        ids = sorted(token_to_id.values())
        if ids != list(range(len(ids))):
            raise ParameterError("vocabulary ids must be dense in [0, |V|)")
        self.token_to_id = dict(token_to_id)

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        tokens = set()
        for text in texts:
            tokens.update(tokenize_text(text))
        mapping = dict(_RESERVED)
        for token in sorted(tokens):
            mapping[token] = len(mapping)
        return cls(mapping)

    def to_json(self) -> str:
        return json.dumps(self.token_to_id, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "Vocabulary":
        return cls(json.loads(payload))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise VocabularyError(f"{path}: not a JSON vocabulary ({exc})") from exc
        except ParameterError as exc:
            raise VocabularyError(f"{path}: {exc}") from exc


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """[cls] + word ids + [sep], truncated to max_len and padded with [pad]."""
    if max_len < 3:
        raise ParameterError(f"max_len must be >= 3, got {max_len}")
    words = tokenize_text(text)[: max_len - 2]
    ids = [CLS_ID] + [vocab.id_of(w) for w in words] + [SEP_ID]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return ids

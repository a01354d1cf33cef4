"""Hard context prompt templates and text-to-id tokenization.

Four prompt forms describe a segmented instruction: a count prompt for the
number of actions, a sequential prompt per ordinal position, an individual
prompt embedding each action description, and an overall prompt that
concatenates every individual prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ParameterError
from .segmenter import SubInstruction, tokenize_text

ORDINAL_WORDS = [
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
]

OVERALL_SEPARATOR = ", "


def ordinal(i: int) -> str:
    """Ordinal word for small i, digit form ("11th", "21st", "112th") beyond the table."""
    if i < 1:
        raise ParameterError(f"ordinal index must be >= 1, got {i}")
    if i <= len(ORDINAL_WORDS):
        return ORDINAL_WORDS[i - 1]
    suffix = "th" if i % 100 in (11, 12, 13) else {1: "st", 2: "nd", 3: "rd"}.get(i % 10, "th")
    return f"{i}{suffix}"


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
RESERVED_TOKENS = ["<pad>", "<unk>", "<cls>", "<sep>"]  # in id order


class Vocabulary:
    """Immutable token list; a token's id is its position, and the reserved tokens come first."""

    def __init__(self, tokens: list[str]):
        if not isinstance(tokens, list):
            raise ParameterError(f"expected a list of tokens in id order, got {type(tokens).__name__}")
        for idx, token in enumerate(tokens):
            if not isinstance(token, str):
                raise ParameterError(f"token {idx} is {token!r}, not a string")
        if tokens[:len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise ParameterError(f"the vocabulary must start with the reserved tokens {RESERVED_TOKENS}")
        self.tokens = list(tokens)
        self.token_to_id = {token: idx for idx, token in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            twice = next(t for idx, t in enumerate(tokens) if self.token_to_id[t] != idx)
            raise ParameterError(f"token {twice!r} is listed twice")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        tokens = set()
        for text in texts:
            tokens.update(tokenize_text(text))
        return cls(RESERVED_TOKENS + sorted(tokens))


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """[cls] + word ids + [sep], truncated to max_len and padded with [pad]."""
    if max_len < 3:
        raise ParameterError(f"max_len must be >= 3, got {max_len}")
    words = tokenize_text(text)[: max_len - 2]
    ids = [CLS_ID] + [vocab.id_of(w) for w in words] + [SEP_ID]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return ids

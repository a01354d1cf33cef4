"""Prompt template exactness and tokenizer behavior."""

import json
import re

import numpy as np
import pytest

from navprompt.errors import ParameterError
from navprompt.prompts import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    ContextPromptSet,
    Vocabulary,
    build_prompt_set,
    count_prompt,
    individual_prompt,
    ordinal,
    sequential_prompt,
    tokenize,
)
from navprompt.segmenter import SubInstruction, split_instruction

COUNT_RE = re.compile(r"^this instruction contains \d+ actions$")
SEQ_RE = re.compile(r"^this is the [a-z0-9]+ action$")
IND_RE = re.compile(r"^[a-z0-9]+, perform the action [a-z0-9' ]+$")


class TestOrdinal:
    def test_word_table(self):
        assert ordinal(1) == "first"
        assert ordinal(2) == "second"
        assert ordinal(10) == "tenth"

    def test_digit_fallback(self):
        assert ordinal(11) == "11th"
        assert ordinal(42) == "42nd"
        # st/nd/rd by the last digit, th for 11-13 in any hundred
        assert [ordinal(i) for i in (21, 22, 23, 24, 111, 112, 113, 121)] == [
            "21st", "22nd", "23rd", "24th", "111th", "112th", "113th", "121st"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ordinal(0)


class TestTemplates:
    def test_count_template(self):
        assert count_prompt(4) == "this instruction contains 4 actions"
        # The template is deliberately not pluralized for m == 1.
        assert count_prompt(1) == "this instruction contains 1 actions"
        assert count_prompt(12) == "this instruction contains 12 actions"

    def test_sequential_template(self):
        assert sequential_prompt(1) == "this is the first action"
        assert sequential_prompt(3) == "this is the third action"
        assert sequential_prompt(11) == "this is the 11th action"
        assert sequential_prompt(21) == "this is the 21st action"

    def test_individual_template(self):
        assert individual_prompt(1, "walk out of the bathroom") == "first, perform the action walk out of the bathroom"
        assert individual_prompt(2, "turn left") == "second, perform the action turn left"

    def test_individual_rejects_empty(self):
        with pytest.raises(ParameterError):
            individual_prompt(1, "")
        with pytest.raises(ParameterError):
            individual_prompt(1, "   ")


def _subs(texts):
    return [SubInstruction(i + 1, t, t.split()) for i, t in enumerate(texts)]


class TestBuildPromptSet:
    def test_compose_two_actions(self):
        ps = build_prompt_set(_subs(["walk out of the bathroom", "turn left"]))
        assert ps.m == 2
        assert ps.count_prompt == "this instruction contains 2 actions"
        assert ps.sequential_prompts == ["this is the first action", "this is the second action"]
        # Oracle: composition of the per-template functions.
        assert ps.individual_prompts == [
            individual_prompt(1, "walk out of the bathroom"),
            individual_prompt(2, "turn left"),
        ]
        assert ps.overall_prompt == (
            "first, perform the action walk out of the bathroom, "
            "second, perform the action turn left"
        )

    def test_single_sub_overall_equals_individual(self):
        ps = build_prompt_set(_subs(["turn left"]))
        assert ps.overall_prompt == ps.individual_prompts[0]

    def test_non_contiguous_ordinals(self):
        subs = [SubInstruction(1, "a b", ["a", "b"]), SubInstruction(3, "c d", ["c", "d"])]
        with pytest.raises(ParameterError):
            build_prompt_set(subs)

    def test_empty_list(self):
        with pytest.raises(ParameterError):
            build_prompt_set([])


class TestTemplateProperties:
    def test_random_sets_satisfy_regexes_and_concat_identity(self):
        rng = np.random.default_rng(0)
        words = ["walk", "go", "turn", "left", "right", "past", "the", "rug", "door", "hall"]
        for _ in range(200):
            m = int(rng.integers(1, 13))
            texts = [" ".join(rng.choice(words, size=rng.integers(2, 6))) for _ in range(m)]
            ps = build_prompt_set(_subs(texts))
            assert COUNT_RE.match(ps.count_prompt)
            assert len(ps.sequential_prompts) == len(ps.individual_prompts) == ps.m == m
            for seq in ps.sequential_prompts:
                assert SEQ_RE.match(seq)
            for ind in ps.individual_prompts:
                assert IND_RE.match(ind)
            assert ps.overall_prompt == ", ".join(ps.individual_prompts)
            assert f" {m} " in ps.count_prompt

    def test_end_to_end_deterministic(self):
        text = "Walk out of the bathroom and turn left. Stop by the door"
        a = build_prompt_set(split_instruction(text))
        b = build_prompt_set(split_instruction(text))
        assert a == b and isinstance(a, ContextPromptSet)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.build(["turn left"])
        assert v.id_of("<pad>") == PAD_ID == 0
        assert v.id_of("<unk>") == UNK_ID == 1
        assert v.id_of("<cls>") == CLS_ID == 2
        assert v.id_of("<sep>") == SEP_ID == 3

    def test_dense_ids(self):
        v = Vocabulary.build(["walk out", "turn left"])
        assert sorted(v.token_to_id.values()) == list(range(len(v)))

    def test_json_round_trip(self):
        # the token list is what a stage-2 checkpoint stores
        v = Vocabulary.build(["walk out and turn left, then stop."])
        w = Vocabulary(json.loads(json.dumps(v.tokens)))
        assert w.token_to_id == v.token_to_id

    @pytest.mark.parametrize("tokens,match", [
        ({"<pad>": 0, "<unk>": 1, "<cls>": 2, "<sep>": 3}, "expected a list of tokens in id order, got dict"),
        ("<pad> <unk> <cls> <sep>", "expected a list of tokens in id order, got str"),
        (["<pad>", "<unk>", "<cls>", "<sep>", "go", "go"], "token 'go' is listed twice"),
        (["<pad>", "<unk>", "<cls>", "<sep>", "<pad>"], "token '<pad>' is listed twice"),
        (["<pad>", "<unk>", "<cls>"], "must start with the reserved tokens"),
        (["<unk>", "<pad>", "<cls>", "<sep>"], "must start with the reserved tokens"),
        ([], "must start with the reserved tokens"),
    ], ids=["dict", "string", "duplicate", "duplicate-reserved", "reserved-missing", "reserved-misplaced", "empty"])
    def test_malformed_token_list(self, tokens, match):
        with pytest.raises(ParameterError, match=match):
            Vocabulary(tokens)

    def test_non_string_token_is_refused(self):
        with pytest.raises(ParameterError, match="token 4 is 7, not a string"):
            Vocabulary(["<pad>", "<unk>", "<cls>", "<sep>", 7])


class TestTokenize:
    def test_basic(self):
        v = Vocabulary.build(["turn left"])
        ids = tokenize("turn left", v, max_len=6)
        assert ids[0] == CLS_ID
        assert ids[1] == v.id_of("turn")
        assert ids[2] == v.id_of("left")
        assert ids[3] == SEP_ID
        assert ids[4:] == [PAD_ID, PAD_ID]

    def test_unknown_word(self):
        v = Vocabulary.build(["turn left"])
        ids = tokenize("turn sharply", v, max_len=5)
        assert ids[2] == UNK_ID

    def test_truncation_keeps_sep_last(self):
        v = Vocabulary.build(["a b c d e f g"])
        ids = tokenize("a b c d e f g", v, max_len=5)
        assert len(ids) == 5
        assert ids[-1] == SEP_ID

    def test_max_len_floor(self):
        v = Vocabulary.build(["x"])
        with pytest.raises(ParameterError):
            tokenize("x", v, max_len=2)

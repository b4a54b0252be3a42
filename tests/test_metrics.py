"""Completion scoring metrics.

Reference values are re-derived here from scratch: a full-matrix Levenshtein
table for edit similarity, explicit ``Counter`` arithmetic for F1, and a
regex-plus-keyword scan for identifier extraction. The implementation must
agree exactly on a randomized corpus of code-like fragments.
"""

from __future__ import annotations

import keyword
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repolens.evaluation import (
    edit_similarity,
    exact_match,
    identifier_em,
    identifier_f1,
    identifier_sequence,
    novel_id_recall,
)
from repolens.prompting import render
from repolens.ranking import RankedContext
from repolens.retrieval import ExemplarSet


def _levenshtein_full(a: str, b: str) -> int:
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def _f1_counted(left: list[str], right: list[str]) -> float:
    if not left and not right:
        return 1.0
    if not left or not right:
        return 0.0
    overlap = sum((Counter(left) & Counter(right)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(left)
    recall = overlap / len(right)
    return 2 * precision * recall / (precision + recall)


def _scan_identifiers(code: str) -> list[str]:
    return [
        match.group()
        for match in re.finditer(r"[A-Za-z_]\w*", code)
        if match.group() not in keyword.kwlist
    ]


_NAMES = ["data", "frame", "result", "parse", "load", "merge", "idx", "value", "cfg", "path"]
_GLUE = [" = ", " + ", ", ", "(", ")", ".", " == ", " - ", " "]


def _fragment(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 8)):
        parts.append(rng.choice(_NAMES))
        parts.append(rng.choice(_GLUE))
    return "".join(parts).strip()


def _mutate(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        if not chars:
            break
        pos = rng.randrange(len(chars))
        action = rng.random()
        if action < 0.4:
            del chars[pos]
        elif action < 0.8:
            chars[pos] = rng.choice("abcxyz_ ()")
        else:
            chars.insert(pos, rng.choice("abcxyz_ ()"))
    return "".join(chars)


def _corpus(pairs: int = 50, seed: int = 4177) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    out = []
    for i in range(pairs):
        left = _fragment(rng)
        if i % 3 == 0:
            right = left
        elif i % 3 == 1:
            right = _mutate(left, rng)
        else:
            right = _fragment(rng)
        out.append((left, right))
    return out


def test_exact_match_hand_cases():
    assert exact_match("a = 1", "a = 1") == 1
    assert exact_match("a=1", "a = 2") == 0
    assert exact_match("a  =  1 ", "a = 1") == 1
    assert exact_match("x\t=\t1", "x = 1") == 1
    assert exact_match("pad(x)\n", "pad(x)") == 1
    assert exact_match("a\nb", "a b") == 0


def test_exact_match_agrees_with_normalizer():
    def norm(text: str) -> str:
        return re.sub(r"[ \t]+", " ", text.strip())

    for left, right in _corpus():
        assert exact_match(left, right) == int(norm(left) == norm(right))


def test_edit_similarity_hand_cases():
    assert edit_similarity("same text", "same text") == 1.0
    assert edit_similarity("abc", "abd") == pytest.approx(1 - 1 / 3, abs=1e-12)
    assert edit_similarity("", "xyz") == 0.0
    assert edit_similarity("", "") == 1.0


def test_edit_similarity_is_raw_not_normalized():
    assert exact_match("a  =  1", "a = 1") == 1
    assert edit_similarity("a  =  1", "a = 1") < 1.0


def test_edit_similarity_matches_full_table():
    for left, right in _corpus():
        longest = max(len(left), len(right))
        expected = 1.0 if longest == 0 else 1 - _levenshtein_full(left, right) / longest
        assert edit_similarity(left, right) == pytest.approx(expected, abs=1e-12)


@given(st.text(max_size=30), st.text(max_size=30))
def test_edit_similarity_symmetric_bounded(left, right):
    value = edit_similarity(left, right)
    assert 0.0 <= value <= 1.0
    assert value == edit_similarity(right, left)
    assert (value == 1.0) == (left == right)


def test_identifier_sequence_hand_cases():
    assert identifier_sequence("x = compute(y)") == ["x", "compute", "y"]
    assert identifier_sequence("for item in items:") == ["item", "items"]
    assert identifier_sequence('log("fail fast", err)') == ["log", "err"]
    assert identifier_sequence("x = 1  # tweak offset") == ["x"]
    assert identifier_sequence("df.merge(other)") == ["df", "merge", "other"]
    assert identifier_sequence("return pad(x) if flag else None") == ["pad", "x", "flag"]
    assert identifier_sequence("    return pad(x)") == ["pad", "x"]
    assert identifier_sequence("match = 1") == ["match"]
    assert identifier_sequence("") == []


def test_identifier_sequence_lexer_fallback():
    assert identifier_sequence('x = "unterminated') == ["x", "unterminated"]
    assert identifier_sequence("f(a") == ["f", "a"]


def test_identifier_em_hand_cases():
    assert identifier_em("f(a, b)", "f(a, b)") == 1
    assert identifier_em("f(a)", "g(a)") == 0
    assert identifier_em("x = compute(y)", "x = compute(z)") == 0
    assert identifier_em("f(a + 1, b)", "f(a, b)  # later") == 1
    assert identifier_em("x=compute( y )", "x = compute(y)") == 1


def test_identifier_em_order_sensitivity():
    assert identifier_em("a(b)", "b(a)") == 0
    assert identifier_em("a(b)", "b(a)", ordered=False) == 1
    assert identifier_em("a(b, b)", "b(a)", ordered=False) == 0


def test_identifier_f1_hand_cases():
    assert identifier_f1("f(a, b)", "f(a, b)") == 1.0
    assert identifier_f1("a + b", "b + c") == pytest.approx(0.5)
    assert identifier_f1("", "x") == 0.0
    assert identifier_f1("x", "") == 0.0
    assert identifier_f1("", "") == 1.0
    assert identifier_f1("1 + 2", "3 * 4") == 1.0
    assert identifier_f1("a(a, b)", "a(b, b)") == pytest.approx(2 / 3)


def test_identifier_f1_matches_counting():
    for left, right in _corpus():
        expected = _f1_counted(_scan_identifiers(left), _scan_identifiers(right))
        assert identifier_f1(left, right) == pytest.approx(expected, abs=1e-12)


def test_identifier_f1_symmetric():
    for left, right in _corpus():
        assert identifier_f1(left, right) == pytest.approx(identifier_f1(right, left), abs=1e-12)


def test_identity_implies_all_metrics_perfect():
    for left, _ in _corpus():
        assert exact_match(left, left) == 1
        assert edit_similarity(left, left) == 1.0
        assert identifier_em(left, left) == 1
        assert identifier_f1(left, left) == 1.0


def _prompt(cfg_text: str, target: str):
    return render(RankedContext(scores={}, file_topk=[], project_topk=[]), cfg_text, ExemplarSet([], (1.0, 0.0)), target)


def test_novel_recall_gives_no_credit_for_echoing_the_target():
    """The control flow section repeats ``helper`` from the target: the
    recall proxy credits it, novel recall counts only ``extra``, which no
    section shows."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import prompts
    finally:
        sys.path.pop(0)
    target = "def f(x):\n    total = helper(x)\n    return "
    prompt = _prompt("L2: total = helper(x) -> exit", target)
    truth = "helper(extra)"
    assert prompts.context_id_recall(truth, prompt.text) == 0.5
    assert novel_id_recall(truth, prompt) == 0.0
    shown = _prompt("L2: total = helper(x) -> exit\nL3: extra = 1", target)
    assert novel_id_recall(truth, shown) == 1.0


def test_novel_recall_is_none_for_a_truth_inside_the_target():
    prompt = _prompt("L2: total = helper(x) -> exit", "def f(x):\n    total = helper(x)\n    return ")
    assert novel_id_recall("helper(total)", prompt) is None
    assert novel_id_recall("()", prompt) is None

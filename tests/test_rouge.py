import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warmsum.errors import DataError
from warmsum.rouge import (corpus_rouge, lcs_length, rouge_l,
                           rouge_n)

tokens = st.lists(st.sampled_from("abcdef"), min_size=0, max_size=10)


# -- independent oracles -----------------------------------------------------


def naive_clipped_ngram(cand, ref, n):
    """Clipped matching by explicit occurrence pairing, not Counter math."""
    cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    remaining = list(ref_grams)
    overlap = 0
    for g in cand_grams:
        if g in remaining:
            remaining.remove(g)
            overlap += 1
    p = overlap / len(cand_grams) if cand_grams else 0.0
    r = overlap / len(ref_grams) if ref_grams else 0.0
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def brute_force_lcs(a, b):
    """Longest common subsequence by enumerating every subsequence of a."""
    best = 0
    for k in range(len(a), best, -1):
        for combo in itertools.combinations(a, k):
            if _is_subsequence(combo, b):
                return k
    return 0


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


def dp_lcs_length(a, b):
    """LCS length by the O(|a|*|b|) dynamic-programming table: `lcs_length`'s reference."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def min_sum_overlap(cand, ref, n):
    """Clipped n-gram overlap as the sum over grams of the smaller count: `rouge_n`'s reference."""
    cand_grams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
    ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
    return sum(min(c, ref_grams[g]) for g, c in cand_grams.items())


# -- hand-derived fixtures ----------------------------------------------------


def test_rouge1_hand_example():
    s = rouge_n("the cat sat".split(), "the cat".split(), 1)
    assert s.recall == 1.0
    assert s.precision == pytest.approx(2 / 3)
    assert s.f1 == pytest.approx(0.8)


def test_rouge2_hand_example():
    s = rouge_n("the cat sat on".split(), "the cat sat".split(), 2)
    assert s.recall == 1.0
    assert s.precision == pytest.approx(2 / 3)
    assert s.f1 == pytest.approx(0.8)


def test_rouge_identity_and_disjoint():
    toks = "a b c d".split()
    for n in (1, 2, 3, 4):
        s = rouge_n(toks, toks, n)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    s = rouge_n("a b".split(), "c d".split(), 1)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_rouge_clipping_counts_duplicates_once():
    # "a" appears twice in the candidate but once in the reference
    s = rouge_n(["a", "a"], ["a", "b"], 1)
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(0.5)


def test_lcs_hand_examples():
    assert lcs_length(list("abcd"), list("abcd")) == 4
    assert lcs_length(list("abcd"), list("acdb")) == 3
    assert lcs_length([], list("ab")) == 0
    assert lcs_length(list("ab"), []) == 0


def test_rouge_l_hand_examples():
    s = rouge_l(list("abcd"), list("acdb"))
    assert (s.precision, s.recall, s.f1) == (0.75, 0.75, 0.75)
    s = rouge_l(list("abcd"), list("abcd"))
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    s = rouge_l(list("xayz"), list("qawe"))
    assert s.precision == 0.25 and s.recall == 0.25


def test_rouge_n_validates_n():
    with pytest.raises(DataError):
        rouge_n(["a"], ["a"], 0)


# -- properties ----------------------------------------------------------------


@given(tokens, tokens)
def test_swap_duality(a, b):
    assert rouge_n(a, b, 1).precision == rouge_n(b, a, 1).recall
    assert rouge_n(a, b, 2).precision == rouge_n(b, a, 2).recall


@given(tokens, tokens)
def test_lcs_symmetric_and_bounded(a, b):
    l = lcs_length(a, b)
    assert l == lcs_length(b, a)
    assert l <= min(len(a), len(b))


@given(tokens, tokens)
def test_appending_shared_novel_token_grows_lcs_by_one(a, b):
    base = lcs_length(a, b)
    assert lcs_length(a + ["zz"], b + ["zz"]) == base + 1


@given(tokens, tokens)
def test_f1_definition_holds(a, b):
    for s in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
        if s.precision + s.recall == 0:
            assert s.f1 == 0.0
        else:
            expected = 2 * s.precision * s.recall / (s.precision + s.recall)
            assert abs(s.f1 - expected) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=6),
       st.lists(st.sampled_from("abc"), min_size=0, max_size=6))
def test_lcs_matches_brute_force(a, b):
    assert lcs_length(a, b) == brute_force_lcs(a, b)


# few distinct ids over long lists, so tokens repeat, and a list can span
# more than one 64-bit word of `lcs_length`'s bit row
repeating = st.lists(st.integers(0, 5), min_size=0, max_size=90)


@settings(deadline=None, max_examples=300)
@given(repeating, repeating)
def test_bit_parallel_lcs_and_counter_overlap_equal_the_old_integers(a, b):
    assert lcs_length(a, b) == dp_lcs_length(a, b)
    for n in (1, 2, 3):
        s = rouge_n(a, b, n)
        n_cand, n_ref = max(len(a) - n + 1, 0), max(len(b) - n + 1, 0)
        overlap = min_sum_overlap(a, b, n)
        assert (s.precision, s.recall) == (overlap / n_cand if n_cand else 0.0,
                                           overlap / n_ref if n_ref else 0.0)


def test_clipped_ngrams_match_naive_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = [str(x) for x in rng.integers(0, 8, size=rng.integers(0, 12))]
        b = [str(x) for x in rng.integers(0, 8, size=rng.integers(0, 12))]
        for n in (1, 2, 3):
            s = rouge_n(a, b, n)
            p, r, f1 = naive_clipped_ngram(a, b, n)
            assert abs(s.precision - p) < 1e-12
            assert abs(s.recall - r) < 1e-12
            assert abs(s.f1 - f1) < 1e-12


# -- corpus aggregation ----------------------------------------------------------


def test_corpus_rouge_single_pair_equals_pairwise():
    pair = ("the cat sat", "the cat")
    agg = corpus_rouge([pair])
    direct = rouge_n(pair[0].split(), pair[1].split(), 1)
    assert agg["rouge1"] == direct


def test_corpus_rouge_mean_invariance_under_duplication():
    pairs = [("a b c", "a b"), ("x y", "x z")]
    assert corpus_rouge(pairs) == corpus_rouge(pairs * 3)


def test_corpus_rouge_matches_naive_recomputation():
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(50):
        cand = " ".join(str(x) for x in rng.integers(0, 9, size=rng.integers(1, 10)))
        ref = " ".join(str(x) for x in rng.integers(0, 9, size=rng.integers(1, 10)))
        pairs.append((cand, ref))
    agg = corpus_rouge(pairs)
    for n, key in ((1, "rouge1"), (2, "rouge2")):
        stats = [naive_clipped_ngram(c.split(), r.split(), n) for c, r in pairs]
        assert agg[key].precision == pytest.approx(np.mean([s[0] for s in stats]), abs=1e-12)
        assert agg[key].recall == pytest.approx(np.mean([s[1] for s in stats]), abs=1e-12)
        assert agg[key].f1 == pytest.approx(np.mean([s[2] for s in stats]), abs=1e-12)


def test_corpus_rouge_empty_list_rejected():
    with pytest.raises(DataError):
        corpus_rouge([])


def test_corpus_rouge_keeps_case():
    agg = corpus_rouge([("The Cat", "the cat")])
    assert agg["rouge1"].f1 == 0.0
    assert corpus_rouge([("the  cat\n", "the cat")])["rougeL"].f1 == 1.0  # words, not spacing

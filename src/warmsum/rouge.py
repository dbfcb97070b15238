"""Exact ROUGE-1 / ROUGE-2 / ROUGE-L with precision, recall and F1.

ROUGE-N uses clipped n-gram counts; ROUGE-L uses the longest common
subsequence computed by O(|a|*|b|) dynamic programming. Texts are scored
on their whitespace-separated words with case kept: no lowercasing, no
stemming, no stopword removal. Degenerate inputs score zero rather than
raising.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _score(overlap: float, n_cand: int, n_ref: int) -> RougeScore:
    p = overlap / n_cand if n_cand else 0.0
    r = overlap / n_ref if n_ref else 0.0
    f1 = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return RougeScore(p, r, f1)


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: list, reference: list, n: int) -> RougeScore:
    """Clipped n-gram overlap: sum over grams of min(cand count, ref count)."""
    if n < 1:
        raise DataError(f"rouge_n needs n >= 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum(min(c, ref[g]) for g, c in cand.items())
    return _score(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: list, b: list) -> int:
    """Length of the longest common subsequence."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list, reference: list) -> RougeScore:
    lcs = lcs_length(candidate, reference)
    return _score(lcs, len(candidate), len(reference))


def pair_rouge(candidate: str, reference: str) -> dict[str, RougeScore]:
    """rouge1, rouge2 and rougeL of one pair of texts, over their words."""
    cand, ref = candidate.split(), reference.split()
    return {"rouge1": rouge_n(cand, ref, 1), "rouge2": rouge_n(cand, ref, 2),
            "rougeL": rouge_l(cand, ref)}


def corpus_rouge(pairs: list[tuple[str, str]]) -> dict[str, RougeScore]:
    """Unweighted means of per-pair p/r/f1 for rouge1, rouge2 and rougeL."""
    if not pairs:
        raise DataError("corpus_rouge needs at least one (candidate, reference) pair")
    sums = {k: [0.0, 0.0, 0.0] for k in ("rouge1", "rouge2", "rougeL")}
    for cand_text, ref_text in pairs:
        for key, score in pair_rouge(cand_text, ref_text).items():
            sums[key][0] += score.precision
            sums[key][1] += score.recall
            sums[key][2] += score.f1
    n = len(pairs)
    return {k: RougeScore(s[0] / n, s[1] / n, s[2] / n) for k, s in sums.items()}

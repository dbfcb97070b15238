"""Computations made apart from warmsum, and the checks built on them.

Every check returns None when it holds and a one-line reason when it does
not. The reference code here shares nothing with warmsum: ROUGE is a full
LCS table and Counter-clipped n-grams over whitespace words, the unigram
entropy counts words, and the greedy check takes its own argmax.
"""

from __future__ import annotations

import hashlib
import math
import unicodedata
from collections import Counter

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3  # the tokenizer's reserved ids
ROUGE_TOL = 1e-9
LOGPROB_TOL = 1e-9


# -- reference computations ---------------------------------------------------


def lcs(a: list, b: list) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y \
                else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def clipped_overlap(cand: list, ref: list, n: int) -> tuple[int, int, int]:
    """(clipped matches, candidate n-grams, reference n-grams)."""
    c = Counter(zip(*(cand[i:] for i in range(n))))
    r = Counter(zip(*(ref[i:] for i in range(n))))
    return sum((c & r).values()), sum(c.values()), sum(r.values())


def _prf(hits: int, n_cand: int, n_ref: int) -> tuple[float, float, float]:
    p = hits / n_cand if n_cand else 0.0
    r = hits / n_ref if n_ref else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def rouge(pairs: list[tuple[str, str]]) -> dict[str, tuple[float, float, float]]:
    """Mean precision, recall and F1 of ROUGE-1, -2 and -L over (candidate, reference)."""
    sums = {k: np.zeros(3) for k in ("rouge1", "rouge2", "rougeL")}
    for cand_text, ref_text in pairs:
        cand, ref = cand_text.split(), ref_text.split()
        sums["rouge1"] += _prf(*clipped_overlap(cand, ref, 1))
        sums["rouge2"] += _prf(*clipped_overlap(cand, ref, 2))
        sums["rougeL"] += _prf(lcs(cand, ref), len(cand), len(ref))
    return {k: tuple(float(x) for x in v / len(pairs)) for k, v in sums.items()}


def unigram_entropy(lines: list[str]) -> float:
    """Entropy in nats of the word frequencies of `lines`."""
    counts = np.array(list(Counter(w for line in lines for w in line.split()).values()),
                      dtype=np.float64)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def nfc(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).split())


# -- checks -------------------------------------------------------------------


def check_rouge(pairs, reported: dict[str, tuple[float, float, float]]) -> str | None:
    """`reported` maps rouge1/rouge2/rougeL to (precision, recall, f1)."""
    ours = rouge(pairs)
    for key, mine in ours.items():
        theirs = reported[key]
        if any(abs(a - b) > ROUGE_TOL for a, b in zip(mine, theirs)):
            return f"{key} reported {theirs}, recomputed {mine}"
    return None


def check_ordering(rouge_l: dict[str, float]) -> str | None:
    order = ("WARM2WARM", "WARM2RND", "RND2RND")
    vals = [rouge_l[m] for m in order]
    if not vals[0] >= vals[1] >= vals[2]:
        return "expected WARM2WARM >= WARM2RND >= RND2RND, got " + \
            ", ".join(f"{m} {v:.2f}" for m, v in zip(order, vals))
    return None


def check_margin(loss: float, baseline: float, margin: float) -> str | None:
    if not loss <= baseline - margin:
        return (f"held-out MLM loss {loss:.3f} nats is not {margin} below "
                f"the unigram entropy {baseline:.3f}")
    return None


def check_sha256(path, expected: str) -> str | None:
    got = sha256_file(path)
    if got != expected:
        return f"{path.name} hashes to {got[:12]}, recorded {expected[:12]}"
    return None


def greedy_token_mismatch(logits: np.ndarray, ids) -> str | None:
    """logits[t] are the teacher-forced logits after ids[:t+1]; ids starts with BOS.

    Each generated token must be the argmax with PAD and BOS banned, ties to
    the lowest id. Generation stops at EOS.
    """
    for t in range(len(ids) - 1):
        row = np.array(logits[t], dtype=np.float64)
        row[[PAD, BOS]] = -np.inf
        best = int(np.flatnonzero(row == row.max())[0])
        if ids[t + 1] != best:
            return f"step {t + 1}: generated {ids[t + 1]}, argmax is {best}"
        if ids[t + 1] == EOS and t + 2 != len(ids):
            return f"tokens follow EOS at step {t + 1}"
    return None


def check_same(label: str, first, second) -> str | None:
    return None if first == second else f"{label} differ"


def check_logprob(beam_logprob: float, teacher_forced: float) -> str | None:
    if not math.isfinite(beam_logprob) or abs(beam_logprob - teacher_forced) > LOGPROB_TOL:
        return f"beam log-prob {beam_logprob!r}, teacher-forced {teacher_forced!r}"
    return None


def check_round_trip(text: str, ids: list[int], decoded: str) -> str | None:
    if UNK in ids:
        return f"UNK in the encoding of {text[:30]!r}"
    if decoded != nfc(text):
        return f"round trip changed {text[:30]!r}"
    return None


def check_window(n_ids: int, window: int, what: str) -> str | None:
    if n_ids + 2 > window:
        return f"{what}: {n_ids} tokens + BOS + EOS exceed the window of {window}"
    return None


def check_losses(losses: list[float], start_dev: float, final_dev: float) -> str | None:
    if not all(math.isfinite(x) for x in losses):
        return "non-finite fine-tuning loss"
    if not final_dev < start_dev:
        return f"final dev loss {final_dev:.4f} is not below the starting {start_dev:.4f}"
    return None


def first_failure(results) -> str | None:
    return next((r for r in results if r is not None), None)

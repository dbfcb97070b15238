"""Seeded synthetic summarization benchmark.

Bodies are word sequences drawn from a bigram chain over a small syllable
inventory (each word has one preferred successor, followed with probability
`chain_prob`), so masked-token prediction has real structure to learn. The
abstract is a deterministic function of the body: its first `lead_k` words,
each passed through a fixed word-to-word remapping. A tiny model can learn
the task in minutes, which is what the warm-start comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CorpusExample
from .errors import DataError

_CONSONANTS = ["b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v"]
_VOWELS = ["a", "e", "i", "o", "u"]


def word_inventory(n_words: int) -> list[str]:
    """First the 60 consonant-vowel syllables, then consonant-vowel-consonant."""
    words = [c + v for c in _CONSONANTS for v in _VOWELS]
    words += [c + v + t for c in _CONSONANTS for v in _VOWELS for t in _CONSONANTS]
    if n_words > len(words):
        raise DataError(f"word inventory supports at most {len(words)} words, "
                        f"asked for {n_words}")
    return words[:n_words]


@dataclass(frozen=True)
class SyntheticSettings:
    n_pairs: int = 5000
    seed: int = 7
    n_words: int = 60
    body_min: int = 12
    body_max: int = 24
    lead_k: int = 8
    chain_prob: float = 0.75
    remap: bool = True  # False makes the abstract a verbatim lead-k copy

    def __post_init__(self):
        if self.body_min < self.lead_k or self.body_max < self.body_min:
            raise DataError(f"need lead_k <= body_min <= body_max, got "
                            f"{self.lead_k}/{self.body_min}/{self.body_max}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.n_words < 1:
            raise DataError(f"n_words must be at least 1, got {self.n_words}")
        word_inventory(self.n_words)  # refuses more words than the inventory holds
        if not 0.0 <= self.chain_prob <= 1.0:
            raise DataError(f"chain_prob must be between 0 and 1, got {self.chain_prob}")


def generate_corpus(settings: SyntheticSettings) -> list[CorpusExample]:
    s = settings
    words = word_inventory(s.n_words)
    rng = np.random.Generator(np.random.PCG64(s.seed))
    successor = rng.permutation(s.n_words)
    mapping = rng.permutation(s.n_words) if s.remap else np.arange(s.n_words)

    examples = []
    for i in range(s.n_pairs):
        length = int(rng.integers(s.body_min, s.body_max + 1))
        idx = [int(rng.integers(0, s.n_words))]
        for _ in range(length - 1):
            if rng.random() < s.chain_prob:
                idx.append(int(successor[idx[-1]]))
            else:
                idx.append(int(rng.integers(0, s.n_words)))
        body = " ".join(words[j] for j in idx)
        abstract = " ".join(words[int(mapping[j])] for j in idx[:s.lead_k])
        examples.append(CorpusExample(f"syn-{i:05d}", body, abstract))
    return examples

"""Subword tokenizer: frequency BPE over whitespace-separated words.

Each word is one unit, with a word-end marker symbol appended so decoding
can restore the spaces. Vietnamese is written as space-separated syllables,
so every syllable is a unit.

Vocabulary ids 0..4 are reserved for PAD, UNK, BOS, EOS and MASK, in that
order. Training is deterministic: the most frequent adjacent pair merges
first, ties broken by the lexicographically smallest pair, stopping at the
target size or when no pair occurs at least twice.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DataError
from .fileio import read_lines, write_atomic

PAD, UNK, BOS, EOS, MASK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ["<pad>", "<unk>", "<s>", "</s>", "<mask>"]
NUM_SPECIALS = len(SPECIAL_TOKENS)

WORD_END = "</w>"  # marks the end of each word


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse runs of whitespace to single spaces."""
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass
class TokenSequence:
    ids: list[int]


@dataclass
class Vocabulary:
    """Tokens (line number = id) and merges in training order; treat as immutable.

    `encode` fills `_word_ids`, the ids of each word it has seen, so that a
    word is merged once per vocabulary.
    """

    id_to_token: list[str]
    merges: list[tuple[str, str]]
    token_to_id: dict[str, int] = field(init=False, repr=False)
    _word_ids: dict[str, list[int]] = field(init=False, repr=False, compare=False,
                                            default_factory=dict)

    def __post_init__(self):
        self.token_to_id = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in self.token_to_id:
                raise DataError(f"duplicate vocabulary token {tok!r}")
            self.token_to_id[tok] = i
        if self.id_to_token[:NUM_SPECIALS] != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with the 5 special tokens")
        for a, b in self.merges:
            if not {a, b, a + b} <= self.token_to_id.keys():
                raise DataError(f"merge {a!r} {b!r} joins or makes a string that is not a token")

    @property
    def size(self) -> int:
        return len(self.id_to_token)


def _symbols(word: str) -> list[str]:
    """The symbol sequence that merges operate on: characters, then the word end."""
    return list(word) + [WORD_END]


def _pretokenize(text: str) -> list[list[str]]:
    """Split normalized text into the symbol sequences of its words."""
    return [_symbols(w) for w in normalize_text(text).split()]


def train_bpe(corpus: Iterable[str], target_vocab_size: int) -> Vocabulary:
    """Learn a BPE vocabulary of at most `target_vocab_size` entries."""
    unit_counts: Counter[tuple[str, ...]] = Counter()
    for line in corpus:
        for unit in _pretokenize(line):
            unit_counts[tuple(unit)] += 1
    if not unit_counts:
        raise DataError("cannot train a vocabulary on an empty corpus")

    alphabet = sorted({sym for unit in unit_counts for sym in unit})
    tokens = list(SPECIAL_TOKENS) + alphabet
    if target_vocab_size < len(tokens):
        raise DataError(
            f"target_vocab_size {target_vocab_size} is below the "
            f"{len(alphabet)} base symbols + {NUM_SPECIALS} specials"
        )

    units = {unit: [count, list(unit)] for unit, count in unit_counts.items()}
    merges: list[tuple[str, str]] = []
    seen = set(tokens)
    while len(tokens) < target_vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for count, syms in units.values():
            for i in range(len(syms) - 1):
                pair_counts[(syms[i], syms[i + 1])] += count
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        pair = best[0]
        merges.append(pair)
        merged = pair[0] + pair[1]
        for entry in units.values():
            entry[1] = _apply_merge(entry[1], pair, merged)
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)
    return Vocabulary(tokens, merges)


def _apply_merge(syms: list[str], pair: tuple[str, str], merged: str) -> list[str]:
    if pair[0] not in syms:
        return syms
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i < n - 1 and syms[i] == pair[0] and syms[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def encode(text: str, vocab: Vocabulary) -> TokenSequence:
    """Greedy merge application in training order; unknown symbols become UNK."""
    ids: list[int] = []
    cache = vocab._word_ids
    for word in normalize_text(text).split():
        word_ids = cache.get(word)
        if word_ids is None:
            syms = _symbols(word)
            for pair in vocab.merges:
                syms = _apply_merge(syms, pair, pair[0] + pair[1])
            word_ids = cache[word] = [vocab.token_to_id.get(s, UNK) for s in syms]
        ids.extend(word_ids)
    return TokenSequence(ids)


def decode(ids: list[int], vocab: Vocabulary) -> str:
    """Inverse of encode modulo UNK; strips PAD/BOS/EOS."""
    pieces = []
    for i in ids:
        if not 0 <= i < vocab.size:
            raise DataError(f"token id {i} out of range for vocabulary of size {vocab.size}")
        if i in (PAD, BOS, EOS):
            continue
        pieces.append(vocab.id_to_token[i])
    return "".join(pieces).replace(WORD_END, " ").rstrip()


# ---------------------------------------------------------------------------
# vocabulary file: one token per line (line number = id), a `#MERGES` section
# with one pair per line, then a `#PRETOKENIZE whitespace` line, the only mode.


def save_vocab(vocab: Vocabulary, path) -> None:
    lines = list(vocab.id_to_token)
    lines.append("#MERGES")
    lines.extend(f"{a} {b}" for a, b in vocab.merges)
    lines.append("#PRETOKENIZE whitespace")
    write_atomic(path, "\n".join(lines) + "\n")


def load_vocab(path) -> Vocabulary:
    """Read the layout save_vocab writes: the mode line is the last line and the
    merges follow the last `#MERGES` line before it, so a token or a merge that
    starts with a marker reads as one."""
    raw = read_lines(path)
    if not raw or not raw[-1].startswith("#PRETOKENIZE"):
        raise DataError(f"{path}: missing #PRETOKENIZE line at the end")
    mode = raw[-1][len("#PRETOKENIZE"):].strip()
    if mode != "whitespace":
        raise DataError(f"{path}: unknown pretokenize mode {mode!r}")
    try:  # a merge line holds a space, so no merge reads as the section marker
        merge_at = len(raw) - 2 - raw[-2::-1].index("#MERGES")
    except ValueError:
        raise DataError(f"{path}: missing #MERGES section") from None
    merges = []
    for line in raw[merge_at + 1:-1]:
        parts = line.split(" ")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed merge line {line!r}")
        merges.append((parts[0], parts[1]))
    try:
        return Vocabulary(raw[:merge_at], merges)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None

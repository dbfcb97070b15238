"""Subword tokenizer: frequency BPE over pre-tokenized units.

Two pretokenization modes:
  whitespace  'words' are whitespace-separated; a word-end marker symbol is
              appended to each word so decoding can restore spaces
  character   the whole line is one unit; spaces become a visible marker
              symbol so token strings never contain whitespace

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
from .fileio import write_atomic

PAD, UNK, BOS, EOS, MASK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ["<pad>", "<unk>", "<s>", "</s>", "<mask>"]
NUM_SPECIALS = len(SPECIAL_TOKENS)

WORD_END = "</w>"   # whitespace mode: marks the end of each word
SPACE_MARK = "▁"  # character mode: stands in for a space (reserved)

MODES = ("whitespace", "character")


def normalize_text(text: str, mode: str = "whitespace") -> str:
    """NFC-normalize; whitespace mode also collapses runs of whitespace."""
    text = unicodedata.normalize("NFC", text)
    if mode == "whitespace":
        return " ".join(text.split())
    return "".join(" " if ch.isspace() else ch for ch in text)


@dataclass
class TokenSequence:
    ids: list[int]


@dataclass
class Vocabulary:
    id_to_token: list[str]
    merges: list[tuple[str, str]]
    pretokenize_mode: str = "whitespace"
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.pretokenize_mode not in MODES:
            raise DataError(f"unknown pretokenize mode {self.pretokenize_mode!r}")
        self.token_to_id = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in self.token_to_id:
                raise DataError(f"duplicate vocabulary token {tok!r}")
            self.token_to_id[tok] = i
        if self.id_to_token[:NUM_SPECIALS] != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with the 5 special tokens")

    @property
    def size(self) -> int:
        return len(self.id_to_token)


def _pretokenize(text: str, mode: str) -> list[list[str]]:
    """Split normalized text into symbol sequences that merges operate on."""
    text = normalize_text(text, mode)
    if mode == "whitespace":
        return [list(w) + [WORD_END] for w in text.split()]
    if not text:
        return []
    return [[SPACE_MARK if ch == " " else ch for ch in text]]


def train_bpe(corpus: Iterable[str], target_vocab_size: int,
              pretokenize_mode: str = "whitespace") -> Vocabulary:
    """Learn a BPE vocabulary of at most `target_vocab_size` entries."""
    if pretokenize_mode not in MODES:
        raise DataError(f"unknown pretokenize mode {pretokenize_mode!r}")

    unit_counts: Counter[tuple[str, ...]] = Counter()
    for line in corpus:
        for unit in _pretokenize(line, pretokenize_mode):
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
    return Vocabulary(tokens, merges, pretokenize_mode)


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
    lookup = vocab.token_to_id
    for unit in _pretokenize(text, vocab.pretokenize_mode):
        syms = unit
        for pair in vocab.merges:
            syms = _apply_merge(syms, pair, pair[0] + pair[1])
        ids.extend(lookup.get(s, UNK) for s in syms)
    return TokenSequence(ids)


def decode(seq: TokenSequence | list[int], vocab: Vocabulary) -> str:
    """Inverse of encode modulo UNK; strips PAD/BOS/EOS."""
    ids = list(seq.ids if isinstance(seq, TokenSequence) else seq)
    pieces = []
    for i in ids:
        if not 0 <= i < vocab.size:
            raise DataError(f"token id {i} out of range for vocabulary of size {vocab.size}")
        if i in (PAD, BOS, EOS):
            continue
        pieces.append(vocab.id_to_token[i])
    text = "".join(pieces)
    if vocab.pretokenize_mode == "whitespace":
        return text.replace(WORD_END, " ").rstrip()
    return text.replace(SPACE_MARK, " ")


# ---------------------------------------------------------------------------
# vocabulary file: one token per line (line number = id), a `#MERGES` section
# with one pair per line, then a `#PRETOKENIZE <mode>` line.


def save_vocab(vocab: Vocabulary, path) -> None:
    lines = list(vocab.id_to_token)
    lines.append("#MERGES")
    lines.extend(f"{a} {b}" for a, b in vocab.merges)
    lines.append(f"#PRETOKENIZE {vocab.pretokenize_mode}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_vocab(path) -> Vocabulary:
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8 ({e})") from None
    if raw and raw[-1] == "":
        raw.pop()
    try:
        merge_at = raw.index("#MERGES")
    except ValueError:
        raise DataError(f"{path}: missing #MERGES section") from None
    tokens = raw[:merge_at]
    mode = "whitespace"
    merges = []
    for line in raw[merge_at + 1:]:
        if line.startswith("#PRETOKENIZE"):
            mode = line[len("#PRETOKENIZE"):].strip()
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed merge line {line!r}")
        merges.append((parts[0], parts[1]))
    try:
        return Vocabulary(tokens, merges, mode)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None

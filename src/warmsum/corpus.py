"""Corpus ingestion (JSONL of id/body/abstract), splitting, and statistics.

Splits use a self-contained xorshift64* PRNG (documented below) so the same
seed produces the same partition on any platform or implementation:

    state   = splitmix64(seed)        # avoids the all-zero state
    next()  = x ^= x >> 12; x ^= x << 25; x ^= x >> 27   (64-bit wraparound)
              return (x * 0x2545F4914F6CDD1D) mod 2^64
    shuffle = Fisher-Yates from the top, j = next() mod (i + 1)
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass

from .errors import DataError
from .fileio import read_lines, write_atomic

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class CorpusExample:
    id: str
    body: str
    abstract: str


@dataclass(frozen=True)
class CorpusStats:
    n_train: int
    n_dev: int
    n_test: int
    avg_body_words: float
    avg_abstract_words: float


class XorShift64Star:
    """xorshift64* with a splitmix64-seeded state; deterministic everywhere."""

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        self.state = (z ^ (z >> 31)) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def _norm(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def load_jsonl(path) -> list[CorpusExample]:
    """Load one JSON object per line with keys id, body, abstract."""
    examples: list[CorpusExample] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        for key in ("id", "body", "abstract"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: missing key {key!r}")
        for key in ("body", "abstract"):
            if not isinstance(obj[key], str):
                raise DataError(f"{path}:{lineno}: {key} must be a string, got {obj[key]!r}")
        ex = CorpusExample(str(obj["id"]), _norm(obj["body"]), _norm(obj["abstract"]))
        if not ex.body.strip() or not ex.abstract.strip():
            raise DataError(f"{path}:{lineno}: empty body or abstract after normalization")
        if ex.id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ex.id!r}")
        seen.add(ex.id)
        examples.append(ex)
    return examples


def save_jsonl(examples: list[CorpusExample], path) -> None:
    write_atomic(path, "".join(
        json.dumps({"id": ex.id, "body": ex.body, "abstract": ex.abstract},
                   ensure_ascii=False) + "\n" for ex in examples))


def check_ratios(ratios) -> None:
    """Train/dev/test ratios are three non-negative numbers that sum to 1."""
    numbers = all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in ratios)
    # written so that NaN fails both comparisons
    if len(ratios) != 3 or not numbers or not all(r >= 0 for r in ratios) \
            or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise DataError(f"split ratios must be three non-negative numbers that sum to 1, "
                        f"got {ratios!r}")


def split(examples: list[CorpusExample], ratios: tuple[float, float, float],
          seed: int) -> dict[str, list[CorpusExample]]:
    """Deterministic shuffled partition into train/dev/test by `ratios`."""
    check_ratios(ratios)
    shuffled = list(examples)
    XorShift64Star(seed).shuffle(shuffled)
    cut1, cut2 = split_cuts(len(shuffled), ratios) if shuffled else (0, 0)
    return {"train": shuffled[:cut1], "dev": shuffled[cut1:cut2], "test": shuffled[cut2:]}


def split_cuts(n: int, ratios: tuple[float, float, float]) -> tuple[int, int]:
    """Where `split` cuts n shuffled examples: train [:cut1], dev [cut1:cut2] and
    test [cut2:]. Refuses cuts that leave a part with a positive ratio empty."""
    cut1 = round(n * ratios[0])
    cut2 = round(n * (ratios[0] + ratios[1]))
    sizes = (cut1, cut2 - cut1, n - cut2)
    for name, ratio, size in zip(("train", "dev", "test"), ratios, sizes):
        if ratio > 0 and size < 1:
            raise DataError(f"splitting {n} examples by ratios {list(ratios)} leaves the "
                            f"{name} set empty")
    return cut1, cut2


def word_count(text: str) -> int:
    return len(text.split())


def compute_stats(splits: dict[str, list[CorpusExample]]) -> CorpusStats:
    """Averages are over all examples of all splits combined."""
    all_examples = [ex for part in splits.values() for ex in part]
    n = len(all_examples)
    avg_body = sum(word_count(ex.body) for ex in all_examples) / n if n else 0.0
    avg_abs = sum(word_count(ex.abstract) for ex in all_examples) / n if n else 0.0
    return CorpusStats(
        n_train=len(splits.get("train", [])),
        n_dev=len(splits.get("dev", [])),
        n_test=len(splits.get("test", [])),
        avg_body_words=avg_body,
        avg_abstract_words=avg_abs,
    )


def render_stats_table(stats: CorpusStats, dataset_name: str) -> str:
    """Aligned plain-text statistics report; averages shown rounded."""
    rows = [
        ("Size (train / dev / test)", f"{stats.n_train} / {stats.n_dev} / {stats.n_test}"),
        ("#avg of words in body", f"{round(stats.avg_body_words)}"),
        ("#avg of words in abstract", f"{round(stats.avg_abstract_words)}"),
    ]
    label_w = max(len(r[0]) for r in rows)
    value_w = max(len(dataset_name), max(len(r[1]) for r in rows))
    lines = [f"{'':<{label_w}}  {dataset_name:>{value_w}}"]
    lines.extend(f"{label:<{label_w}}  {value:>{value_w}}" for label, value in rows)
    return "\n".join(lines) + "\n"


def stats_csv(stats: CorpusStats, dataset_name: str) -> str:
    header = "dataset,n_train,n_dev,n_test,avg_body_words,avg_abstract_words"
    row = (f"{dataset_name},{stats.n_train},{stats.n_dev},{stats.n_test},"
           f"{stats.avg_body_words:.6f},{stats.avg_abstract_words:.6f}")
    return header + "\n" + row + "\n"

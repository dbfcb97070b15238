"""Autoregressive generation: one batched beam search with length penalty.

`search` decodes a chunk of sources together. Each source keeps its own
beam, with its rows in the lexicographic order of their ids: every step
ranks its (row, token) candidates by cumulative log-probability, ties going
to the smallest ids, and keeps the best beam_size. Hypotheses are scored by
cumulative log-probability divided by the length penalty
((5 + len) / 6) ** alpha, where len counts tokens generated after BOS. A
one-wide beam finishes one hypothesis per source, so width 1 is greedy
decoding whatever alpha is. PAD and BOS can never be generated; a
hypothesis finishes on EOS or at max_len, and its row leaves the batch. The
search feeds the decoder one new token per row and steps through a
`model.DecoderCache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import DecoderCache, EncoderDecoderModel, pad_batch
from .tokenizer import BOS, EOS, PAD

BANNED_GENERATION_IDS = (PAD, BOS)
SEARCH_CHUNK = 32  # sources decoded together by search


@dataclass
class BeamHypothesis:
    ids: tuple[int, ...]  # BOS-prefixed
    logprob: float

    def generated_len(self) -> int:
        return len(self.ids) - 1


def length_penalty(gen_len: int, alpha: float) -> float:
    return ((5.0 + gen_len) / 6.0) ** alpha


def adjusted_score(hyp: BeamHypothesis, alpha: float) -> float:
    return hyp.logprob / length_penalty(hyp.generated_len(), alpha)


def _check_max_len(model: EncoderDecoderModel, max_len: int) -> None:
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    if max_len + 1 > model.config.max_positions:
        raise DataError(f"max_len {max_len} exceeds model positions "
                        f"{model.config.max_positions} (minus BOS)")


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def search(model: EncoderDecoderModel, srcs: list[list[int]], beam_size: int,
           max_len: int, alpha: float = 1.0) -> list[BeamHypothesis]:
    """Each source's best finished hypothesis, SEARCH_CHUNK sources at a time.

    Every step, each source keeps its beam_size best (row, token) candidates,
    ranked by raw log-probability with ties to the lexicographically smallest
    ids. A source's rows are kept in the order of their ids, so the candidates
    come in that order too and one stable sort ranks them. The length penalty
    picks among a source's finished hypotheses.
    """
    if beam_size < 1:
        raise DataError(f"beam_size must be >= 1, got {beam_size}")
    _check_max_len(model, max_len)
    model.eval()
    hyps = []
    for start in range(0, len(srcs), SEARCH_CHUNK):
        hyps.extend(_search_chunk(model, srcs[start:start + SEARCH_CHUNK], beam_size,
                                  max_len, alpha))
    return hyps


def _search_chunk(model: EncoderDecoderModel, srcs: list[list[int]], beam_size: int,
                  max_len: int, alpha: float) -> list[BeamHypothesis]:
    src = pad_batch(srcs)
    src_real = src != PAD
    memory = model.encode(src)

    cache = DecoderCache()
    source = np.arange(len(srcs))  # the source of each active row
    ids = np.full((len(srcs), 1), BOS, dtype=np.int64)  # active hypotheses, BOS-prefixed
    logprob = np.zeros(len(srcs))
    completed: list[list[BeamHypothesis]] = [[] for _ in srcs]
    for step in range(1, max_len + 1):
        logits = model.decode_logits(ids[:, -1:], memory, src_real, cache=cache)
        logp = _log_softmax(logits.data[:, -1])
        logp[:, list(BANNED_GENERATION_IDS)] = -np.inf
        scores = logprob[:, None] + logp
        # a candidate below its row's beam_size-th best score cannot make its
        # source's beam; partitioning keeps the ties at that score
        nth = max(scores.shape[1] - beam_size, 0)
        floor = np.partition(scores, nth, axis=1)[:, nth, None]
        row, token = np.nonzero((scores >= floor) & (scores != -np.inf))  # in prefix order
        cand = scores[row, token]
        of_source = source[row]
        order = np.lexsort((-cand, of_source))  # stable: ties stay in prefix order
        ranked = of_source[order]
        order = np.sort(order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < beam_size])
        row, token, cand = row[order], token[order], cand[order]

        finished = (token == EOS) | (step == max_len)
        for r, t, lp in zip(row[finished], token[finished], cand[finished]):
            completed[source[r]].append(BeamHypothesis((*ids[r].tolist(), int(t)), float(lp)))
        keep = ~finished
        if not keep.any():
            break
        row = row[keep]
        if not np.array_equal(row, np.arange(len(ids))):
            cache.reorder(row)
        source = source[row]
        ids = np.concatenate([ids[row], token[keep, None]], axis=1)
        logprob = cand[keep]
    return [min(c, key=lambda h: (-adjusted_score(h, alpha), h.ids)) for c in completed]


def greedy_decode_batch(model: EncoderDecoderModel, srcs: list[list[int]],
                        max_len: int) -> list[np.ndarray]:
    """Argmax decoding, the one-wide search; ties pick the lowest token id."""
    return [np.asarray(h.ids, dtype=np.int64) for h in search(model, srcs, 1, max_len, 0.0)]


def beam_search(model: EncoderDecoderModel, src: list[int], beam_size: int,
                max_len: int, length_penalty_alpha: float = 1.0) -> np.ndarray:
    """Deterministic beam search; returns the best finished hypothesis' ids."""
    hyp = beam_search_hypothesis(model, src, beam_size, max_len, length_penalty_alpha)
    return np.asarray(hyp.ids, dtype=np.int64)


def beam_search_hypothesis(model: EncoderDecoderModel, src: list[int], beam_size: int,
                           max_len: int, length_penalty_alpha: float = 1.0) -> BeamHypothesis:
    """The search over one source."""
    return search(model, [src], beam_size, max_len, length_penalty_alpha)[0]


def sequence_logprob(model: EncoderDecoderModel, src: list[int], seq: list[int]) -> float:
    """Teacher-forced log-probability of seq[1:] given its BOS prefix."""
    if len(seq) < 2:
        raise DataError("sequence must contain BOS plus at least one token")
    model.eval()
    src_arr = np.asarray([src], dtype=np.int64)
    src_real = src_arr != PAD
    memory = model.encode(src_arr)
    prefix = np.asarray([seq[:-1]], dtype=np.int64)
    logits = model.decode_logits(prefix, memory, src_real).data[0]
    logp = _log_softmax(logits)
    return float(sum(logp[t, seq[t + 1]] for t in range(len(seq) - 1)))

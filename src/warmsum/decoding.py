"""Autoregressive generation: greedy and beam search with length penalty.

Hypotheses are scored by cumulative log-probability divided by the length
penalty ((5 + len) / 6) ** alpha, where len counts tokens generated after
BOS. During search, same-length candidates are ranked by raw log-probability
with ties broken by lexicographically smallest token ids, so beam_size 1
with alpha 0 reproduces greedy decoding exactly. PAD and BOS can never be
generated; a hypothesis finishes on EOS or at max_len. Both searches feed the
decoder one new token per row and step through a `model.DecoderCache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError
from .model import DecoderCache, EncoderDecoderModel, pad_batch
from .tokenizer import BOS, EOS, PAD

BANNED_GENERATION_IDS = (PAD, BOS)
GREEDY_CHUNK = 32  # sources decoded together by greedy_decode_batch


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


def _step_logits(model: EncoderDecoderModel, tokens: np.ndarray, memory: T.Tensor,
                 src_real: np.ndarray, cache: DecoderCache) -> np.ndarray:
    """Logits [B, V] after feeding each row's newest token through the cache."""
    return model.decode_logits(tokens[:, None], memory, src_real, cache=cache).data[:, -1, :]


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_decode_batch(model: EncoderDecoderModel, srcs: list[list[int]],
                        max_len: int) -> list[np.ndarray]:
    """Argmax decoding, GREEDY_CHUNK sources at a time; ties pick the lowest token id."""
    _check_max_len(model, max_len)
    model.eval()
    outs = []
    for start in range(0, len(srcs), GREEDY_CHUNK):
        outs.extend(_greedy_chunk(model, srcs[start:start + GREEDY_CHUNK], max_len))
    return outs


def _greedy_chunk(model: EncoderDecoderModel, srcs: list[list[int]],
                  max_len: int) -> list[np.ndarray]:
    src = pad_batch(srcs)
    src_real = src != PAD
    memory = model.encode(src)

    b = len(srcs)
    cache = DecoderCache()
    steps = [np.full(b, BOS, dtype=np.int64)]
    done = np.zeros(b, dtype=bool)
    for _ in range(max_len):
        last = _step_logits(model, steps[-1], memory, src_real, cache)
        last[:, list(BANNED_GENERATION_IDS)] = -np.inf
        nxt = np.argmax(last, axis=-1)
        nxt[done] = PAD
        steps.append(nxt)
        done |= nxt == EOS
        if done.all():
            break
    return [row[row != PAD] for row in np.stack(steps, axis=1)]


def beam_search(model: EncoderDecoderModel, src: list[int], beam_size: int,
                max_len: int, length_penalty_alpha: float = 1.0) -> np.ndarray:
    """Deterministic beam search; returns the best finished hypothesis' ids."""
    hyp = beam_search_hypothesis(model, src, beam_size, max_len, length_penalty_alpha)
    return np.asarray(hyp.ids, dtype=np.int64)


def beam_search_hypothesis(model: EncoderDecoderModel, src: list[int], beam_size: int,
                           max_len: int, length_penalty_alpha: float = 1.0) -> BeamHypothesis:
    """Keep the beam_size best (beam, token) candidates per step, one decoder cache for all.

    Candidates are ranked by raw log-probability, ties to the lexicographically
    smallest ids. Every active row has the same length, so that is the rank of
    the parent's ids, then the token.
    """
    if beam_size < 1:
        raise DataError(f"beam_size must be >= 1, got {beam_size}")
    _check_max_len(model, max_len)
    model.eval()
    src_arr = np.asarray([src], dtype=np.int64)
    src_real = src_arr != PAD
    memory = model.encode(src_arr)

    cache = DecoderCache()
    ids = np.full((1, 1), BOS, dtype=np.int64)  # active hypotheses, BOS-prefixed
    logprob = np.zeros(1)
    completed: list[BeamHypothesis] = []
    for step in range(1, max_len + 1):
        logp = _log_softmax(_step_logits(model, ids[:, -1], memory, src_real, cache))
        logp[:, list(BANNED_GENERATION_IDS)] = -np.inf
        scores = logprob[:, None] + logp
        parent_rank = np.empty(len(ids), dtype=np.int64)
        parent_rank[np.lexsort(ids.T[::-1])] = np.arange(len(ids))
        parent, token = np.nonzero(scores != -np.inf)
        cand = scores[parent, token]
        order = np.lexsort((token, parent_rank[parent], -cand))[:beam_size]
        parent, token, cand = parent[order], token[order], cand[order]

        finished = (token == EOS) | (step == max_len)
        for p, t, lp in zip(parent[finished], token[finished], cand[finished]):
            completed.append(BeamHypothesis((*ids[p].tolist(), int(t)), float(lp)))
        keep = ~finished
        if not keep.any():
            break
        cache.reorder(parent[keep])
        ids = np.concatenate([ids[parent[keep]], token[keep, None]], axis=1)
        logprob = cand[keep]
    completed.sort(key=lambda h: (-adjusted_score(h, length_penalty_alpha), h.ids))
    return completed[0]


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

"""Autoregressive generation: greedy and beam search with length penalty.

Hypotheses are scored by cumulative log-probability divided by the length
penalty ((5 + len) / 6) ** alpha, where len counts tokens generated after
BOS. During search, same-length candidates are ranked by raw log-probability
with ties broken by lexicographically smallest token ids, so beam_size 1
with alpha 0 reproduces greedy decoding exactly. PAD and BOS can never be
generated; a hypothesis finishes on EOS or at max_len.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError
from .model import EncoderDecoderModel, pad_mask_from_ids
from .tokenizer import BOS, EOS, PAD

BANNED_GENERATION_IDS = (PAD, BOS)
GREEDY_CHUNK = 32  # sources decoded together by greedy_decode_batch


@dataclass
class BeamHypothesis:
    ids: tuple[int, ...]  # BOS-prefixed
    logprob: float
    finished: bool

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


def _last_logits(model: EncoderDecoderModel, prefixes: np.ndarray,
                 memory: T.Tensor, src_real: np.ndarray) -> np.ndarray:
    logits = model.decode_logits(prefixes, memory, src_real)
    return logits.data[:, -1, :]


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
    src = np.full((len(srcs), max(len(s) for s in srcs)), PAD, dtype=np.int64)
    for i, s in enumerate(srcs):
        src[i, :len(s)] = s
    src_real = pad_mask_from_ids(src)
    memory = model.encode(src)

    b = len(srcs)
    prefixes = np.full((b, 1), BOS, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    for _ in range(max_len):
        last = _last_logits(model, prefixes, memory, src_real)
        last[:, list(BANNED_GENERATION_IDS)] = -np.inf
        nxt = np.argmax(last, axis=-1)
        nxt[done] = PAD
        prefixes = np.concatenate([prefixes, nxt[:, None]], axis=1)
        done |= nxt == EOS
        if done.all():
            break
    return [row[row != PAD] for row in prefixes]


def greedy_decode(model: EncoderDecoderModel, src: list[int], max_len: int) -> np.ndarray:
    return greedy_decode_batch(model, [src], max_len)[0]


def beam_search(model: EncoderDecoderModel, src: list[int], beam_size: int,
                max_len: int, length_penalty_alpha: float = 1.0) -> np.ndarray:
    """Deterministic beam search; returns the best finished hypothesis' ids."""
    hyp = beam_search_hypothesis(model, src, beam_size, max_len, length_penalty_alpha)
    return np.asarray(hyp.ids, dtype=np.int64)


def beam_search_hypothesis(model: EncoderDecoderModel, src: list[int], beam_size: int,
                           max_len: int, length_penalty_alpha: float = 1.0) -> BeamHypothesis:
    if beam_size < 1:
        raise DataError(f"beam_size must be >= 1, got {beam_size}")
    _check_max_len(model, max_len)
    model.eval()
    src_arr = np.asarray([src], dtype=np.int64)
    src_real = pad_mask_from_ids(src_arr)
    memory = model.encode(src_arr)
    memory_data = memory.data

    active = [BeamHypothesis((BOS,), 0.0, False)]
    completed: list[BeamHypothesis] = []
    for step in range(1, max_len + 1):
        prefixes = np.asarray([h.ids for h in active], dtype=np.int64)
        k = len(active)
        mem_k = T.Tensor(np.broadcast_to(memory_data, (k,) + memory_data.shape[1:]).copy())
        real_k = np.broadcast_to(src_real, (k, src_real.shape[1]))
        logp = _log_softmax(_last_logits(model, prefixes, mem_k, real_k))
        logp[:, list(BANNED_GENERATION_IDS)] = -np.inf

        candidates = []
        for i, hyp in enumerate(active):
            for tok in range(logp.shape[1]):
                lp = logp[i, tok]
                if lp == -np.inf:
                    continue
                candidates.append(BeamHypothesis(hyp.ids + (tok,), hyp.logprob + lp,
                                                 tok == EOS or step == max_len))
        candidates.sort(key=lambda h: (-h.logprob, h.ids))
        selected = candidates[:beam_size]
        active = [h for h in selected if not h.finished]
        completed.extend(h for h in selected if h.finished)
        if not active:
            break
    pool = completed if completed else active
    pool.sort(key=lambda h: (-adjusted_score(h, length_penalty_alpha), h.ids))
    return pool[0]


def sequence_logprob(model: EncoderDecoderModel, src: list[int], seq: list[int]) -> float:
    """Teacher-forced log-probability of seq[1:] given its BOS prefix."""
    if len(seq) < 2:
        raise DataError("sequence must contain BOS plus at least one token")
    model.eval()
    src_arr = np.asarray([src], dtype=np.int64)
    src_real = pad_mask_from_ids(src_arr)
    memory = model.encode(src_arr)
    prefix = np.asarray([seq[:-1]], dtype=np.int64)
    logits = model.decode_logits(prefix, memory, src_real).data[0]
    logp = _log_softmax(logits)
    return float(sum(logp[t, seq[t + 1]] for t in range(len(seq) - 1)))

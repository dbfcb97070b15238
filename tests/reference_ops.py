"""Every reference the tests run against `warmsum.tensor` and the BPE learner,
in one module.

- The primitive ops (`add`, `add_const`, `scale`, `sum_all`, `softmax`,
  `layer_norm`, `reshape`), which the library no longer ships: the model runs
  on the fused ops. `softmax` and `layer_norm` call the library's `_softmax`
  and `_normalize` each time they run, so their numeric tests cover the
  kernels that `attention_probs` and `add_layer_norm` run.
- `CHAINS`: each fused op written as the chain of primitive ops it replaces.
- `KERNELS`: the tensor kernels as plain numpy expressions, frozen.
  `warmsum.tensor` evaluates these chains in buffers of its own and skips the
  rows and entries whose result is thrown away; it must still give the bits
  of the expressions below, one new array per expression.

`install(patch)` puts the chains in place of the fused ops and the frozen
expressions in place of the kernels they pin, through a pytest monkeypatch.

- `train_bpe`: the first BPE learner, which recounts every pair of every word
  and scans all pairs for each merge. `warmsum.tokenizer.train_bpe` must learn
  the same tokens and merges.
"""

from collections import Counter
from typing import Iterable

import numpy as np

from warmsum import tensor as T
from warmsum.errors import DataError, ShapeMismatchError
from warmsum.tokenizer import (NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary, _apply_merge,
                               _symbols, normalize_text)

# ---------------------------------------------------------------------------
# primitive ops


def add(a, b):
    """Elementwise add for equal shapes, or bias-add of a vector over the last axis."""
    if a.shape == b.shape:
        out = a.data + b.data
        return T._make(out, (a, b), lambda g: (g, g))
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        out = a.data + b.data

        def bw(g):
            return g, g.reshape(-1, b.shape[0]).sum(axis=0)

        return T._make(out, (a, b), bw)
    raise ShapeMismatchError(f"add shapes incompatible: {a.shape} + {b.shape}")


def add_const(a, const):
    """Add a non-differentiable constant broadcastable to a's shape."""
    const = np.asarray(const, dtype=np.float64)
    if np.broadcast_shapes(a.shape, const.shape) != a.shape:
        raise ShapeMismatchError(f"add_const would broadcast {a.shape} to a new shape via {const.shape}")
    out = a.data + const
    return T._make(out, (a,), lambda g: (g,))


def scale(a, s):
    s = float(s)
    return T._make(a.data * s, (a,), lambda g: (g * s,))


def sum_all(a):
    out = np.asarray(a.data.sum())
    return T._make(out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(np.float64),))


def softmax(x, axis=-1):
    """Max-subtracted softmax along `axis`; rows sum to 1."""
    y = T._softmax(x.data.copy(), axis)
    return T._make(y, (x,), lambda g: (T._softmax_grad(g, y, axis),))


def layer_norm(x, gain, bias, eps=1e-12):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    out, norm_grads = T._normalize(x.data.copy(), gain.data, bias.data, eps)
    # a closure of this op's own, so the recorded node carries its name
    return T._make(out, (x, gain, bias), lambda g: norm_grads(g))


def reshape(x, shape):
    old = x.shape
    return T._make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def dot(t, w):
    """Weighted sum of t against a constant array, so gradients are nontrivial."""
    flat = reshape(t, (1, int(np.prod(t.shape))))
    return sum_all(T.matmul(flat, T.Tensor(np.asarray(w).reshape(-1, 1))))


# ---------------------------------------------------------------------------
# the fused ops as chains of primitive ops


def linear(x, w, b):
    return add(T.matmul(x, w), b)


def split_heads(x, n_heads):
    b, l, d = x.shape
    return T.transpose(reshape(x, (b, l, n_heads, d // n_heads)), (0, 2, 1, 3))


def merge_heads(x):
    b, h, l, dh = x.shape
    return reshape(T.transpose(x, (0, 2, 1, 3)), (b, l, h * dh))


def attention_probs(q, k, s, mask=None):
    scores = scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), s)
    if mask is not None:
        scores = add_const(scores, mask)
    return softmax(scores, axis=-1)


def add_layer_norm(x, y, gain, bias, eps):
    return layer_norm(add(x, y), gain, bias, eps)


CHAINS = {"linear": linear, "split_heads": split_heads, "merge_heads": merge_heads,
          "attention_probs": attention_probs, "add_layer_norm": add_layer_norm}

# ---------------------------------------------------------------------------
# the kernels as plain numpy expressions


def _softmax(xd, axis):
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g, y, axis):
    dot = (g * y).sum(axis=axis, keepdims=True)
    return (g - dot) * y


def _mean_last(a):
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _normalize(xd, gd, bd, eps):
    d = xd.shape[-1]
    mu = _mean_last(xd)
    centered = xd - mu
    var = _mean_last(centered * centered)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gd + bd

    def grads(g):
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
        return dx, dgain, dbias

    return out, grads


def gelu(x):
    xd = x.data
    inner = T._GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def bw(g):
        dinner = T._GELU_C * (1.0 + 3 * 0.044715 * xd * xd)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * dx,)

    return T._make(out, (x,), bw)


def embedding_lookup(table, ids):
    ids = np.asarray(ids)
    out = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return T._make(out, (table,), bw)


def cross_entropy(logits, targets, ignore_id=-1):
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    keep = targets != ignore_id
    n_keep = int(keep.sum())
    v = logits.shape[-1]
    kept_targets = targets[keep]
    ld = logits.data.reshape(-1, v)
    m = ld.max(axis=1, keepdims=True)
    e = np.exp(ld - m)
    z = e.sum(axis=1, keepdims=True)
    logz = np.log(z) + m
    rows = np.nonzero(keep)[0]
    nll = logz[rows, 0] - ld[rows, kept_targets]
    out = np.asarray(nll.sum() / n_keep)

    def bw(g):
        p = e / z
        gl = np.zeros_like(ld)
        gl[rows] = p[rows]
        gl[rows, kept_targets] -= 1.0
        return ((gl * (float(g) / n_keep)).reshape(logits.shape),)

    return T._make(out, (logits,), bw)


KERNELS = {"_softmax": _softmax, "_softmax_grad": _softmax_grad, "_normalize": _normalize,
           "gelu": gelu, "embedding_lookup": embedding_lookup,
           "cross_entropy": cross_entropy}


def install(patch):
    for name, fn in {**CHAINS, **KERNELS}.items():
        patch.setattr(T, name, fn)


# ---------------------------------------------------------------------------
# BPE learner


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

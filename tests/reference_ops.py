"""The tensor kernels as plain numpy expressions, frozen as references.

`warmsum.tensor` evaluates these chains in buffers of its own and skips the
rows and entries whose result is thrown away; it must still give the bits of
the expressions below, one new array per expression. `install(patch)` puts them in place of the kernels they
pin, through a pytest monkeypatch.
"""

import numpy as np

from warmsum import tensor as T


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
    for name, fn in KERNELS.items():
        patch.setattr(T, name, fn)

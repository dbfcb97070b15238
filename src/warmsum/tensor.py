"""Dense float64 tensors with taped reverse-mode differentiation.

Storage is row-major numpy float64. Every differentiable operation is a
module-level function that computes the forward value and, when a Tape is
active and a gradient is needed, records a backward rule. Gradients are
accumulated by replaying the tape in reverse recording order, which visits
each recorded node exactly once.

Broadcasting is deliberately restricted: `add` supports equal shapes plus a
bias vector over the last axis, and nothing else. Masks and other constants
enter through `add_const`, which does not differentiate through its constant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, NumericError, ShapeMismatchError

# Toggle with set_debug_checks(); every op then asserts finite outputs.
_DEBUG_CHECKS = False

_ACTIVE_TAPE: "Tape | None" = None


def set_debug_checks(enabled: bool) -> None:
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_needs_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._needs_grad = self.requires_grad
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class Tape:
    """Records op nodes in forward execution order; also a context manager.

    Only one tape may be active at a time. Ops executed with no active tape
    (inference) record nothing and allocate no gradient state.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.replayed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        out._tape = self
        self._nodes.append((out, inputs, backward_fn))


def backward(loss: Tensor) -> None:
    """Populate grads of every needs-grad ancestor of a scalar loss."""
    if loss.data.ndim != 0:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on an active tape")
    if tape.replayed:
        raise RuntimeError("tape already replayed; record a new tape to run backward again")
    tape.replayed = True
    loss.grad = np.ones((), dtype=np.float64)
    for out, inputs, backward_fn in reversed(tape._nodes):
        if out.grad is None:
            continue
        contribs = backward_fn(out.grad)
        for t, g in zip(inputs, contribs):
            if g is not None and t._needs_grad:
                t.accumulate_grad(g)


def _make(op: str, data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor(data)
    out._needs_grad = any(t._needs_grad for t in inputs)
    if _ACTIVE_TAPE is not None and out._needs_grad:
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports [m,k]x[k,n], stacked [...,m,k]x[k,n], and
    batched [...,m,k]x[...,k,n] with identical leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs ndim >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if b.ndim == 2:
        ad, bd = a.data, b.data
        out = ad @ bd

        def bw(g):
            ga = g @ bd.T
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

        return _make("matmul", out, (a, b), bw)
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatchError(f"matmul leading dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bw(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _make("matmul", out, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add for equal shapes, or bias-add of a vector over the last axis."""
    if a.shape == b.shape:
        out = a.data + b.data
        return _make("add", out, (a, b), lambda g: (g, g))
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        out = a.data + b.data

        def bw(g):
            return g, g.reshape(-1, b.shape[0]).sum(axis=0)

        return _make("add", out, (a, b), bw)
    raise ShapeMismatchError(f"add shapes incompatible: {a.shape} + {b.shape}")


def add_const(a: Tensor, const: np.ndarray) -> Tensor:
    """Add a non-differentiable constant broadcastable to a's shape."""
    const = np.asarray(const, dtype=np.float64)
    if np.broadcast_shapes(a.shape, const.shape) != a.shape:
        raise ShapeMismatchError(f"add_const would broadcast {a.shape} to a new shape via {const.shape}")
    out = a.data + const
    return _make("add_const", out, (a,), lambda g: (g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make("scale", a.data * s, (a,), lambda g: (g * s,))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return _make("sum_all", out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(np.float64),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _make("softmax", y, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _make("layer_norm", out, (x, gain, bias), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * xd**3)
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * xd * xd)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * dx,)

    return _make("gelu", out, (x,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Train-mode inverted dropout; p == 0 is the identity."""
    if not 0.0 <= p < 1.0:
        raise DataError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return _make("dropout", x.data * keep, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape
    return _make("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inv = np.argsort(axes)
    return _make("transpose", x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


# ---------------------------------------------------------------------------
# embeddings and losses


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids; gradient scatter-adds."""
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeMismatchError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError(f"embedding id out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _make("embedding_lookup", out, (table,), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int = -1) -> Tensor:
    """Mean negative log-softmax of target classes over non-ignored rows."""
    if logits.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy expects [n, V] logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeMismatchError(
            f"cross_entropy targets shape {targets.shape} does not match logits rows {logits.shape[0]}"
        )
    keep = targets != ignore_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise DataError("empty loss: every position is ignored")
    v = logits.shape[1]
    kept_targets = targets[keep]
    if kept_targets.min() < 0 or kept_targets.max() >= v:
        raise DataError(f"cross_entropy target id out of range [0, {v})")

    ld = logits.data
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
        return (gl * (float(g) / n_keep),)

    return _make("cross_entropy", out, (logits,), bw)


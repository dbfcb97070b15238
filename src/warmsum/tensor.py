"""Dense float64 tensors with taped reverse-mode differentiation.

Storage is row-major numpy float64. A tensor holds its data, its gradient
and the tape that recorded it. Every differentiable operation is a
module-level function that computes the forward value and, while a Tape is
active, records one node with its backward rule. Backward replays the tape
in reverse recording order, which visits each recorded node exactly once, and
fills the `grad` of every tensor that fed a node on the loss's path.

Broadcasting is deliberately restricted: `add` supports equal shapes plus a
bias vector over the last axis, and nothing else. Masks and other constants
enter through `add_const`, which does not differentiate through its constant.

The fused ops (`linear`, `split_heads`, `merge_heads`, `attention_probs`,
`add_layer_norm`) each record one node for a chain of the primitive ops. Their
forward and backward evaluate the chain's numpy expressions in the chain's
order, so a model built from them computes bit-identical values and gradients.
"""

from __future__ import annotations

import ctypes
import math
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeMismatchError

_ACTIVE_TAPE: "Tape | None" = None
_HEAP_POLICY_SET = False
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Ask glibc, once per process, to keep the memory that training frees.

    A training step frees its whole graph when its tape's block ends. By
    default glibc then trims the top of the heap and unmaps large arrays, and
    the next step faults the same pages back in. Arrays up to 32 MiB (glibc's
    ceiling) now come from the heap, and up to 1 GiB of free heap stays in the
    process. Setting the trim threshold alone would turn off glibc's dynamic
    mmap threshold, so arrays of 128 KiB and more would be mapped anew on every
    step. Where the C library has no `mallopt`, or refuses it, nothing changes.
    """
    global _HEAP_POLICY_SET
    if _HEAP_POLICY_SET:
        return
    _HEAP_POLICY_SET = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _pin_blas_to_one_thread() -> None:
    """Run the OpenBLAS that numpy bundles on one thread; called once, at import.

    With more threads OpenBLAS splits the inner dimension of a large product
    (a weight gradient over a whole batch) between them, which reorders its
    float sums: the same run would write other checkpoint bytes on a host with
    another core count. OPENBLAS_NUM_THREADS is read only when numpy is first
    imported, which may come before this module, so the library is asked
    directly. Where numpy bundles no OpenBLAS, or it lacks the call, nothing
    changes.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded, not a second one
        except OSError:
            continue
        # numpy 2's scipy-openblas, and the libopenblas64_ of numpy 1.2x wheels
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes = (ctypes.c_int,)
                set_threads.restype = None
                set_threads(1)
                return


_pin_blas_to_one_thread()


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "_tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a C-ordered copy, as zeros + g was: -0.0 becomes +0.0, and a
            # transposed contribution does not hand its order to later sums
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Records op nodes in forward execution order; also a context manager.

    Only one tape may be active at a time. While it is active every op records
    one node; with no active tape (inference) ops record nothing. Leaving the
    `with` block drops the recorded graph, so backward runs inside the block.
    The first tape entered sets the allocator policy of `_keep_freed_heap`.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.replayed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _keep_freed_heap()
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        # every output holds its tape (out._tape), so the nodes form a reference
        # cycle that only the cyclic collector could free; emptying breaks it
        self._nodes.clear()

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        out._tape = self
        self._nodes.append((out, inputs, backward_fn))


def recording() -> bool:
    """Whether a tape is active, so that ops may record a graph."""
    return _ACTIVE_TAPE is not None


def backward(loss: Tensor) -> None:
    """Accumulate into `grad` of every recorded ancestor of a scalar loss."""
    if loss.data.ndim != 0:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on an active tape")
    if tape.replayed or not tape._nodes:  # a recorded loss leaves its tape nonempty until exit
        raise RuntimeError("tape already replayed or closed; record a new tape to run backward")
    tape.replayed = True
    loss.grad = np.ones((), dtype=np.float64)
    for out, inputs, backward_fn in reversed(tape._nodes):
        if out.grad is None:
            continue
        for t, g in zip(inputs, backward_fn(out.grad)):
            t.accumulate_grad(g)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _ACTIVE_TAPE is not None:
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

        return _make(out, (a, b), lambda g: _weight_product_grads(g, ad, bd))
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatchError(f"matmul leading dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bw(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _make(out, (a, b), bw)


def _weight_product_grads(g: np.ndarray, ad: np.ndarray, wd: np.ndarray):
    """Gradients of ad @ wd for a 2-D wd: the weight's sums over every leading axis."""
    return g @ wd.T, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D weight w and a bias vector b over the last axis."""
    if w.ndim != 2 or x.ndim < 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(f"linear shapes incompatible: {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd + b.data

    def bw(g):
        gx, gw = _weight_product_grads(g, xd, wd)
        return gx, gw, g.reshape(-1, b.shape[0]).sum(axis=0)

    return _make(out, (x, w, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add for equal shapes, or bias-add of a vector over the last axis."""
    if a.shape == b.shape:
        out = a.data + b.data
        return _make(out, (a, b), lambda g: (g, g))
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        out = a.data + b.data

        def bw(g):
            return g, g.reshape(-1, b.shape[0]).sum(axis=0)

        return _make(out, (a, b), bw)
    raise ShapeMismatchError(f"add shapes incompatible: {a.shape} + {b.shape}")


def add_const(a: Tensor, const: np.ndarray) -> Tensor:
    """Add a non-differentiable constant broadcastable to a's shape."""
    const = np.asarray(const, dtype=np.float64)
    if np.broadcast_shapes(a.shape, const.shape) != a.shape:
        raise ShapeMismatchError(f"add_const would broadcast {a.shape} to a new shape via {const.shape}")
    out = a.data + const
    return _make(out, (a,), lambda g: (g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return _make(out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(np.float64),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _softmax(xd: np.ndarray, axis: int) -> np.ndarray:
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    dot = (g * y).sum(axis=axis, keepdims=True)
    return (g - dot) * y


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to 1."""
    y = _softmax(x.data, axis)
    return _make(y, (x,), lambda g: (_softmax_grad(g, y, axis),))


def attention_probs(q: Tensor, k: Tensor, s: float, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T * s + mask) over the keys, for [B, H, L, dh] queries and keys.

    One node for transpose, matmul, scale, add_const and softmax; `mask` is an
    optional additive constant broadcast to the [B, H, Lq, Lk] scores.
    """
    if q.ndim != 4 or k.ndim != 4 or q.shape[:2] != k.shape[:2] or q.shape[3] != k.shape[3]:
        raise ShapeMismatchError(f"attention_probs needs [B, H, L, dh] queries and keys, "
                                 f"got {q.shape} and {k.shape}")
    s = float(s)
    qd = q.data
    kt = np.ascontiguousarray(k.data.transpose(0, 1, 3, 2))  # the chain's transposed copy
    scores = (qd @ kt) * s
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if np.broadcast_shapes(scores.shape, mask.shape) != scores.shape:
            raise ShapeMismatchError(f"attention mask {mask.shape} does not broadcast "
                                     f"to the scores {scores.shape}")
        scores = scores + mask
    y = _softmax(scores, -1)

    def bw(g):
        gs = _softmax_grad(g, y, -1) * s
        gq = gs @ np.swapaxes(kt, -1, -2)
        gk = (np.swapaxes(qd, -1, -2) @ gs).transpose(0, 1, 3, 2)
        return gq, gk

    return _make(y, (q, k), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    out, norm_grads = _normalize(x.data, gain.data, bias.data, eps)
    # a closure of this op's own, so the recorded node carries its name
    return _make(out, (x, gain, bias), lambda g: norm_grads(g))


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-12) -> Tensor:
    """layer_norm(x + y): a residual add and the norm after it, in one node."""
    d = x.shape[-1]
    if x.shape != y.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(f"add_layer_norm shapes incompatible: {x.shape} + {y.shape}, "
                                 f"gain {gain.shape}, bias {bias.shape}")
    out, norm_grads = _normalize(x.data + y.data, gain.data, bias.data, eps)

    def bw(g):
        dx, dgain, dbias = norm_grads(g)
        return dx, dx, dgain, dbias

    return _make(out, (x, y, gain, bias), bw)


def _mean_last(a: np.ndarray) -> np.ndarray:
    # a.mean(axis=-1, keepdims=True) bit for bit, without its Python-level wrapper
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _normalize(xd: np.ndarray, gd: np.ndarray, bd: np.ndarray, eps: float):
    """Layer norm of xd's last axis: the output and its (dx, dgain, dbias) backward."""
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


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * xd * xd)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * dx,)

    return _make(out, (x,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Train-mode inverted dropout; p == 0 is the identity."""
    if not 0.0 <= p < 1.0:
        raise DataError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return _make(x.data * keep, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inv = np.argsort(axes)
    return _make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[B, L, n_heads * dh] -> [B, n_heads, L, dh]: a reshape and a transpose in one node."""
    b, l, d = x.shape
    if d % n_heads:
        raise ShapeMismatchError(f"split_heads: width {d} is not a multiple of {n_heads} heads")
    out = x.data.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)
    return _make(out, (x,), lambda g: (g.transpose(0, 2, 1, 3).reshape(b, l, d),))


def merge_heads(x: Tensor) -> Tensor:
    """[B, H, L, dh] -> [B, L, H * dh], the inverse of split_heads."""
    b, h, l, dh = x.shape
    out = x.data.transpose(0, 2, 1, 3).reshape(b, l, h * dh)
    return _make(out, (x,), lambda g: (g.reshape(b, l, h, dh).transpose(0, 2, 1, 3),))


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

    return _make(out, (table,), bw)


def position_lookup(table: Tensor, start: int, batch: int, length: int) -> Tensor:
    """Rows start .. start+length-1 of `table` for each of `batch` sequences.

    embedding_lookup of those positions broadcast over the batch, bit for bit:
    backward sums the batch axis row by row, in np.add.at's order, instead of
    scatter-adding every row.
    """
    if table.ndim != 2:
        raise ShapeMismatchError(f"embedding table must be 2-D, got {table.shape}")
    if start < 0 or start + length > table.shape[0]:
        raise DataError(f"positions [{start}, {start + length}) out of range [0, {table.shape[0]})")
    rows = slice(start, start + length)
    out = np.broadcast_to(table.data[rows], (batch, length, table.shape[1])).copy()

    def bw(g):
        gt = np.zeros_like(table.data)
        gt[rows] = g.sum(axis=0)
        return (gt,)

    return _make(out, (table,), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int = -1) -> Tensor:
    """Mean negative log-softmax of the target classes over non-ignored positions,
    for [..., V] logits and targets of their leading shape."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim < 1 or targets.shape != logits.shape[:-1]:
        raise ShapeMismatchError(f"cross_entropy needs [..., V] logits and targets of their "
                                 f"leading shape, got {logits.shape} and {targets.shape}")
    targets = targets.reshape(-1)
    keep = targets != ignore_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise DataError("empty loss: every position is ignored")
    v = logits.shape[-1]
    kept_targets = targets[keep]
    if kept_targets.min() < 0 or kept_targets.max() >= v:
        raise DataError(f"cross_entropy target id out of range [0, {v})")

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

    return _make(out, (logits,), bw)

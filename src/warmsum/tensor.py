"""Dense float64 tensors with taped reverse-mode differentiation.

Storage is row-major numpy float64. A tensor holds its data, its gradient and
the tape that recorded it. Every differentiable operation is a module-level
function that computes the forward value and, while a Tape is active, records
one node: a gradient slot for its output, where its inputs' gradients go, and
its backward rule.

The tape holds only what backward reads, and backward lets go of it as it
walks:

- a backward rule keeps the arrays it reads and, of tensors, only parameters;
  the tape holds no op output, so an output that no rule kept (a sublayer
  output fed to `add_layer_norm`, the product before `merge_heads`, the
  logits) is freed as soon as the model drops it;
- backward replays the nodes in reverse recording order, which visits each
  once, and accumulates into the `grad` of every leaf (a parameter or an
  input) on the loss's path; an op output's gradient lives in its slot only;
- each node, with the arrays its rule kept, and its output's gradient are
  freed once the rule has run, so after backward only the leaves' gradients
  remain; leaving the tape's block frees the nodes that backward did not
  replay.

Besides `Tensor`, `Tape`, `backward` and `recording`, the module exports
only the ops that the model records: `matmul`, `transpose`, `gelu`,
`dropout`, `embedding_lookup`, `position_lookup` and `cross_entropy`, and the
fused ops `linear`, `split_heads`, `merge_heads`, `attention_probs` and
`add_layer_norm`, each of which records one node for a chain of primitive
ops. An attention mask is an additive constant, which is not differentiated.

The primitive ops (`add`, `add_const`, `scale`, `sum_all`, `softmax`,
`layer_norm`, `reshape`), the fused ops written as their chains, and the
kernels below written as plain expressions live in `tests/reference_ops.py`.
Its `install` swaps the chains in for the fused ops, and the plain
expressions in for `_softmax`, `_softmax_grad`, `_normalize`, `gelu`,
`embedding_lookup` and `cross_entropy`.

Every kernel gives the bits of its plain numpy expressions while skipping
the work whose result is thrown away; each float operation it keeps has the
expression's operands and order:

- a chain of expressions writes into its own temporaries (`out=`, `*=`)
  instead of allocating an array per expression;
- `cross_entropy` normalises only the rows that carry a target: every row's
  max, exp and log-sum is its own;
- `embedding_lookup` scatters its gradient with `np.bincount`, which adds the
  contributions to each table entry in index order, as `np.add.at` did.
"""

from __future__ import annotations

import ctypes
import math
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeMismatchError

_ACTIVE_TAPE: "Tape | None" = None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Ask glibc to keep the memory that the process frees; called once, at import.

    A training step frees its graph node by node as backward walks it, and
    each encoder pass of a decoding chunk frees its attention temporaries. By
    default glibc then trims the top of the heap and unmaps large arrays, and
    the next step or chunk faults the same pages back in. Arrays up to 32 MiB
    (glibc's ceiling) now come from the heap, and up to 1 GiB of free heap
    stays in the process: that is the price any process that imports warmsum
    pays. Setting the trim threshold alone would turn off glibc's dynamic mmap
    threshold, so arrays of 128 KiB and more would be mapped anew on every
    step. Where the C library has no `mallopt`, or refuses it, nothing changes.
    """
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
_keep_freed_heap()


class _GradSlot:
    """A gradient that backward accumulates into: a leaf tensor's own, or the
    tape's slot for one recorded op output."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a C-ordered copy, as zeros + g was: -0.0 becomes +0.0, and a
            # transposed contribution does not hand its order to later sums
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad += g


class Tensor(_GradSlot):
    """A dense float64 array plus an optional gradient buffer.

    Only a leaf, a tensor that no op of the tape produced (a parameter or an
    input), receives `grad` from backward. An op output's gradient lives in
    its slot, `_slot`, which `Tape.record` sets with `_tape`; only that tape
    reads it.
    """

    __slots__ = ("data", "_tape", "_slot")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Records op nodes in forward execution order; also a context manager.

    Only one tape may be active at a time. While it is active every op records
    one node; with no active tape (inference) ops record nothing. A node is
    the output's gradient slot, where each input's gradient goes (a leaf's own
    `grad`, or the slot of an output recorded earlier) and the backward rule;
    it holds no op output. Backward frees each node as it replays it, and
    leaving the `with` block frees the rest, so backward runs inside the
    block. The allocator policy that keeps the freed graph's pages in the
    process is set at import, by `_keep_freed_heap`.
    """

    def __init__(self):
        self._nodes: list[tuple[_GradSlot, tuple[_GradSlot, ...], object] | None] = []
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
        self._nodes.clear()

    def __len__(self) -> int:
        """The number of nodes recorded, replayed or not, until the block ends."""
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        slot = _GradSlot()
        out._tape, out._slot = self, slot
        self._nodes.append((slot, tuple(t._slot if t._tape is self else t for t in inputs),
                            backward_fn))


def recording() -> bool:
    """Whether a tape is active, so that ops may record a graph."""
    return _ACTIVE_TAPE is not None


def backward(loss: Tensor) -> None:
    """Accumulate into `grad` of every leaf that feeds a scalar loss on its tape.

    Replays the nodes in reverse recording order, so each node runs after
    every node that consumed its output. Each node, with the arrays its rule
    kept, and its output's gradient are freed once the rule has run, so
    memory falls as backward walks. The tape replays once, and keeps its
    length until its block ends.
    """
    if loss.data.ndim != 0:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on an active tape")
    if tape.replayed or not tape._nodes:  # a recorded loss leaves its tape nonempty until exit
        raise RuntimeError("tape already replayed or closed; record a new tape to run backward")
    tape.replayed = True
    loss._slot.grad = np.ones((), dtype=np.float64)
    nodes = tape._nodes
    for i in range(len(nodes) - 1, -1, -1):
        slot, inputs, backward_fn = nodes[i]
        nodes[i] = None  # not popped: len(tape) still counts the recorded nodes
        g, slot.grad = slot.grad, None
        if g is not None:
            for t, gi in zip(inputs, backward_fn(g)):
                t.accumulate_grad(gi)


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
    out = xd @ wd
    out += b.data

    def bw(g):
        gx, gw = _weight_product_grads(g, xd, wd)
        return gx, gw, g.reshape(-1, b.shape[0]).sum(axis=0)

    return _make(out, (x, w, b), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted softmax along `axis`, written over x, which the caller owns."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    dot = (g * y).sum(axis=axis, keepdims=True)
    return (g - dot) * y


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
    scores = qd @ kt
    scores *= s
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if np.broadcast_shapes(scores.shape, mask.shape) != scores.shape:
            raise ShapeMismatchError(f"attention mask {mask.shape} does not broadcast "
                                     f"to the scores {scores.shape}")
        scores += mask
    y = _softmax(scores, -1)

    def bw(g):
        gs = _softmax_grad(g, y, -1) * s
        gq = gs @ np.swapaxes(kt, -1, -2)
        gk = (np.swapaxes(qd, -1, -2) @ gs).transpose(0, 1, 3, 2)
        return gq, gk

    return _make(y, (q, k), bw)


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-12) -> Tensor:
    """layer_norm(x + y): a residual add and the norm after it, in one node."""
    d = x.shape[-1]
    if x.shape != y.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(f"add_layer_norm shapes incompatible: {x.shape} + {y.shape}, "
                                 f"gain {gain.shape}, bias {bias.shape}")
    out, norm_grads = _normalize(np.add(x.data, y.data), gain.data, bias.data, eps)

    def bw(g):
        dx, dgain, dbias = norm_grads(g)
        return dx, dx, dgain, dbias

    return _make(out, (x, y, gain, bias), bw)


def _mean_last(a: np.ndarray) -> np.ndarray:
    # a.mean(axis=-1, keepdims=True) bit for bit, without its Python-level wrapper
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _normalize(xd: np.ndarray, gd: np.ndarray, bd: np.ndarray, eps: float):
    """Layer norm of xd's last axis: the output and its (dx, dgain, dbias) backward.

    xd is the caller's to give: it becomes the normalised xhat.
    """
    d = xd.shape[-1]
    centered = np.subtract(xd, _mean_last(xd), out=xd)
    sq = centered * centered
    inv = 1.0 / np.sqrt(_mean_last(sq) + eps)
    xhat = np.multiply(centered, inv, out=centered)
    out = np.multiply(xhat, gd, out=sq)
    out += bd

    def grads(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in two buffers
        gx = g * xhat
        dgain = gx.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        mean_dxhat = _mean_last(dxhat)
        mean_dxhat_xhat = _mean_last(np.multiply(dxhat, xhat, out=gx))
        dx = np.subtract(dxhat, mean_dxhat, out=dxhat)
        dx -= np.multiply(xhat, mean_dxhat_xhat, out=gx)
        dx *= inv
        return dx, dgain, dbias

    return out, grads


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    # _GELU_C * (xd + 0.044715 * (xd * xd * xd)), then 0.5 * xd * (1.0 + t)
    inner = xd * xd
    inner *= xd
    inner *= 0.044715
    inner += xd
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    out = 0.5 * xd
    out *= 1.0 + t

    def bw(g):
        # g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner), where
        # dinner = _GELU_C * (1.0 + 3 * 0.044715 * xd * xd)
        dinner = (3 * 0.044715) * xd
        dinner *= xd
        dinner += 1.0
        dinner *= _GELU_C
        tt = t * t
        rest = 0.5 * xd
        rest *= np.subtract(1.0, tt, out=tt)
        rest *= dinner
        dx = np.add(1.0, t, out=tt)  # the forward's 1.0 + t, recomputed rather than saved
        dx *= 0.5
        dx += rest
        dx *= g
        return (dx,)

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
        # one bin per table entry; bincount adds each bin's contributions in
        # index order, as np.add.at adds each row's
        n, d = table.shape
        bins = (ids.reshape(-1, 1).astype(np.intp) * d + np.arange(d)).reshape(-1)
        return (np.bincount(bins, weights=g.reshape(-1), minlength=n * d).reshape(n, d),)

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
    shape = logits.shape  # the backward rule keeps the shape, not the logits
    v = shape[-1]
    kept_targets = targets[keep]
    if kept_targets.min() < 0 or kept_targets.max() >= v:
        raise DataError(f"cross_entropy target id out of range [0, {v})")

    # each row's max, exp and log-sum is its own: the ignored rows need none
    ld = logits.data.reshape(-1, v)
    rows = np.flatnonzero(keep)
    e = ld[rows]
    m = e.max(axis=1, keepdims=True)
    e -= m
    np.exp(e, out=e)
    z = e.sum(axis=1, keepdims=True)
    logz = np.log(z) + m
    nll = logz[:, 0] - ld[rows, kept_targets]
    out = np.asarray(nll.sum() / n_keep)

    def bw(g):
        # ((softmax - one_hot) on the kept rows, 0.0 elsewhere) * (g / n_keep)
        factor = float(g) / n_keep
        p = e / z
        p[np.arange(n_keep), kept_targets] -= 1.0
        p *= factor
        gl = np.full(shape, 0.0 * factor)
        gl.reshape(-1, v)[rows] = p
        return (gl,)

    return _make(out, (logits,), bw)

"""Spans around the calls into each warmsum module, and the per-layer metrics
derived from them.

A traced run replaces every public function of each warmsum module (plus the
few private stage functions named in PRIVATE, the model classes' forward
methods and the tape's context and record hooks) with a wrapper that records
a span: name, start, end, parent span and run id. The run id is the
benchmark's own root span (one set-up or one round). Modules import each
other's functions by name (`from .training import finetune`), so a wrapper
replaces the original under every name that any warmsum module binds it to.

Spans live in flat arrays in memory and are written out once, when the run
ends. Nothing is wrapped in an untraced run.

The tracer also counts the objects that Python's cyclic collector frees, but
only while `counting` is set and no span is recorded. A recording wraps every
backward closure in a closure of its own, and those wrappers sit in the
tape's reference cycle, so a count taken while recording would include them.
"""

from __future__ import annotations

import gc
import inspect
import time
from array import array

import numpy as np

LAYERS = ("tensor", "model", "training", "tokenizer", "decoding", "rouge",
          "assembly", "corpus", "synthetic", "experiment")

# private stage functions that the per-layer metrics need as span boundaries
PRIVATE = {
    "training": ("_dev_loss", "_dev_rouge_l"),
    "experiment": ("_prepare_splits", "_prepare_vocab", "_prepare_encoder",
                   "_run_cell", "_decode_test"),
}
METHODS = {
    "model": {"EncoderDecoderModel": ("encode", "decode_logits", "forward_loss"),
              "EncoderMlm": ("logits",)},
}
# the ops the model calls; each gets a fwd_ms and a bwd_ms metric
OPS = ("matmul", "add", "add_const", "scale", "softmax", "layer_norm", "gelu",
       "reshape", "transpose", "embedding_lookup", "cross_entropy")

ROUND, SETUP, TAPE = "bench.round", "bench.setup", "tensor.Tape"


def _layer_modules():
    import importlib
    return {name: importlib.import_module(f"warmsum.{name}") for name in LAYERS}


# per-span numbers captured from a call's arguments or result
def _backward_nodes(args, kwargs, result):
    return len(args[0]._tape)


def _greedy_work(args, kwargs, result):
    return (len(args[1]), sum(len(row) - 1 for row in result))


def _beam_work(args, kwargs, result):
    return (1, len(result.ids) - 1)


def _decoder_positions(args, kwargs, result):
    rows, length = np.shape(args[1])
    return rows * length


def _encoded_text(args, kwargs, result):
    return args[0]


def _pair_count(args, kwargs, result):
    return len(args[0])


ATTRS = {
    "tensor.backward": _backward_nodes,
    "decoding.greedy_decode_batch": _greedy_work,
    "decoding.beam_search_hypothesis": _beam_work,
    "model.EncoderDecoderModel.decode_logits": _decoder_positions,
    "tokenizer.encode": _encoded_text,
    "rouge.corpus_rouge": _pair_count,
}


class Tracer:
    """Records spans while `on`; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.on = False
        self.counting = False
        self.cycle_objects_freed = 0

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def open_root(self, name: str) -> None:
        """Start a set-up or a round; spans are recorded until close_root."""
        self.on = True
        self.begin(self.intern(name))

    def close_root(self) -> None:
        self.finish(self._stack[-1])
        self.on = False

    def _gc_callback(self, phase, info):
        if phase == "stop" and self.counting and not self.on:
            self.cycle_objects_freed += info["collected"]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.intern(name)
        attr = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(sid)
            if attr is not None:
                tracer.attrs[sid] = attr(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import warmsum
        modules = _layer_modules()
        wrappers = {}
        for layer, mod in modules.items():
            for fname, fn in vars(mod).items():
                public = not fname.startswith("_") or fname in PRIVATE.get(layer, ())
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    self._patch(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
        # rebind every name any warmsum module holds for a wrapped function
        for mod in [warmsum, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        self._install_tape_hooks(modules["tensor"].Tape)
        gc.callbacks.append(self._gc_callback)

    def _install_tape_hooks(self, tape_cls) -> None:
        tracer = self
        enter, exit_, record = tape_cls.__enter__, tape_cls.__exit__, tape_cls.record
        tape_id = self.intern(TAPE)

        def traced_enter(tape):
            result = enter(tape)
            if tracer.on:
                tape._bench_span = tracer.begin(tape_id)
            return result

        def traced_exit(tape, *exc):
            sid = tape.__dict__.pop("_bench_span", None)
            if sid is not None:
                tracer.finish(sid)
            return exit_(tape, *exc)

        def traced_record(tape, out, inputs, backward_fn):
            if not tracer.on:
                return record(tape, out, inputs, backward_fn)
            # backward closures are defined inside their op: matmul.<locals>.bw
            nid = tracer.intern(f"tensor.{backward_fn.__qualname__.split('.', 1)[0]}.bwd")

            def traced_backward(g):
                sid = tracer.begin(nid)
                try:
                    return backward_fn(g)
                finally:
                    tracer.finish(sid)

            return record(tape, out, inputs, traced_backward)

        self._patch(tape_cls, "__enter__", traced_enter)
        self._patch(tape_cls, "__exit__", traced_exit)
        self._patch(tape_cls, "record", traced_record)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span: name, start, end, parent span and run id (root)."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), run_id=np.asarray(self.root))


def derive_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each (value, unit).

    Times per call, per step and per example average over every traced span
    (the set-up and all recorded rounds). Counts and `_s` totals are per
    round and use round spans only. `tensor.cycle_objects_freed` is the count
    taken in one round that recorded nothing.
    """
    name = np.asarray(tr.name)
    parent = np.asarray(tr.parent)
    root = np.asarray(tr.root)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    ids = {n: i for i, n in enumerate(tr.names)}
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child

    round_roots = np.flatnonzero(name == ids.get(ROUND, -1))
    n_rounds = max(1, len(round_roots))
    in_round = np.isin(root, round_roots)

    # bit mask of the context spans enclosing each span (itself included)
    contexts = ("tensor.Tape", "training.pretrain_mlm", "training.finetune",
                "decoding.greedy_decode_batch", "decoding.beam_search_hypothesis",
                "experiment._run_cell")
    bit = {ids[c]: 1 << k for k, c in enumerate(contexts) if c in ids}
    mask = [0] * len(name)
    for s, (nid, p) in enumerate(zip(tr.name, tr.parent)):
        mask[s] = (mask[p] if p >= 0 else 0) | bit.get(nid, 0)
    mask = np.asarray(mask, dtype=np.int64)
    ctx = {c: (mask & (1 << k)) != 0 for k, c in enumerate(contexts)}

    def sel(n):
        return name == ids.get(n, -1)

    def total(n, where=None):
        m = sel(n) if where is None else sel(n) & where
        return float(dur[m].sum())

    def count(n, where=None):
        m = sel(n) if where is None else sel(n) & where
        return int(m.sum())

    def ratio(a, b):
        return a / b if b else 0.0

    def attr_sum(n, k=None):
        vals = [tr.attrs[s] for s in np.flatnonzero(sel(n))]
        return float(sum(v if k is None else v[k] for v in vals))

    out: dict[str, tuple[float, str]] = {}
    tape = ctx["tensor.Tape"]
    n_steps = count("tensor.backward")
    out["tensor.tape_nodes_per_step"] = (ratio(attr_sum("tensor.backward"), n_steps), "count")
    n_tapes = count(TAPE)
    for op in OPS:
        out[f"tensor.{op}.fwd_ms"] = (1e3 * ratio(total(f"tensor.{op}", tape), n_tapes), "ms")
        out[f"tensor.{op}.bwd_ms"] = (1e3 * ratio(total(f"tensor.{op}.bwd"), n_steps), "ms")
    out["tensor.backward_ms_per_step"] = (1e3 * ratio(total("tensor.backward"), n_steps), "ms")
    out["tensor.cycle_objects_freed"] = (tr.cycle_objects_freed, "count")

    def per_call_ms(n, where=None):
        return (1e3 * ratio(total(n, where), count(n, where)), "ms")

    out["model.encode_ms_per_call"] = per_call_ms("model.EncoderDecoderModel.encode")
    out["model.decode_logits_ms_per_call"] = per_call_ms("model.EncoderDecoderModel.decode_logits")
    out["model.forward_loss_ms_per_step"] = per_call_ms(
        "model.EncoderDecoderModel.forward_loss", tape)

    # a step is everything a training loop does per tape: batching, forward,
    # backward, Adam; encoding, dev evaluation and hashing are taken out
    pre, ft = ctx["training.pretrain_mlm"], ctx["training.finetune"]
    mlm_work = total("training.pretrain_mlm") - total("tokenizer.encode", pre)
    out["training.mlm_step_ms"] = (1e3 * ratio(mlm_work, count(TAPE, pre)), "ms")
    dev_eval = total("training._dev_loss", ft) + total("training._dev_rouge_l", ft)
    ft_work = (total("training.finetune") - total("training.encode_pairs", ft) - dev_eval
               - total("assembly.checkpoint_hash", ft))
    out["training.finetune_step_ms"] = (1e3 * ratio(ft_work, count(TAPE, ft)), "ms")
    out["training.adam_ms_per_step"] = per_call_ms("training.adam_step")
    out["training.dev_eval_s"] = ((total("training._dev_loss", in_round)
                                   + total("training._dev_rouge_l", in_round)) / n_rounds, "s")

    enc = sel("tokenizer.encode")
    out["tokenizer.encode_us_per_call"] = (1e6 * ratio(float(dur[enc].sum()), int(enc.sum())), "us")
    out["tokenizer.encode_calls"] = (count("tokenizer.encode", in_round) / n_rounds, "count")
    per_text = []
    for r in round_roots:
        texts = [tr.attrs[s] for s in np.flatnonzero(enc & (root == r))]
        per_text.append(ratio(len(texts), len(set(texts))))
    out["tokenizer.encode_calls_per_text"] = (
        float(np.mean(per_text)) if per_text else 0.0, "ratio")
    out["tokenizer.train_bpe_ms"] = per_call_ms("tokenizer.train_bpe")

    greedy, beam = "decoding.greedy_decode_batch", "decoding.beam_search_hypothesis"
    out["decoding.greedy_ms_per_example"] = (1e3 * ratio(total(greedy), attr_sum(greedy, 0)), "ms")
    out["decoding.beam_ms_per_example"] = (1e3 * ratio(total(beam), attr_sum(beam, 0)), "ms")
    logits = "model.EncoderDecoderModel.decode_logits"
    out["decoding.decode_logits_calls"] = (count(logits, in_round) / n_rounds, "count")
    searching = ctx[greedy] | ctx[beam]
    positions = sum(tr.attrs[s] for s in np.flatnonzero(sel(logits) & searching))
    tokens = attr_sum(greedy, 1) + attr_sum(beam, 1)
    out["decoding.positions_per_token"] = (ratio(float(positions), tokens), "ratio")

    out["rouge.corpus_rouge_ms_per_pair"] = (
        1e3 * ratio(total("rouge.corpus_rouge"), attr_sum("rouge.corpus_rouge")), "ms")
    out["assembly.assemble_ms"] = per_call_ms("assembly.assemble")
    out["assembly.save_ms"] = per_call_ms("assembly.save_checkpoint")
    out["assembly.load_ms"] = per_call_ms("assembly.load_checkpoint")
    out["assembly.checkpoint_hash_calls"] = (
        count("assembly.checkpoint_hash", in_round) / n_rounds, "count")
    out["corpus.split_ms"] = per_call_ms("corpus.split")
    out["corpus.load_jsonl_ms"] = per_call_ms("corpus.load_jsonl")
    out["synthetic.generate_ms"] = per_call_ms("synthetic.generate_corpus")

    cell = ctx["experiment._run_cell"]
    n_cells = count("experiment._run_cell")
    out["experiment.prepare_s"] = ((total("experiment._prepare_splits", in_round)
                                    + total("experiment._prepare_vocab", in_round)) / n_rounds, "s")
    out["experiment.pretrain_s"] = (total("experiment._prepare_encoder", in_round) / n_rounds, "s")
    out["experiment.cell_finetune_s"] = (ratio(total("training.finetune", cell), n_cells), "s")
    out["experiment.cell_decode_s"] = (ratio(total("experiment._decode_test", cell), n_cells), "s")
    out["experiment.cell_score_s"] = (ratio(total("rouge.corpus_rouge", cell), n_cells), "s")

    layer_of = np.array([n.split(".", 1)[0] for n in tr.names] or [""])
    span_layer = layer_of[name] if len(name) else np.array([], dtype=layer_of.dtype)
    for layer in LAYERS:
        m = (span_layer == layer) & in_round
        out[f"{layer}.self_s"] = (float(self_time[m].sum()) / n_rounds, "s")
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    tr = Tracer()
    return [(k, unit) for k, (_, unit) in derive_metrics(tr).items()]

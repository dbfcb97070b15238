import gc
import inspect
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ref
from gradcheck import fd_grad, rel_err
from warmsum import tensor as T
from warmsum.assembly import AssemblyMode, assemble, fresh_params
from warmsum.errors import DataError, ShapeMismatchError
from warmsum.model import EncoderDecoderModel, EncoderMlm, ModelConfig
from warmsum.tokenizer import BOS, EOS, PAD
from warmsum.training import OptimizerState, _mask_batch


def analytic_grads(build, tensors):
    for t in tensors:
        t.grad = None
    with T.Tape():
        loss = build()
        T.backward(loss)
    return [t.grad.copy() for t in tensors]


def check_op_gradient(build, tensors, tol=1e-4):
    grads = analytic_grads(build, tensors)
    for t, g in zip(tensors, grads):
        numeric = fd_grad(lambda: build().item(), t)
        assert rel_err(g, numeric) < tol, f"gradient mismatch for {t.shape}"


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_example():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.normal(size=(3, 4)))
    b = T.Tensor(rng.normal(size=(4, 2)))
    check_op_gradient(lambda: ref.sum_all(T.matmul(a, b)), [a, b], tol=1e-6)


def test_matmul_batched_and_stacked_gradients():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.normal(size=(2, 3, 4)))
    b2 = T.Tensor(rng.normal(size=(4, 5)))
    check_op_gradient(lambda: ref.sum_all(T.matmul(a, b2)), [a, b2])
    b3 = T.Tensor(rng.normal(size=(2, 4, 5)))
    check_op_gradient(lambda: ref.sum_all(T.matmul(a, b3)), [a, b3])


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = ref.softmax(T.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_direct_formula():
    out = ref.softmax(T.Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_no_overflow():
    out = ref.softmax(T.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(xs):
    out = ref.softmax(T.Tensor(xs)).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > 0) and np.all(out < 1 + 1e-12)


def test_softmax_gradient():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(size=(3, 5)))
    w = rng.normal(size=(3, 5))
    check_op_gradient(lambda: ref.dot(ref.softmax(x, axis=-1), w), [x])


def test_attention_row_with_every_key_masked_matches_the_reference_chain(monkeypatch):
    rng = np.random.default_rng(15)
    q, k = T.Tensor(rng.normal(size=(2, 2, 3, 4))), T.Tensor(rng.normal(size=(2, 2, 3, 4)))
    mask = np.zeros((2, 1, 1, 3))
    mask[0, ..., 2] = -1e9  # one key masked: its probability is 0.0
    mask[1] = -1e9  # every key masked: the row's probabilities come from its scores
    w = rng.normal(size=(2, 2, 3, 3))
    runs = []
    for reference in (False, True):
        q.grad = k.grad = None
        with monkeypatch.context() as patch:
            if reference:
                ref.install(patch)
            with T.Tape():
                out = T.attention_probs(q, k, 0.5, mask)
                T.backward(ref.dot(out, w))
        runs.append((out.data.tobytes(), q.grad.tobytes(), k.grad.tobytes()))
    assert runs[0] == runs[1]
    assert np.all(out.data[1] > 0.0) and np.all(out.data[0, ..., 2] == 0.0)


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_is_zero():
    x = T.Tensor([[5.0, 5.0, 5.0, 5.0]])
    g = T.Tensor(np.ones(4))
    b = T.Tensor(np.zeros(4))
    out = ref.layer_norm(x, g, b, eps=1e-12)
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_row():
    out = ref.layer_norm(T.Tensor([[1.0, 3.0]]), T.Tensor(np.ones(2)),
                         T.Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_mean_and_variance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 9))
    out = ref.layer_norm(T.Tensor(x), T.Tensor(np.ones(9)), T.Tensor(np.zeros(9))).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(2, 6)))
    g = T.Tensor(rng.normal(size=6) + 1.0)
    b = T.Tensor(rng.normal(size=6))
    w = rng.normal(size=(2, 6))
    check_op_gradient(lambda: ref.dot(ref.layer_norm(x, g, b, eps=1e-8), w), [x, g, b], tol=1e-5)


# ---------------------------------------------------------------------------
# cross_entropy


def _cross_entropy(logits, targets):
    """The loss of [n, V] logits and [n] targets; read as [2, n / 2, V] logits and
    [2, n / 2] targets, they must give the same loss and gradient bit for bit."""
    runs = []
    for lead in (targets.shape, (2, -1)):
        x = T.Tensor(logits.reshape(*lead, logits.shape[-1]))
        with T.Tape():
            loss = T.cross_entropy(x, targets.reshape(x.shape[:-1]), ignore_id=-1)
            T.backward(loss)
        runs.append((loss.data.tobytes(), x.grad.tobytes()))
    assert runs[0] == runs[1]
    return loss.item()


def test_cross_entropy_uniform_logits():
    loss = _cross_entropy(np.zeros((4, 4)), np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)


def test_cross_entropy_peaked_logits():
    logits = np.full((2, 5), -30.0)
    logits[0, 1] = 30.0
    logits[1, 4] = 30.0
    assert _cross_entropy(logits, np.array([1, 4])) < 1e-12


def test_cross_entropy_ignored_positions_match_subbatch():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 6))
    targets = rng.integers(0, 6, size=8)
    targets[4:] = -1
    full = _cross_entropy(logits, targets)
    sub = _cross_entropy(logits[:4], targets[:4])
    assert full == pytest.approx(sub, rel=1e-12)


def test_cross_entropy_all_ignored_is_empty_loss():
    for shape in ((2, 3), (2, 1, 3)):
        with pytest.raises(DataError, match="empty loss"):
            T.cross_entropy(T.Tensor(np.zeros(shape)), np.full(shape[:-1], -1), ignore_id=-1)


def test_cross_entropy_rejects_targets_of_another_shape():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3, 4\) and \(6,\)"):
        T.cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.zeros(6), ignore_id=-1)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(6)
    for lead in ((6,), (2, 3)):
        logits = T.Tensor(rng.normal(size=(*lead, 7)))
        targets = np.array([0, 3, -1, 6, 2, 5]).reshape(lead)
        check_op_gradient(lambda: T.cross_entropy(logits, targets, ignore_id=-1), [logits])


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3))
    with T.Tape():
        T.backward(ref.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_softmax_conservation():
    x = T.Tensor(np.random.default_rng(7).normal(size=(4, 5)))
    with T.Tape():
        T.backward(ref.sum_all(ref.softmax(x, axis=-1)))
    assert np.all(np.abs(x.grad) < 1e-12)


def test_backward_twice_without_reset_errors():
    x = T.Tensor([1.0, 2.0])
    with T.Tape():
        loss = ref.sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError, match="replayed"):
            T.backward(loss)
    assert np.array_equal(x.grad, np.ones(2))  # the refused replay added nothing


def test_tape_frees_its_graph_when_the_block_ends():
    x = T.Tensor([1.0, 2.0])
    gc.disable()  # only reference counting may free the graph
    try:
        with T.Tape() as tape:
            hidden = T.gelu(ref.scale(x, 2.0))
            loss = ref.sum_all(hidden)
            T.backward(loss)
            assert len(tape) == 3
        intermediate = weakref.ref(hidden.data)
        del hidden, loss
        assert intermediate() is None
    finally:
        gc.enable()
    assert len(tape) == 0 and x.grad is not None


def _consume(op, out, rng):
    """One op the model applies to a product it does not keep."""
    if op == "add_layer_norm":
        d = out.shape[-1]
        return T.add_layer_norm(T.Tensor(rng.normal(size=out.shape)), out,
                                T.Tensor(np.ones(d)), T.Tensor(np.zeros(d)))
    if op == "merge_heads":
        return T.merge_heads(out)
    return T.cross_entropy(out, rng.integers(0, out.shape[-1], size=out.shape[:-1]))


@pytest.mark.parametrize("op", ["add_layer_norm", "merge_heads", "cross_entropy"])
def test_an_op_output_that_no_rule_captured_is_freed_during_forward(op):
    # the sublayer output fed to add_layer_norm, attn @ v before merge_heads, the logits
    a, b = T.Tensor(np.ones((2, 2, 3, 5))), T.Tensor(np.ones((2, 2, 5, 4)))
    grads = []
    gc.disable()  # only reference counting may free the output
    try:
        for keep in (True, False):
            rng = np.random.default_rng(17)
            a.data, b.data = rng.normal(size=a.shape), rng.normal(size=b.shape)
            a.grad = b.grad = None
            with T.Tape():
                out = T.matmul(a, b)
                product = weakref.ref(out.data)
                y = _consume(op, out, rng)
                if not keep:
                    del out
                    assert product() is None
                T.backward(y if y.ndim == 0 else ref.dot(y, rng.normal(size=y.shape)))
            grads.append((a.grad.tobytes(), b.grad.tobytes()))
    finally:
        gc.enable()
    assert grads[0] == grads[1]  # the freed output's gradient still reaches its inputs


def _captured(rule):
    """What a backward rule holds, through the closures it calls."""
    for cell in rule.__closure__ or ():
        value = cell.cell_contents
        if inspect.isfunction(value):
            yield from _captured(value)
        else:
            yield value


def _model_and_batch(kind):
    """A model of 2-layer stacks with dropout 0.1, its arena, and one training batch."""
    cfg = ModelConfig(vocab_size=24, d_model=16, n_heads=2, d_ff=32, n_enc_layers=2,
                      n_dec_layers=2 if kind == "encoder_decoder" else 0, max_positions=16,
                      dropout=0.1)
    data = np.random.default_rng(18)
    if kind == "encoder_decoder":
        model = EncoderDecoderModel.from_checkpoint(
            assemble(None, AssemblyMode.RND2RND, cfg, seed=18))
        src, tgt = data.integers(5, 24, size=(3, 9)), data.integers(5, 24, size=(3, 6))
        src[:, 0], src[:, -1], tgt[:, 0], tgt[:, -1] = BOS, EOS, BOS, EOS
        src[1, 5:], tgt[2, 4:] = PAD, PAD
        tgt[2, 3] = EOS
    else:
        params = {n: T.Tensor(a) for n, a in fresh_params(cfg, "encoder_mlm", 18).items()}
        model = EncoderMlm(cfg, params)
        src, tgt = _mask_batch(data.integers(5, 24, size=(3, 9)), 24, 0.3, data)
    state = OptimizerState(model.params)
    return model, state, src, tgt


@pytest.mark.parametrize("kind", ["encoder_decoder", "encoder_mlm"])
def test_backward_frees_every_saved_array_and_intermediate_gradient(monkeypatch, kind):
    model, state, src, tgt = _model_and_batch(kind)
    with monkeypatch.context() as patch:
        ref.install(patch)
        model.train(np.random.default_rng(19))
        with T.Tape():
            T.backward(model.forward_loss(src, tgt))
    expected = state.grad.copy()
    state.zero_grad()

    intermediate = []
    accumulate = T._GradSlot.accumulate_grad

    def probed(slot, g):
        accumulate(slot, g)
        if not isinstance(slot, T.Tensor):
            intermediate.append(weakref.ref(slot.grad))

    monkeypatch.setattr(T._GradSlot, "accumulate_grad", probed)
    params = {id(p) for p in model.params.values()}
    model.train(np.random.default_rng(19))
    gc.disable()  # only reference counting may free the graph
    try:
        with T.Tape() as tape:
            loss = model.forward_loss(src, tgt)
            saved = []
            for _, _, rule in tape._nodes:
                for value in _captured(rule):
                    if isinstance(value, T.Tensor):
                        assert id(value) in params, f"{rule.__qualname__} holds an op output"
                    elif isinstance(value, np.ndarray) and not any(
                            np.shares_memory(value, held) for held in (state.data, src, tgt)):
                        saved.append(weakref.ref(value))
            del rule, value  # the test's own references
            recorded = len(tape)
            T.backward(loss)
            assert len(tape) == recorded
            assert saved and all(r() is None for r in saved)
            assert intermediate and all(r() is None for r in intermediate)
    finally:
        gc.enable()
    # leaves still hold their gradients, as views of the arena
    assert all(np.shares_memory(p.grad, state.grad) for p in model.params.values())
    assert state.grad.tobytes() == expected.tobytes()


def test_backward_after_the_block_ends_errors():
    x = T.Tensor([1.0, 2.0])
    with T.Tape():
        loss = ref.sum_all(x)
    with pytest.raises(RuntimeError, match="closed"):
        T.backward(loss)
    assert x.grad is None


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0])
    with T.Tape():
        y = ref.scale(x, 2.0)
        with pytest.raises(ShapeMismatchError):
            T.backward(y)


def test_an_op_on_a_constant_records_and_the_constant_gets_its_gradient():
    x, const = T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]])
    with T.Tape() as tape:
        T.backward(ref.sum_all(T.matmul(x, const)))
        assert len(tape) == 2
    assert x.grad.tolist() == [[3.0, 4.0]]
    assert const.grad.tolist() == [[1.0], [2.0]]


def test_backward_without_tape_errors():
    x = T.Tensor([1.0])
    loss = ref.sum_all(x)  # no tape active
    with pytest.raises(RuntimeError, match="tape"):
        T.backward(loss)


@pytest.mark.parametrize("op", ["add", "add_layer_norm"])
def test_inputs_given_one_gradient_array_keep_their_own_buffers(op):
    # add returns (g, g) and add_layer_norm (dx, dx): one array for both inputs
    rng = np.random.default_rng(16)
    x, y = T.Tensor(rng.normal(size=(2, 3, 4))), T.Tensor(rng.normal(size=(2, 3, 4)))
    gain, bias = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    with T.Tape():
        out = ref.add(x, y) if op == "add" else T.add_layer_norm(x, y, gain, bias)
        T.backward(ref.dot(out, rng.normal(size=(2, 3, 4))))
    assert np.array_equal(x.grad, y.grad) and not np.shares_memory(x.grad, y.grad)
    before = y.grad.copy()
    x.grad += 1.0
    assert np.array_equal(y.grad, before)


def test_backward_fanout_accumulates_both_paths():
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))

    def build():
        y = T.gelu(x)  # y feeds two consumers
        return ref.add(ref.dot(ref.softmax(y, axis=-1), w), ref.dot(y, w + 1.0))

    check_op_gradient(build, [x])


# ---------------------------------------------------------------------------
# remaining ops


def test_add_bias_over_last_axis_gradient():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.normal(size=(2, 3, 4)))
    b = T.Tensor(rng.normal(size=4))
    check_op_gradient(lambda: ref.sum_all(ref.add(x, b)), [x, b])


def test_add_rejects_general_broadcasting():
    with pytest.raises(ShapeMismatchError):
        ref.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 1))))


def test_scale_and_add_const():
    x = T.Tensor([[1.0, -2.0]])
    out = ref.add_const(ref.scale(x, 3.0), np.array([10.0, 20.0]))
    assert out.data.tolist() == [[13.0, 14.0]]
    with T.Tape():
        T.backward(ref.sum_all(ref.add_const(ref.scale(x, 3.0), np.array([10.0, 20.0]))))
    assert np.array_equal(x.grad, np.full((1, 2), 3.0))


def test_gelu_gradients():
    rng = np.random.default_rng(10)
    x = T.Tensor(rng.normal(size=(4, 4)))
    w = rng.normal(size=(4, 4))
    check_op_gradient(lambda: ref.dot(T.gelu(x), w), [x])


def test_embedding_lookup_gather_and_scatter():
    table = T.Tensor(np.arange(12.0).reshape(4, 3))
    ids = np.array([[1, 1, 3]])
    out = T.embedding_lookup(table, ids)
    assert out.data.shape == (1, 3, 3)
    assert np.array_equal(out.data[0, 0], table.data[1])
    with T.Tape():
        T.backward(ref.sum_all(T.embedding_lookup(table, ids)))
    expected = np.zeros((4, 3))
    expected[1] = 2.0  # the repeated id accumulates both contributions
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_embedding_lookup_rejects_bad_ids():
    table = T.Tensor(np.zeros((4, 3)))
    with pytest.raises(DataError):
        T.embedding_lookup(table, np.array([4]))


@pytest.mark.parametrize("batch", [1, 5, 8, 16, 32])
def test_position_lookup_matches_embedding_lookup_bit_for_bit(batch):
    rng = np.random.default_rng(batch)
    table = T.Tensor(rng.normal(size=(40, 32)))
    w = rng.normal(size=(batch, 34, 32))
    start = 3
    ids = np.broadcast_to(np.arange(start, start + 34), (batch, 34))
    assert T.position_lookup(table, start, batch, 34).data.tobytes() == \
        T.embedding_lookup(table, ids).data.tobytes()
    grads = []
    for lookup in (lambda: T.position_lookup(table, start, batch, 34),
                   lambda: T.embedding_lookup(table, ids)):
        table.grad = None
        with T.Tape():
            T.backward(ref.dot(lookup(), w))
        grads.append(table.grad.tobytes())
    assert grads[0] == grads[1]


def test_position_lookup_rejects_positions_past_the_table():
    table = T.Tensor(np.zeros((4, 3)))
    with pytest.raises(DataError):
        T.position_lookup(table, 2, 1, 3)
    with pytest.raises(DataError):
        T.position_lookup(table, -1, 1, 2)


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(11)
    x = T.Tensor(np.ones((50, 50)))
    out = T.dropout(x, 0.3, rng).data
    zeros = (out == 0).mean()
    assert abs(zeros - 0.3) < 0.03
    kept = out[out != 0]
    assert np.allclose(kept, 1.0 / 0.7)


def test_dropout_gradient_with_fixed_mask():
    x = T.Tensor(np.random.default_rng(12).normal(size=(3, 3)))

    def build():
        return ref.sum_all(T.dropout(x, 0.4, np.random.default_rng(99)))

    check_op_gradient(build, [x])


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(14)
    x = T.Tensor(rng.normal(size=(2, 3, 4)))
    w = rng.normal(size=(4, 3, 2))
    check_op_gradient(lambda: ref.dot(T.transpose(x, (2, 1, 0)), w), [x])
    check_op_gradient(lambda: ref.dot(ref.reshape(x, (6, 4)), w.reshape(6, 4)), [x])


def test_nested_tapes_rejected():
    with T.Tape():
        with pytest.raises(RuntimeError, match="nest"):
            with T.Tape():
                pass

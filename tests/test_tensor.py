import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import fd_grad, rel_err
from warmsum import tensor as T
from warmsum.errors import DataError, NumericError, ShapeMismatchError


def analytic_grads(build, tensors):
    for t in tensors:
        t.zero_grad()
    with T.Tape():
        loss = build()
        T.backward(loss)
    return [t.grad.copy() for t in tensors]


def check_op_gradient(build, tensors, tol=1e-4):
    grads = analytic_grads(build, tensors)
    for t, g in zip(tensors, grads):
        numeric = fd_grad(lambda: build().item(), t)
        assert rel_err(g, numeric) < tol, f"gradient mismatch for {t.name or t.shape}"


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
    a = T.parameter(rng.normal(size=(3, 4)), "a")
    b = T.parameter(rng.normal(size=(4, 2)), "b")
    check_op_gradient(lambda: T.sum_all(T.matmul(a, b)), [a, b], tol=1e-6)


def test_matmul_batched_and_stacked_gradients():
    rng = np.random.default_rng(1)
    a = T.parameter(rng.normal(size=(2, 3, 4)), "a")
    b2 = T.parameter(rng.normal(size=(4, 5)), "b2")
    check_op_gradient(lambda: T.sum_all(T.matmul(a, b2)), [a, b2])
    b3 = T.parameter(rng.normal(size=(2, 4, 5)), "b3")
    check_op_gradient(lambda: T.sum_all(T.matmul(a, b3)), [a, b3])


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_direct_formula():
    out = T.softmax(T.Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_no_overflow():
    out = T.softmax(T.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(xs):
    out = T.softmax(T.Tensor(xs)).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > 0) and np.all(out < 1 + 1e-12)


def _dot(t, w):
    # weighted sum against a constant matrix, so gradients are nontrivial
    flat = T.reshape(t, (1, int(np.prod(t.shape))))
    return T.sum_all(T.matmul(flat, T.Tensor(w.reshape(-1, 1))))


def test_softmax_gradient():
    rng = np.random.default_rng(2)
    x = T.parameter(rng.normal(size=(3, 5)), "x")
    w = rng.normal(size=(3, 5))
    check_op_gradient(lambda: _dot(T.softmax(x, axis=-1), w), [x])


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row_is_zero():
    x = T.Tensor([[5.0, 5.0, 5.0, 5.0]])
    g = T.Tensor(np.ones(4))
    b = T.Tensor(np.zeros(4))
    out = T.layer_norm(x, g, b, eps=1e-12)
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_row():
    out = T.layer_norm(T.Tensor([[1.0, 3.0]]), T.Tensor(np.ones(2)),
                       T.Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_mean_and_variance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 9))
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(9)), T.Tensor(np.zeros(9))).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(4)
    x = T.parameter(rng.normal(size=(2, 6)), "x")
    g = T.parameter(rng.normal(size=6) + 1.0, "gain")
    b = T.parameter(rng.normal(size=6), "bias")
    w = rng.normal(size=(2, 6))
    check_op_gradient(lambda: _dot(T.layer_norm(x, g, b, eps=1e-8), w), [x, g, b], tol=1e-5)


# ---------------------------------------------------------------------------
# cross_entropy


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((3, 4)))
    loss = T.cross_entropy(logits, np.array([0, 1, 2]))
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-12)


def test_cross_entropy_peaked_logits():
    logits = np.full((2, 5), -30.0)
    logits[0, 1] = 30.0
    logits[1, 4] = 30.0
    loss = T.cross_entropy(T.Tensor(logits), np.array([1, 4]))
    assert loss.item() < 1e-12


def test_cross_entropy_ignored_positions_match_subbatch():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 6))
    targets = rng.integers(0, 6, size=8)
    targets[4:] = -1
    full = T.cross_entropy(T.Tensor(logits), targets, ignore_id=-1)
    sub = T.cross_entropy(T.Tensor(logits[:4]), targets[:4], ignore_id=-1)
    assert full.item() == pytest.approx(sub.item(), rel=1e-12)


def test_cross_entropy_all_ignored_is_empty_loss():
    with pytest.raises(DataError, match="empty loss"):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([-1, -1]), ignore_id=-1)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(6)
    logits = T.parameter(rng.normal(size=(5, 7)), "logits")
    targets = np.array([0, 3, -1, 6, 2])
    check_op_gradient(lambda: T.cross_entropy(logits, targets, ignore_id=-1), [logits])


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = T.parameter(np.arange(6.0).reshape(2, 3))
    with T.Tape():
        T.backward(T.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_softmax_conservation():
    x = T.parameter(np.random.default_rng(7).normal(size=(4, 5)))
    with T.Tape():
        T.backward(T.sum_all(T.softmax(x, axis=-1)))
    assert np.all(np.abs(x.grad) < 1e-12)


def test_backward_twice_without_reset_errors():
    x = T.parameter([1.0, 2.0])
    with T.Tape():
        loss = T.sum_all(x)
        T.backward(loss)
        with pytest.raises(RuntimeError, match="replayed"):
            T.backward(loss)
    assert np.array_equal(x.grad, np.ones(2))  # the refused replay added nothing


def test_backward_requires_scalar():
    x = T.parameter([1.0, 2.0])
    with T.Tape():
        y = T.scale(x, 2.0)
        with pytest.raises(ShapeMismatchError):
            T.backward(y)


def test_backward_without_tape_errors():
    x = T.parameter([1.0])
    loss = T.sum_all(x)  # no tape active
    with pytest.raises(RuntimeError, match="tape"):
        T.backward(loss)


def test_backward_fanout_accumulates_both_paths():
    rng = np.random.default_rng(8)
    x = T.parameter(rng.normal(size=(3, 3)), "x")
    w = rng.normal(size=(3, 3))

    def build():
        y = T.gelu(x)  # y feeds two consumers
        return T.add(_dot(T.softmax(y, axis=-1), w), _dot(y, w + 1.0))

    check_op_gradient(build, [x])


# ---------------------------------------------------------------------------
# remaining ops


def test_add_bias_over_last_axis_gradient():
    rng = np.random.default_rng(9)
    x = T.parameter(rng.normal(size=(2, 3, 4)), "x")
    b = T.parameter(rng.normal(size=4), "b")
    check_op_gradient(lambda: T.sum_all(T.add(x, b)), [x, b])


def test_add_rejects_general_broadcasting():
    with pytest.raises(ShapeMismatchError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 1))))


def test_scale_and_add_const():
    x = T.parameter([[1.0, -2.0]])
    out = T.add_const(T.scale(x, 3.0), np.array([10.0, 20.0]))
    assert out.data.tolist() == [[13.0, 14.0]]
    with T.Tape():
        T.backward(T.sum_all(T.add_const(T.scale(x, 3.0), np.array([10.0, 20.0]))))
    assert np.array_equal(x.grad, np.full((1, 2), 3.0))


def test_gelu_gradients():
    rng = np.random.default_rng(10)
    x = T.parameter(rng.normal(size=(4, 4)), "x")
    w = rng.normal(size=(4, 4))
    check_op_gradient(lambda: _dot(T.gelu(x), w), [x])


def test_embedding_lookup_gather_and_scatter():
    table = T.parameter(np.arange(12.0).reshape(4, 3), "emb")
    ids = np.array([[1, 1, 3]])
    out = T.embedding_lookup(table, ids)
    assert out.data.shape == (1, 3, 3)
    assert np.array_equal(out.data[0, 0], table.data[1])
    with T.Tape():
        T.backward(T.sum_all(T.embedding_lookup(table, ids)))
    expected = np.zeros((4, 3))
    expected[1] = 2.0  # the repeated id accumulates both contributions
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_embedding_lookup_rejects_bad_ids():
    table = T.parameter(np.zeros((4, 3)))
    with pytest.raises(DataError):
        T.embedding_lookup(table, np.array([4]))


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(11)
    x = T.Tensor(np.ones((50, 50)))
    out = T.dropout(x, 0.3, rng).data
    zeros = (out == 0).mean()
    assert abs(zeros - 0.3) < 0.03
    kept = out[out != 0]
    assert np.allclose(kept, 1.0 / 0.7)


def test_dropout_gradient_with_fixed_mask():
    x = T.parameter(np.random.default_rng(12).normal(size=(3, 3)), "x")

    def build():
        return T.sum_all(T.dropout(x, 0.4, np.random.default_rng(99)))

    check_op_gradient(build, [x])


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(14)
    x = T.parameter(rng.normal(size=(2, 3, 4)), "x")
    w = rng.normal(size=(4, 3, 2))
    check_op_gradient(lambda: _dot(T.transpose(x, (2, 1, 0)), w), [x])
    check_op_gradient(lambda: _dot(T.reshape(x, (6, 4)), w.reshape(6, 4)), [x])


def test_debug_checks_flag_catches_nonfinite():
    T.set_debug_checks(True)
    try:
        with pytest.raises(NumericError):
            T.scale(T.Tensor([np.inf]), 1.0)
    finally:
        T.set_debug_checks(False)


def test_nested_tapes_rejected():
    with T.Tape():
        with pytest.raises(RuntimeError, match="nest"):
            with T.Tape():
                pass

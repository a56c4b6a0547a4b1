"""Finite-difference verification of every autodiff operation."""

import numpy as np
import pytest

from cookworld.neural import autodiff as ad


def finite_diff(fn, arrays, h=1e-6):
    """Central-difference gradients of fn(*arrays) -> scalar."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(*arrays)
            flat[i] = orig - h
            down = fn(*arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, shapes, seed=0, tol=1e-6):
    """build's gradients against central differences, and its result outside
    a tape against the taped one: the same bits, with no graph recorded."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]

    def scalar(*arrs):
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrs]
        out = build(*tensors)
        return float((out.data * np.cos(np.arange(out.data.size)).reshape(out.data.shape)).sum())

    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    bare = build(*[ad.Tensor(a, requires_grad=True) for a in arrays])
    with ad.tape():
        out = build(*tensors)
        assert bare.data.dtype == out.data.dtype and bare.data.shape == out.data.shape, build.__name__
        assert bare.data.tobytes() == out.data.tobytes(), build.__name__
        with pytest.raises(ad.DetachedGraphError):
            bare.backward()
        weight = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
        loss = ad.sum_all(ad.mul(out, ad.constant(weight)))
        loss.backward()
    numeric = finite_diff(scalar, arrays)
    for t, num in zip(tensors, numeric):
        analytic = t.grad if t.grad is not None else np.zeros_like(num)
        assert np.allclose(analytic, num, rtol=1e-4, atol=tol), build.__name__


def test_add_broadcast():
    check_op(lambda a, b: ad.add(a, b), [(3, 4), (1, 4)])


def test_sub():
    check_op(lambda a, b: ad.sub(a, b), [(3, 4), (3, 4)])


def test_mul_broadcast():
    check_op(lambda a, b: ad.mul(a, b), [(3, 4), (1, 4)])


def test_scale():
    check_op(lambda a: ad.scale(a, -1.7), [(2, 5)])


def test_matmul():
    check_op(lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)])


def test_matmul_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((4, 2))))


def test_matmul_skips_untracked_operands():
    g, a, b = np.ones((2, 2)), ad.constant(np.ones((2, 3))), ad.Tensor(np.ones((3, 2)), requires_grad=True)
    assert [t for t, _ in ad._matmul_grad(g, a, b)] == [b]
    assert [t for t, _ in ad._matmul_grad(np.ones((3, 3)), b, a)] == [b]


def test_grouped_matmul():
    # rows 0-1 by the first weight, rows 2-4 by the second, row 5 by the first again
    check_op(
        lambda x, w, v: ad.grouped_matmul(x, [w, v, w], [0, 2, 5, 6]), [(6, 3), (3, 4), (3, 4)]
    )


def test_relu():
    check_op(lambda a: ad.relu(a), [(4, 4)], seed=3)


def test_row_block():
    check_op(lambda a: ad.row_block(a, slice(1, 3)), [(4, 3)])
    # two blocks of one tensor, as the scorer takes scorer.w1's input blocks
    check_op(lambda a: ad.add(ad.row_block(a, slice(0, 2)), ad.row_block(a, slice(2, 4))), [(4, 3)])


def test_sum_all():
    check_op(lambda a: ad.sum_all(a), [(3, 4)])


def test_gather_rows():
    check_op(lambda a: ad.gather_rows(a, [0, 2, 2, 1]), [(4, 3)])


# two sequences of one row, two of three rows, one of four: three lengths at once
ATTENTION_SPANS = [(0, 2, 1), (2, 8, 3), (8, 12, 4)]


@pytest.mark.parametrize("spans", [ATTENTION_SPANS, [(0, 5, 5)], [(0, 3, 1)], [(0, 4, 2), (4, 7, 3)]],
                         ids=["three-lengths", "one-sequence", "length-one", "two-lengths"])
def test_attention(spans):
    rows = spans[-1][1]
    check_op(lambda q, k, v: ad.attention(q, k, v, spans, 0.7), [(rows, 3), (rows, 3), (rows, 3)])


def test_attention_skips_untracked_operands():
    rng = np.random.default_rng(4)
    q, v = (ad.Tensor(rng.standard_normal((7, 2)), requires_grad=True) for _ in range(2))
    k = ad.constant(rng.standard_normal((7, 2)))
    with ad.tape():
        ad.sum_all(ad.attention(q, k, v, [(0, 4, 2), (4, 7, 3)], 0.5)).backward()
    assert q.grad is not None and v.grad is not None and k.grad is None


def reference_attention(q, k, v, factor):
    """The padded text encoder's attention chain over one text, in numpy:
    the batched q kᵀ, the scale, the max-shifted softmax, the product with v."""
    q3, k3, v3 = (x.reshape(1, *x.shape) for x in (q, k, v))
    scores = q3 @ np.swapaxes(k3, -1, -2)
    scores = scores * factor
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return (probs @ v3).reshape(q.shape)


@pytest.mark.parametrize("width", [1, 2, 5, 9])
def test_one_span_attention_is_bit_equal_to_the_padded_chain(width):
    rng = np.random.default_rng(width)
    q, k, v = (rng.standard_normal((width, 8)) for _ in range(3))
    out = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), [(0, width, width)], 1 / np.sqrt(8))
    assert out.data.tobytes() == reference_attention(q, k, v, 1 / np.sqrt(8)).tobytes()


def test_packed_attention_equals_padded_masked_attention():
    """Each sequence of a packed span attends as it would padded to the
    longest, with the padded keys masked out of the softmax."""
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((12, 3)) for _ in range(3))
    packed = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), ATTENTION_SPANS, 0.7).data
    starts, lengths = [0, 1, 2, 5, 8], [1, 1, 3, 3, 4]
    for start, length in zip(starts, lengths):
        pad = np.zeros((4, 3))
        qp, kp, vp = (np.r_[x[start:start + length], pad[length:]] for x in (q, k, v))
        scores = qp @ kp.T * 0.7 + np.where(np.arange(4) < length, 0.0, -np.inf)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (probs / probs.sum(axis=-1, keepdims=True) @ vp)[:length]
        assert np.allclose(packed[start:start + length], expected, rtol=0, atol=1e-12)


def test_segment_sum_sorted():
    check_op(lambda a: ad.segment_sum(a, [0, 0, 1, 2, 2, 2], 3), [(6, 3)])


def test_segment_sum_unsorted_with_empty_segments():
    ids = [3, 0, 3, 1, 0]  # segments 2 and 4 receive no row
    check_op(lambda a: ad.segment_sum(a, ids, 5), [(5, 2)])
    x = np.arange(10.0).reshape(5, 2)
    out = ad.segment_sum(ad.constant(x), ids, 5).data
    assert np.array_equal(out, [x[1] + x[4], x[3], [0, 0], x[0] + x[2], [0, 0]])


def test_segment_sum_many_small_segments():
    rng = np.random.default_rng(7)
    ids = rng.permutation(np.r_[np.arange(40), [5, 17, 30]])  # three segments get two rows
    check_op(lambda a: ad.segment_sum(a, ids, 45), [(43, 2)])  # segments 40..44 receive no row
    x = rng.standard_normal((43, 3))
    expected = np.zeros((45, 3))
    for row, seg in enumerate(ids):  # each segment sums its rows in their original order
        expected[seg] += x[row]
    assert np.array_equal(ad.segment_sum(ad.constant(x), ids, 45).data, expected)


@pytest.mark.parametrize("shape", [(20, 1), (7, 2), (20, 64), (0, 3), (5, 2, 3)])
def test_segment_sum_one_segment_adds_rows_in_order(shape):
    check_op(lambda a: ad.segment_sum(a, np.zeros(len(a.data), dtype=np.intp), 1), [shape])
    rng = np.random.default_rng(9)
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-1, 1, shape))
    for rows in (x, -np.abs(x) * 0.0, np.asfortranarray(x)):
        expected = np.zeros((1,) + shape[1:])
        for row in rows:
            expected[0] += row
        out = ad.segment_sum(ad.constant(rows), np.zeros(len(rows), dtype=np.intp), 1).data
        assert out.tobytes() == expected.tobytes()


def test_gather_rows_repeated_indices():
    indices = np.random.default_rng(8).permutation(np.r_[np.arange(20), [3, 3, 9]])
    check_op(lambda a: ad.gather_rows(a, indices), [(21, 2)])


def test_segment_sum_no_rows():
    out = ad.segment_sum(ad.constant(np.zeros((0, 3))), [], 2)
    assert np.array_equal(out.data, np.zeros((2, 3)))


def test_layer_norm():
    check_op(lambda x, g, b: ad.layer_norm(x, g, b), [(4, 6), (1, 6), (1, 6)])


def test_layer_norm_is_bit_equal_to_mean_and_var():
    rng = np.random.default_rng(7)
    for rows in range(1, 51):
        d = int(rng.choice([6, 8, 16, 64]))
        x = rng.uniform(0.01, 100.0) * rng.standard_normal((rows, d)) + rng.uniform(-10, 10)
        gain, bias = rng.standard_normal((1, d)), rng.standard_normal((1, d))
        out = ad.layer_norm(ad.constant(x), ad.constant(gain), ad.constant(bias)).data
        mu, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        assert np.array_equal(out, (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias), rows


def test_affine():
    check_op(lambda x, w, b: ad.affine(x, w, b), [(3, 4), (4, 2), (1, 2)])


def test_shared_parent_accumulates():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with ad.tape():
        out = ad.sum_all(ad.mul(x, x))  # d/dx x^2 = 2x through two paths
        out.backward()
    assert np.allclose(x.grad, [[2.0, 4.0]])


def test_gradients_sum_in_reverse_creation_order_of_consumers():
    """A result's gradient is complete when the reverse walk reaches it: its
    consumers' contributions, summed in reverse order of their creation.
    Here the four sums round differently in creation order."""
    leaf = ad.Tensor(np.ones((1, 3)), requires_grad=True)
    factors = (1.0, 1e16, 3.0, -1e16)
    with ad.tape():
        x = ad.add(leaf, ad.constant(np.zeros((1, 3))))  # a taped result, as text_tensor's x
        consumers = [ad.scale(x, f) for f in factors]
        total = consumers[0]
        for consumer in consumers[1:]:
            total = ad.add(total, consumer)
        ad.sum_all(total).backward()

    def summed(order):
        grad = None
        for f in order:
            grad = np.full((1, 3), f) if grad is None else grad + np.full((1, 3), f)
        return grad.tobytes()

    assert summed(factors) != summed(factors[::-1])
    assert leaf.grad.tobytes() == summed(factors[::-1])


def test_residual_over_one_row_keeps_each_gradient():
    # add() hands one gradient array to both parents, and affine() hands it on
    # to a one-row bias; accumulating into h must not change the bias gradient
    check_op(lambda h, w, b: ad.add(h, ad.affine(h, w, b)), [(1, 3), (3, 3), (1, 3)])


def test_zero_loss_zero_gradients():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.tape():
        loss = ad.scale(ad.sum_all(x), 0.0)
        loss.backward()
    assert np.allclose(x.grad, 0.0)


def test_detached_graph_error():
    plain = ad.Tensor(np.ones((2, 2)))
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    untaped = ad.sum_all(ad.mul(x, x))
    with ad.tape():
        first = ad.sum_all(ad.mul(x, x))
    for tensor in (plain, untaped, first):
        with pytest.raises(ad.DetachedGraphError):
            tensor.backward()
    # a result of a closed tape is not on the next one, whichever entry it had
    with ad.tape():
        second = ad.sum_all(ad.mul(x, x))
        with pytest.raises(ad.DetachedGraphError):
            first.backward()
        second.backward()
    assert np.array_equal(x.grad, [[2.0, 2.0], [2.0, 2.0]])


def test_ops_outside_a_tape_record_nothing():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    assert ad.relu(x)._entry is None and ad._TAPE is None
    with ad.tape():
        taped = ad.relu(x)
        entries = ad._TAPE
        with ad.tape():  # a nested tape is a fresh one
            assert ad._TAPE == []
        again = ad.relu(x)
    assert [entry[0] for entry in entries] == [taped, again]
    assert ad.relu(x)._entry is None and ad._TAPE is None

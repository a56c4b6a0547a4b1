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
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]

    def scalar(*arrs):
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrs]
        out = build(*tensors)
        return float((out.data * np.cos(np.arange(out.data.size)).reshape(out.data.shape)).sum())

    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
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


def test_matmul_batched():
    check_op(lambda a, b: ad.matmul(a, b), [(2, 3, 4), (2, 4, 5)])


def test_matmul_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((4, 2))))


def test_grouped_matmul():
    # rows 0-1 by the first weight, rows 2-4 by the second, row 5 by the first again
    check_op(
        lambda x, w, v: ad.grouped_matmul(x, [w, v, w], [0, 2, 5, 6]), [(6, 3), (3, 4), (3, 4)]
    )


def test_transpose():
    check_op(lambda a: ad.transpose(a), [(3, 4)])


def test_transpose_batched():
    check_op(lambda a: ad.transpose(a), [(2, 3, 4)])


def test_reshape():
    check_op(lambda a: ad.reshape(a, (2, 3, 2)), [(6, 2)])


def test_relu():
    check_op(lambda a: ad.relu(a), [(4, 4)], seed=3)


def test_concat_cols():
    check_op(lambda a, b: ad.concat_cols([a, b]), [(3, 2), (3, 4)])


def test_gather_rows():
    check_op(lambda a: ad.gather_rows(a, [0, 2, 2, 1]), [(4, 3)])


def test_softmax_rows():
    check_op(lambda a: ad.softmax_rows(a), [(3, 5)])


def test_softmax_rows_batched():
    check_op(lambda a: ad.softmax_rows(a), [(2, 3, 4)])


def test_softmax_rows_masked_keys():
    mask = np.zeros((2, 1, 4))
    mask[0, 0, 3] = mask[1, 0, 1:] = -np.inf  # last key of text 0, all but one of text 1
    check_op(lambda a: ad.softmax_rows(ad.add(a, ad.constant(mask))), [(2, 3, 4)])
    out = ad.softmax_rows(ad.constant(mask + np.ones((2, 3, 4))))
    assert np.array_equal(out.data[1], np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))


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


def test_gather_rows_repeated_indices():
    indices = np.random.default_rng(8).permutation(np.r_[np.arange(20), [3, 3, 9]])
    check_op(lambda a: ad.gather_rows(a, indices), [(21, 2)])


def test_segment_sum_no_rows():
    out = ad.segment_sum(ad.constant(np.zeros((0, 3))), [], 2)
    assert np.array_equal(out.data, np.zeros((2, 3)))


def test_layer_norm():
    check_op(lambda x, g, b: ad.layer_norm(x, g, b), [(4, 6), (1, 6), (1, 6)])


def test_affine():
    check_op(lambda x, w, b: ad.affine(x, w, b), [(3, 4), (4, 2), (1, 2)])


def test_shared_parent_accumulates():
    x = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = ad.sum_all(ad.mul(x, x))  # d/dx x^2 = 2x through two paths
    out.backward()
    assert np.allclose(x.grad, [[2.0, 4.0]])


def test_residual_over_one_row_keeps_each_gradient():
    # add() hands one gradient array to both parents, and affine() hands it on
    # to a one-row bias; accumulating into h must not change the bias gradient
    check_op(lambda h, w, b: ad.add(h, ad.affine(h, w, b)), [(1, 3), (3, 3), (1, 3)])


def test_zero_loss_zero_gradients():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    loss = ad.scale(ad.sum_all(x), 0.0)
    loss.backward()
    assert np.allclose(x.grad, 0.0)


def test_detached_graph_error():
    plain = ad.Tensor(np.ones((2, 2)))
    with pytest.raises(ad.DetachedGraphError):
        plain.backward()
    with ad.no_grad():
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        out = ad.sum_all(ad.mul(x, x))
    with pytest.raises(ad.DetachedGraphError):
        out.backward()


def test_no_grad_blocks_recording():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.relu(x)
    assert out._parents == ()
    assert ad.grad_enabled()

"""Adam update semantics and the finite-difference oracle itself."""

import numpy as np
import pytest

from enecg.autodiff import Tensor, Tape, backward, mul, reduce_sum, sub
from enecg.errors import UsageError
from enecg.optim import Adam, finite_diff_grad


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_first_step_moves_by_about_lr():
    # f(w) = w^2 at w=1: g=2, m_hat=2, v_hat=4, step = lr * 2/(2+eps) ~ lr
    w = Tensor([1.0], requires_grad=True)
    w.grad = np.array([2.0])
    opt = Adam([w], lr=0.1)
    opt.step()
    assert abs((1.0 - w.data[0]) - 0.1) < 1e-8


def test_converges_on_convex_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=5)
    w = Tensor(rng.normal(size=5), requires_grad=True)
    opt = Adam([w], lr=0.05)
    loss = None
    for _ in range(500):
        w.zero_grad()
        with Tape() as tape:
            d = sub(w, Tensor(target))
            loss = reduce_sum(mul(d, d))
            backward(loss, tape)
        opt.step()
    assert loss.item() < 1e-6


def test_missing_grad_is_usage_error():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam([p])
    with pytest.raises(UsageError):
        opt.step()


def test_step_counter_increments():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam([p])
    for expected in (1, 2, 3):
        opt.step()
        assert opt.step_count == expected


def test_finite_diff_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    g = finite_diff_grad(lambda t: float(t.data.sum()), x)
    np.testing.assert_allclose(g.data, np.ones((2, 3)))


def test_finite_diff_of_square():
    x = Tensor([3.0])
    g = finite_diff_grad(lambda t: float(t.data[0] ** 2), x, h=1e-5)
    assert abs(g.data[0] - 6.0) < 1e-8


def test_finite_diff_restores_input():
    x = Tensor([1.0, 2.0])
    before = x.data.copy()
    finite_diff_grad(lambda t: float((t.data ** 3).sum()), x)
    np.testing.assert_array_equal(x.data, before)


def test_finite_diff_perturbs_a_transposed_view_in_place():
    # stacked head weights are views of transposed storage (adapters.stack_views)
    w = np.arange(6.0).reshape(2, 3)
    x = Tensor(np.zeros((2, 3)))
    x.data = np.ascontiguousarray(x.data.T).T
    g = finite_diff_grad(lambda t: float((t.data * w).sum()), x)
    np.testing.assert_allclose(g.data, w, rtol=1e-8)
    np.testing.assert_array_equal(x.data, np.zeros((2, 3)))


def test_finite_diff_requires_positive_step():
    with pytest.raises(UsageError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


def test_flat_adam_equals_a_per_tensor_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (5,), (2, 3, 2), (1,), (4, 1)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 3e-2, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):  # the per-tensor update, term by term
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            ref[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p.data, r)

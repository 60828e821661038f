"""Primitive forward values, gradient checks against central finite
differences, and tape semantics (accumulation, determinism, errors)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enecg import autodiff as ad
from enecg.autodiff import Tensor, Tape, backward
from enecg.errors import DimensionError, UsageError
from enecg.optim import finite_diff_grad


def grad_of(build, x, h=1e-5):
    """Analytic gradient of scalar build(x) w.r.t. x, plus the FD oracle."""
    x.requires_grad = True
    x.zero_grad()
    with Tape() as tape:
        out = build(x)
        backward(out, tape)
    analytic = x.grad.copy()
    x.requires_grad = False
    numeric = finite_diff_grad(lambda t: build(t).item(), x, h=h).data
    return analytic, numeric


def assert_close(a, b, rtol=1e-6, atol=1e-9):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert_close(ad.matmul(eye, m).data, [[3, 4], [5, 6]])


def test_matmul_row_times_column():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert_close(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.matmul(t, b)), a)
    assert_close(analytic, numeric)
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.matmul(a, t)), b)
    assert_close(analytic, numeric)


def test_matvec_and_dot_gradients():
    rng = np.random.default_rng(1)
    m = Tensor(rng.normal(size=(3, 5)))
    v = Tensor(rng.normal(size=5))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.matmul(m, t)), v)
    assert_close(analytic, numeric)
    w = Tensor(rng.normal(size=5))
    analytic, numeric = grad_of(lambda t: ad.matmul(t, w), v)
    assert_close(analytic, numeric)


def test_conv1d_identity_tap():
    x = Tensor([[1.0, 2.0, 3.0, 4.0]])
    k = Tensor([[[1.0, 0.0]]])
    assert_close(ad.conv1d(x, k, stride=1).data, [[1, 2, 3]])


def test_conv1d_strided_sum_kernel():
    x = Tensor([[1.0, 1.0, 1.0, 1.0]])
    k = Tensor([[[1.0, 1.0]]])
    assert_close(ad.conv1d(x, k, stride=2).data, [[2, 2]])


def test_conv1d_kernel_longer_than_signal():
    with pytest.raises(DimensionError):
        ad.conv1d(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 1, 5))))


def test_conv1d_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 16)))
    k = Tensor(rng.normal(size=(3, 2, 5)))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.conv1d(t, k, stride=2)), x)
    assert_close(analytic, numeric)
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.conv1d(x, t, stride=2)), k)
    assert_close(analytic, numeric)


def test_conv1d_batched_matches_per_sample():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(4, 2, 12))
    k = Tensor(rng.normal(size=(3, 2, 4)))
    batched = ad.conv1d(Tensor(xs), k, stride=2).data
    for i in range(4):
        single = ad.conv1d(Tensor(xs[i]), k, stride=2).data
        assert_close(batched[i], single, rtol=1e-12)


def test_relu_values():
    assert_close(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert_close(out.data, [1 / 3] * 3, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-700, max_value=700, allow_nan=False), min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    out = ad.softmax(Tensor(values), axis=0).data
    assert abs(out.sum() - 1.0) <= 1e-12
    assert (out >= 0).all()


def test_dft_magnitude_matches_naive_dft():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 32))
    bins = 10
    got = ad.dft_magnitude(Tensor(x), bins).data
    t = np.arange(32)
    for c in range(2):
        for b in range(bins):
            re = sum(x[c, i] * np.cos(2 * np.pi * b * i / 32) for i in t)
            im = -sum(x[c, i] * np.sin(2 * np.pi * b * i / 32) for i in t)
            assert abs(got[c, b] - np.hypot(re, im)) < 1e-9


def test_dft_magnitude_concentrates_sinusoid_energy():
    t = np.arange(64)
    f = 5
    x = np.sin(2 * np.pi * f * t / 64)[None, :]
    mags = ad.dft_magnitude(Tensor(x), 16).data[0]
    assert mags.argmax() == f
    others = np.delete(mags, f)
    assert mags[f] > 10 * others.max()


def test_dft_magnitude_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 16)))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.dft_magnitude(t, 6)), x)
    assert_close(analytic, numeric)


def test_mean_pool_and_max_pool_values():
    x = Tensor([[1.0, 3.0, 2.0, 2.0, 9.0, 0.0]])
    assert_close(ad.mean_pool(x, 2).data, [[2.0, 2.0, 4.5]])
    assert_close(ad.max_pool(x, 3).data, [[3.0, 9.0]])


def test_max_pool_routes_gradient_to_first_tie():
    x = Tensor([[2.0, 2.0, 1.0, 5.0]], requires_grad=True)
    with Tape() as tape:
        out = ad.reduce_sum(ad.max_pool(x, 2))
        backward(out, tape)
    assert_close(x.grad, [[1.0, 0.0, 0.0, 1.0]])


def test_pool_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 12)))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.mean_pool(t, 3)), x)
    assert_close(analytic, numeric)
    # keep away from max ties
    y = Tensor(np.linspace(0, 1, 12).reshape(1, 12) + rng.normal(size=(1, 12)) * 0.01)
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.max_pool(t, 4)), y)
    assert_close(analytic, numeric)


def pool_oracle(x, window, count, reduce):
    """Python-loop reference: ``reduce`` over each window of each row."""
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], count))
    for r, row in enumerate(rows):
        for j in range(count):
            out[r, j] = reduce(row[j * window:(j + 1) * window].tolist())
    return out.reshape(x.shape[:-1] + (count,))


def pool_cases(window, rng):
    """(x, count) pairs over 1-D, 2-D and 3-D inputs, with and without a
    trailing remainder, and with an explicit count below T // window."""
    for lead in ((), (3,), (2, 3)):
        for count, extra in ((7, 0), (7, window - 1), (4, 2 * window + 1)):
            yield rng.normal(size=lead + (count * window + extra,)), count


@pytest.mark.parametrize("window", range(1, 21))
def test_pools_match_python_loop_oracle(window):
    rng = np.random.default_rng(window)
    for x, count in pool_cases(window, rng):
        got = ad.mean_pool(Tensor(x), window, count=count).data
        want = pool_oracle(x, window, count, lambda w: math.fsum(w) / len(w))
        # relative to each window's mean, floored by its mean magnitude where samples cancel
        scale = np.maximum(np.abs(want), pool_oracle(np.abs(x), window, count, lambda w: sum(w) / len(w)))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        got = ad.max_pool(Tensor(x), window, count=count).data
        assert np.array_equal(got, pool_oracle(x, window, count, max))
    x = rng.normal(size=(2, 5 * window + window // 2))
    assert np.array_equal(ad.max_pool(Tensor(x), window).data, pool_oracle(x, window, 5, max))


@pytest.mark.parametrize("shape", [(23,), (2, 3, 23)])
def test_pool_gradients_with_remainder_match_finite_differences(shape):
    rng = np.random.default_rng(len(shape))
    weights = Tensor(rng.normal(size=shape[:-1] + (5,)))
    for pool, count in ((ad.mean_pool, 5), (ad.max_pool, 5), (ad.mean_pool, None), (ad.max_pool, None)):
        x = Tensor(rng.normal(size=shape))
        build = lambda t: ad.reduce_sum(ad.mul(pool(t, 4, count=count), weights))
        analytic, numeric = grad_of(build, x)
        assert_close(analytic, numeric)
        # 5 windows of 4 use 20 of the 23 samples; the rest get no gradient
        assert np.all(analytic[..., 20:] == 0.0)


def test_elementwise_and_reduction_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 4)))
    w1 = Tensor(rng.normal(size=(3, 4)))
    w2 = Tensor(rng.normal(size=(3, 4)))
    cases = [
        lambda t: ad.reduce_sum(ad.mul(t, t)),
        lambda t: ad.reduce_mean(ad.relu(t)),
        lambda t: ad.reduce_sum(ad.softplus(t)),
        lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=1), w1)),
        lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t, axis=1), w2)),
        lambda t: ad.reduce_sum(ad.sqrt(ad.add(ad.mul(t, t), 1.0))),
        lambda t: ad.reduce_sum(ad.take_rows(t, [2, 0])),
        lambda t: ad.reduce_sum(ad.concat([t, ad.mul(t, 2.0)], axis=1)),
        lambda t: ad.reduce_sum(ad.reshape(t, (4, 3))),
        lambda t: ad.reduce_sum(ad.transpose(t)),
        lambda t: ad.reduce_sum(ad.sub(t, ad.reduce_mean(t, axis=1, keepdims=True))),
    ]
    for build in cases:
        analytic, numeric = grad_of(build, x)
        assert_close(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_backward_of_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(x)
        backward(y, tape)
    assert_close(x.grad, [1.0, 1.0, 1.0])


def test_backward_of_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
        backward(y, tape)
    assert_close(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar_from_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, 2.0)
    with pytest.raises(UsageError):
        backward(y, tape)  # not a scalar
    stray = Tensor([3.0])
    with pytest.raises(UsageError):
        backward(stray, tape)  # not on the tape


def test_backward_fills_leaves_only():
    w = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    x = Tensor([0.3, -0.7], requires_grad=True)
    const = Tensor([2.0, 1.0])
    with Tape() as tape:
        y = ad.reduce_sum(ad.mul(ad.relu(ad.matmul(w, x)), const))
        backward(y, tape)
    assert tape.nodes and all(node.output.grad is None for node in tape.nodes)
    assert const.grad is None
    pre = w.data @ x.data
    g = const.data * (pre > 0)
    assert_close(w.grad, np.outer(g, x.data))
    assert_close(x.grad, w.data.T @ g)


def test_output_of_an_earlier_tape_is_a_leaf_of_the_next():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    with Tape():
        h = ad.mul(x, 3.0)
    with Tape() as tape:
        y = ad.reduce_sum(ad.mul(h, h))
        backward(y, tape)
    assert_close(h.grad, 2 * h.data, rtol=0, atol=0)
    assert x.grad is None


def test_gradient_accumulation_is_additive():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    with Tape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
        backward(y, tape)
        once = x.grad.copy()
        backward(y, tape)
    assert_close(x.grad, 2 * once, rtol=0)


def test_backward_is_deterministic():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    runs = []
    for _ in range(2):
        x.zero_grad()
        with Tape() as tape:
            y = ad.reduce_sum(ad.softmax(ad.matmul(x, x), axis=1))
            backward(y, tape)
        runs.append(x.grad.copy())
    assert (runs[0] == runs[1]).all()


def test_no_grad_suspends_recording():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with ad.no_grad():
            ad.mul(x, x)
        assert len(tape) == 0


def test_nonfinite_construction_rejected():
    with pytest.raises(UsageError):
        Tensor([np.nan])


def test_empty_axis_rejected():
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros((2, 0))), axis=1)

"""Primitive forward values, gradient checks against central finite
differences, and tape semantics (accumulation, determinism, errors)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enecg import autodiff as ad
from enecg import tasks as tk
from enecg.autodiff import Tensor, Tape, backward
from enecg.errors import DimensionError, UsageError
from enecg.gating import ensemble_combine
from enecg.optim import finite_diff_grad
from oracles import (
    conv1d_einsum, dft_magnitude_tables, dft_magnitude_tables_backward,
    ensemble_combine_composed, patch_stats_composition, sigmoid_masked, task_loss_composed,
)


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


def lora_operands(rng, lead=(), batch=(3,), d=4, k=5, r=2):
    """x, w0, a, b, bias of one LoRA layer, optionally stacked over ``lead``."""
    shapes = [lead + batch + (k,), lead + (d, k), lead + (r, k), lead + (d, r), lead + (d,)]
    return [Tensor(rng.normal(size=s)) for s in shapes]


@pytest.mark.parametrize("lead,batch", [((), ()), ((), (3,)), ((2,), (3,))],
                         ids=["sample", "batch", "stacked"])
def test_lora_linear_gradients_match_finite_differences(lead, batch):
    rng = np.random.default_rng(21)
    operands = lora_operands(rng, lead, batch)
    weight = Tensor(rng.normal(size=lead + batch + (4,)))
    for i in range(5):  # x, w0 (trainable, as in the sample-aware gate), a, b, bias
        def build(t):
            args = list(operands)
            args[i] = t
            return ad.reduce_sum(ad.mul(ad.lora_linear(*args), weight))

        analytic, numeric = grad_of(build, operands[i])
        assert_close(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_lora_linear_matches_its_composition_bit_for_bit():
    rng = np.random.default_rng(22)
    x, w0, a, b, bias = lora_operands(rng, batch=(6,), d=7, k=5, r=3)
    weight = Tensor(rng.normal(size=(6, 7)))
    grads = []
    for fused in (True, False):
        for t in (x, w0, a, b, bias):
            t.requires_grad, t.grad = True, None
        with Tape() as tape:
            if fused:
                out = ad.lora_linear(x, w0, a, b, bias)
            else:
                base = ad.matmul(x, ad.transpose(w0))
                low = ad.matmul(ad.matmul(x, ad.transpose(a)), ad.transpose(b))
                out = ad.add(ad.add(base, low), bias)
            backward(ad.reduce_sum(ad.mul(out, weight)), tape)
        grads.append([out.data] + [t.grad for t in (x, w0, a, b, bias)])
    for fused, composed in zip(*grads):
        np.testing.assert_array_equal(fused, composed)


# The shapes at which the layer's transposed weights must be contiguous
# copies to agree with the composition: the gate's first layer on a
# 32-row batch, the arrhythmia heads' stacked output layer, and the first
# and output layers of four width-1 tasks' heads stacked on a task axis.
@pytest.mark.parametrize("lead,batch,d,k", [((), (32,), 64, 250), ((3,), (32,), 15, 64),
                                            ((4, 3), (32,), 64, 64), ((4, 3), (32,), 1, 64)],
                         ids=["gate-250-to-64", "stacked-64-to-15", "tasks-64-to-64", "tasks-64-to-1"])
def test_lora_linear_matches_its_composition_bit_for_bit_at_model_shapes(lead, batch, d, k):
    rng = np.random.default_rng(26)
    operands = lora_operands(rng, lead, batch, d=d, k=k, r=4)
    weight = Tensor(rng.normal(size=lead + batch + (d,)))
    for t in operands:
        t.requires_grad = True
    with Tape() as tape:
        out = ad.lora_linear(*operands)
        backward(ad.reduce_sum(ad.mul(out, weight)), tape)
    fused = [out.data] + [t.grad for t in operands]
    for n in np.ndindex(*lead):   # each expert of a stack alone, as a composition
        x, w0, a, b, bias = (Tensor(t.data[n], requires_grad=True) for t in operands)
        with Tape() as tape:
            low = ad.matmul(ad.matmul(x, ad.transpose(a)), ad.transpose(b))
            composed = ad.add(ad.add(ad.matmul(x, ad.transpose(w0)), low), bias)
            backward(ad.reduce_sum(ad.mul(composed, Tensor(weight.data[n]))), tape)
        for got, want in zip(fused, [composed.data] + [t.grad for t in (x, w0, a, b, bias)]):
            np.testing.assert_array_equal(got[n], want)


@pytest.mark.parametrize("lead", [(), (3,), (4, 3)], ids=["plain", "stacked", "tasks"])
def test_lora_linear_with_its_product_formed_equals_it_in_the_node(lead):
    """A fit forms x @ w0.T once over every row and gathers a batch's rows:
    output and gradients equal the node's own product bit for bit."""
    rng = np.random.default_rng(27)
    x, w0, a, b, bias = lora_operands(rng, lead, (40,), d=64, k=64, r=4)
    weight = Tensor(rng.normal(size=lead + (12, 64)))
    rows = rng.permutation(40)[:12]
    product = x.data @ np.ascontiguousarray(w0.data.swapaxes(-1, -2))
    results = []
    for xw0 in (None, product[..., rows, :]):
        for t in (a, b, bias):
            t.requires_grad, t.grad = True, None
        with Tape() as tape:
            out = ad.lora_linear(Tensor(x.data[..., rows, :]), w0, a, b, bias, xw0)
            backward(ad.reduce_sum(ad.mul(out, weight)), tape)
        results.append([out.data, a.grad, b.grad, bias.grad])
    for formed, in_node in zip(*results):
        np.testing.assert_array_equal(formed, in_node)


@pytest.mark.parametrize("lead,batch,k", [((), (6,), 5), ((3,), (32,), 64), ((4, 3), (32,), 64)],
                         ids=["plain", "stacked", "tasks"])
def test_lora_linear_with_relu_equals_a_relu_node_after_it_bit_for_bit(lead, batch, k):
    """A head's hidden layer takes its ReLU in the node: output and every
    gradient equal those of a ``relu`` node after the layer, bit for bit."""
    rng = np.random.default_rng(29)
    operands = lora_operands(rng, lead, batch, d=64, k=k, r=4)
    operands[4].data[..., ::7] = 0.0        # outputs on the kink, where the mask is 0
    operands[0].data[..., :] = np.where(rng.random(operands[0].shape) < 0.1, 0.0, operands[0].data)
    weight = Tensor(rng.normal(size=lead + batch + (64,)))
    results = []
    for fused in (True, False):
        for t in operands:
            t.requires_grad, t.grad = True, None
        with Tape() as tape:
            out = (ad.lora_linear(*operands, relu=True) if fused
                   else ad.relu(ad.lora_linear(*operands)))
            backward(ad.reduce_sum(ad.mul(out, weight)), tape)
        results.append([out.data] + [t.grad for t in operands])
    assert (results[0][0] == 0.0).any()
    for fused, separate in zip(*results):
        np.testing.assert_array_equal(fused, separate)


def test_lora_linear_with_relu_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    operands = lora_operands(rng, (2,), (3,))
    weight = Tensor(rng.normal(size=(2, 3, 4)))
    for i in range(5):
        def build(t):
            args = list(operands)
            args[i] = t
            return ad.reduce_sum(ad.mul(ad.lora_linear(*args, relu=True), weight))

        analytic, numeric = grad_of(build, operands[i])
        assert_close(analytic, numeric, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("p_shape,q_shape", [((32, 1), (1, 64)), ((4, 3, 32, 1), (4, 3, 1, 64)),
                                             ((4, 3, 32, 4), (4, 3, 4, 64))],
                         ids=["plain", "tasks", "inner-4"])
def test_lora_backward_products_equal_numpys_matmul_bit_for_bit(p_shape, q_shape):
    """The width-1 output layer's rank-1 backward products take BLAS with a
    zero column appended: numpy's own bits, signed zeros and infinities
    included."""
    rng = np.random.default_rng(35)
    p, q = rng.normal(size=p_shape), rng.normal(size=q_shape)
    p.reshape(-1)[:5] = [0.0, -0.0, 3.0, np.inf, -2.0]
    q.reshape(-1)[:5] = [-0.0, 2.0, -0.0, 1.5, 1e-320]
    with np.errstate(invalid="ignore"):
        got, want = ad._matmul(p, q), p @ q
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_lora_linear_refuses_a_formed_product_of_a_trainable_w0_or_another_shape():
    rng = np.random.default_rng(28)
    x, w0, a, b, bias = lora_operands(rng, batch=(3,))
    xw0 = x.data @ w0.data.T
    with pytest.raises(UsageError, match="frozen w0"):
        ad.lora_linear(x, Tensor(w0.data, requires_grad=True), a, b, bias, xw0)
    with pytest.raises(UsageError, match="frozen w0"):
        ad.lora_linear(x, w0, a, b, bias, xw0[:2])


def test_stacked_lora_linear_equals_each_expert_alone():
    rng = np.random.default_rng(23)
    stacked = lora_operands(rng, lead=(3,), batch=(5,))
    out = ad.lora_linear(*stacked).data
    for n in range(3):
        np.testing.assert_array_equal(out[n], ad.lora_linear(*[t.data[n] for t in stacked]).data)


def test_lora_linear_shape_errors_name_every_operand():
    rng = np.random.default_rng(24)
    x, w0, a, b, bias = lora_operands(rng, lead=(2,), batch=(3,))
    cases = [
        (x.data[0], w0, a, b, bias),            # unstacked input to a stacked layer
        (x.data[:1], w0, a, b, bias),           # wrong expert count
        (x, w0, a.data[0], b, bias),            # one factor unstacked
        (x, w0, a, b.data[:, :, :1], bias),     # rank mismatch
        (x, w0, a, b, bias.data[0]),            # bias unstacked
        (x.data[..., :4], w0, a, b, bias),      # input width
        (x, w0.data[0, 0], a, b, bias),         # w0 a vector
    ]
    for args in cases:
        with pytest.raises(DimensionError, match="do not form a layer"):
            ad.lora_linear(*args)


def test_transpose_permutes_axes_and_back():
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(3, 2, 4)))
    out = ad.transpose(x, (1, 0, 2))
    np.testing.assert_array_equal(out.data, x.data.transpose(1, 0, 2))
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.mul(ad.transpose(t, (1, 0, 2)), w)), x)
    assert_close(analytic, numeric)
    with pytest.raises(DimensionError, match="permutation"):
        ad.transpose(x, (0, 0, 1))
    with pytest.raises(DimensionError, match="2-D"):
        ad.transpose(x)


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


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_conv1d_gemm_forward_matches_einsum_oracle(lead, stride):
    rng = np.random.default_rng(stride)
    for t_len, width in ((40, 5), (23, 8), (8, 8)):
        x = rng.normal(size=lead + (4, t_len))
        k = rng.normal(size=(3, 4, width))
        got = ad.conv1d(Tensor(x), Tensor(k), stride=stride).data
        want = conv1d_einsum(x, k, stride)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


@pytest.mark.parametrize("t_len,bins", [(32, 10), (32, 17), (32, 18), (33, 17), (33, 18),
                                        (64, 64), (7, 7), (512, 64)])
def test_dft_magnitude_fft_forward_matches_table_oracle(t_len, bins):
    # bins > T//2 + 1 takes the full FFT; an odd T has no Nyquist bin
    x = np.random.default_rng(t_len + bins).normal(size=(2, 3, t_len))
    got = ad.dft_magnitude(Tensor(x), bins).data
    want = dft_magnitude_tables(x, bins)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("t_len,bins", [(32, 10), (32, 17), (32, 18), (33, 17), (33, 18),
                                        (7, 7), (512, 64)])
def test_dft_magnitude_fft_backward_matches_table_oracle(t_len, bins):
    # integer samples summing to zero give an exactly zero DC bin in both
    # forms, where the subgradient is 0
    rng = np.random.default_rng(t_len * bins)
    x = rng.integers(-9, 10, size=(2, 3, t_len)).astype(float)
    x[..., -1] -= x.sum(axis=-1)
    g = rng.normal(size=(2, 3, bins))
    probe = Tensor(x, requires_grad=True)
    with Tape() as tape:
        mags = ad.dft_magnitude(probe, bins)
        backward(ad.reduce_sum(ad.mul(mags, Tensor(g))), tape)
    assert (mags.data[..., 0] == 0).all() and (mags.data[..., 1:] > 0).all()
    want = dft_magnitude_tables_backward(x, bins, g)
    assert np.abs(probe.grad - want).max() <= 1e-12 * np.abs(want).max()


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


def patch_stats_cases():
    """(x, window, count): a remainder, an explicit count below T // window,
    ties at the max and min, a constant window (zero variance) and a
    near-constant one whose variance rounds below zero."""
    rng = np.random.default_rng(8)
    yield rng.normal(size=(2, 3, 23)), 4, None
    yield rng.normal(size=(17,)), 3, 4
    tied = rng.normal(size=(3, 20))
    tied[:, 0:2] = tied[:, 2:4].max() + 1.0     # a max tie in window 0
    tied[:, 5:7] = tied[:, 4:8].min() - 1.0     # a min tie in window 1
    tied[:, 8:12] = 0.5                         # a constant window
    yield tied, 4, None
    near = 0.3 + 1e-9 * rng.normal(size=(8, 40))
    view = near.reshape(8, 10, 4)
    mean = view @ np.ones(4) / 4
    assert (np.square(view) @ np.ones(4) / 4 - mean * mean < 0).any()
    yield near, 4, None


def patch_stats_grads(build, x, weights):
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = build(x)
        backward(ad.reduce_sum(ad.mul(out, weights)), tape)
    return out.data, x.grad


@pytest.mark.parametrize("case", range(4))
def test_patch_stats_equals_its_composition(case):
    x, window, count = list(patch_stats_cases())[case]
    weights = Tensor(np.random.default_rng(case).normal(size=ad.patch_stats(Tensor(x), window, count).shape))
    out, grad = patch_stats_grads(lambda t: ad.patch_stats(t, window, count), x, weights)
    want_out, want_grad = patch_stats_grads(lambda t: patch_stats_composition(t, window, count), x, weights)
    assert np.array_equal(out, want_out)
    assert np.abs(grad - want_grad).max() <= 1e-10 * np.abs(want_grad).max()


def test_patch_stats_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    for shape, window, count in (((2, 23), 4, None), ((3, 17), 3, 4)):
        # spread samples apart so no window max or min is near a tie
        x = Tensor(rng.permutation(np.prod(shape)).reshape(shape) * 0.1 + rng.normal(size=shape) * 0.01)
        weights = Tensor(rng.normal(size=ad.patch_stats(x, window, count).shape))
        analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.mul(ad.patch_stats(t, window, count), weights)), x)
        assert_close(analytic, numeric)
        used = window * (count or shape[-1] // window)
        assert np.all(analytic[..., used:] == 0.0)


def test_patch_stats_routes_ties_like_max_pool():
    # window 0 ties its max; window 1 is constant, so its max and min are
    # both its first sample
    x = Tensor([[2.0, 2.0, 1.0, 3.0, 3.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        stats = ad.patch_stats(x, 3)
        assert_close(stats.data[:, 4:], [[2.0, 3.0, 1.0, 3.0]])
        backward(ad.reduce_sum(ad.mul(stats, Tensor([[0, 0, 0, 0, 1, 1, 1, 1]]))), tape)
    assert_close(x.grad, [[1.0, 0.0, 1.0, 2.0, 0.0, 0.0]])


def test_line_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    base = Tensor(rng.normal(size=(1, 3, 5)))
    direction = rng.normal(size=(1, 3, 5))
    alphas = np.array([0.125, 0.5, 0.875, 1.25])
    weights = Tensor(rng.normal(size=(4, 3, 5)))
    points = ad.line(base, direction, alphas)
    np.testing.assert_array_equal(points.data, base.data + alphas.reshape(-1, 1, 1) * direction)
    analytic, numeric = grad_of(lambda t: ad.reduce_sum(ad.mul(ad.line(t, direction, alphas), weights)),
                                base)
    assert_close(analytic, numeric)
    with pytest.raises(DimensionError, match="leading axis of 1"):
        ad.line(Tensor(rng.normal(size=(2, 5))), rng.normal(size=(2, 5)), alphas)
    with pytest.raises(DimensionError, match="direction of its shape"):
        ad.line(base, direction[..., :4], alphas)


def line_cases():
    """(base, direction, window, count, second): ties at a window's max and
    min that hold at every point, a constant window, a length that is not a
    multiple of the window, points that a second op also reads, and a
    nonzero base with a steep direction, whose window maxima and minima move
    from sample to sample between the first point and the last."""
    rng = np.random.default_rng(31)
    base, direction = rng.normal(size=(1, 3, 20)), rng.normal(size=(1, 3, 20))
    for arr, step in ((base, 1.0), (direction, 0.25)):
        arr[..., 0:2] = arr[..., 2:4].max() + 3.0 * step    # a max tie in window 0
        arr[..., 5:7] = arr[..., 4:8].min() - 3.0 * step    # a min tie in window 1
        arr[..., 8:12] = 0.5 * step                         # a constant window
    yield base, direction, 4, None, False
    yield rng.normal(size=(1, 2, 3, 23)), rng.normal(size=(1, 2, 3, 23)), 4, None, False
    yield rng.normal(size=(1, 17)), rng.normal(size=(1, 17)), 3, 4, True
    yield base, direction, 4, None, True
    base, direction = rng.normal(size=(1, 2, 12)), 8.0 * rng.normal(size=(1, 2, 12))
    # window 0 at alphas 0.1..0.9: max at sample 0, 2, 1 (a tie with 2 and 3), 3, 3
    # and min at 3, 3, 0, 0, 0
    base[0, 0, :4], direction[0, 0, :4] = [1.0, 0.0, 0.5, -1.0], [-2.0, 1.0, 0.0, 3.0]
    yield base, direction, 4, None, False


@pytest.mark.parametrize("case", range(5), ids=["ties-and-constant", "remainder", "count-and-second-op",
                                                "ties-and-second-op", "moving-extremes"])
def test_patch_stats_on_a_line_equals_it_on_plain_points(case):
    base, direction, window, count, second = list(line_cases())[case]
    alphas = (np.arange(5) + 0.5) / 5
    other = Tensor(np.random.default_rng(32).normal(size=(5,) + base.shape[1:]))
    runs = []
    for on_line in (True, False):
        leaf = Tensor(base, requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, direction, alphas)
            if not on_line:
                points = Tensor(points.data, requires_grad=True)
            stats = ad.patch_stats(points, window, count)
            # on a line, the node differentiates straight into the base
            assert (tape.nodes[-1].inputs[0] is leaf) == on_line
            weights = np.random.default_rng(case).normal(size=stats.shape)
            loss = ad.reduce_sum(ad.mul(stats, Tensor(weights)))
            if second:
                loss = ad.add(loss, ad.reduce_sum(ad.mul(points, other)))
            backward(loss, tape)
        runs.append((stats.data, leaf.grad if on_line else points.grad.sum(axis=0, keepdims=True)))
    (out, grad), (want_out, want_grad) = runs
    # mean and std to rounding; max and min, and so their routing, bit for bit
    half = out.shape[-1] // 2
    assert np.array_equal(out[..., half:], want_out[..., half:])
    assert np.abs(out[..., :half] - want_out[..., :half]).max() <= 1e-12 * np.abs(want_out[..., :half]).max()
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_patch_stats_on_a_line_never_forms_its_points():
    # every case that no second op reads: the forward reads one lead row's
    # points at a time, and the backward the base and the direction
    alphas = (np.arange(5) + 0.5) / 5
    for base, direction, window, count, second in line_cases():
        if second:
            continue
        leaf = Tensor(base, requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, direction, alphas)
            backward(ad.reduce_sum(ad.patch_stats(points, window, count)), tape)
        assert points._points is None and leaf.grad is not None


def test_patch_stats_on_a_line_checks_its_windows_as_on_plain_points():
    base, direction = np.ones((1, 2, 10)), np.ones((1, 2, 10))
    for window, count, error in ((0, None, UsageError), (11, None, DimensionError),
                                 (2, 0, DimensionError), (3, 4, DimensionError)):
        for points in (ad.line(Tensor(base), direction, [0.5]), Tensor(base + 0.5 * direction)):
            with pytest.raises(error):
                ad.patch_stats(points, window, count)


def line_and_plain_points(base, direction, alphas, op, second=False):
    """``op``'s output and the base gradient of a random weighting of it, on
    ``line`` points and on the same points as a plain leaf, whose gradient
    is summed over the points; ``second`` makes a second op read the points."""
    other = Tensor(np.random.default_rng(32).normal(size=(len(alphas),) + base.shape[1:]))
    runs = []
    for on_line in (True, False):
        leaf = Tensor(base, requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, direction, alphas)
            if not on_line:
                points = Tensor(points.data, requires_grad=True)
            out = op(points)
            assert (tape.nodes[-1].inputs[0] is leaf) == on_line
            weights = np.random.default_rng(33).normal(size=out.shape)
            loss = ad.reduce_sum(ad.mul(out, Tensor(weights)))
            if second:
                loss = ad.add(loss, ad.reduce_sum(ad.mul(points, other)))
            backward(loss, tape)
        runs.append((out.data, leaf.grad if on_line else points.grad.sum(axis=0, keepdims=True)))
    return runs


def test_patch_stats_on_a_line_scans_the_extremes_it_cannot_infer():
    # windows 0 and 1 lead with two samples one ulp apart, whose points tie
    # at alphas 0.7 and 0.3 only, where the first-index max (min) is sample
    # 0 (3); window 2's max is sample 7 at every alpha but the largest,
    # which is listed neither first nor last
    d = np.nextafter(1.935, 2.0)
    base = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.0]])
    direction = np.array([[1.935, d, 0.0, -1.935, -d, 0.0, 1.0, 0.0, 0.0]])
    alphas = np.array([0.7, 0.1, 0.5, 0.9, 0.3])
    points = base + alphas[:, None] * direction
    assert (points[[0, 4], 0] == points[[0, 4], 1]).all() and (points[[1, 2, 3], 0] < points[[1, 2, 3], 1]).all()
    (out, grad), (want_out, want_grad) = line_and_plain_points(
        base, direction, alphas, lambda p: ad.patch_stats(p, 3))
    assert np.array_equal(out[..., 6:], want_out[..., 6:])      # max and min
    assert np.abs(out[..., :6] - want_out[..., :6]).max() <= 1e-12 * np.abs(want_out[..., :6]).max()
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_patch_stats_on_a_line_reads_ill_conditioned_windows_as_plain_points():
    # windows of variance 0 at every point: constant base and direction, small
    # (row 0), or large and nearly cancelling, to about 1e-3 at alpha 0.9 (row
    # 1). The window sums leave such a variance to rounding, so these windows
    # form their points; max and min get no weight, as their gradient sums in
    # another order
    base = np.repeat([[0.5, -2.0], [1e6, -7e5]], 4, axis=1)[None]
    direction = np.repeat([[0.125, 0.375], [-1e6 / 0.9 * (1 + 1e-9), 7e5 / 0.9 * (1 + 1e-9)]], 4, axis=1)[None]
    alphas = (np.arange(5) + 0.5) / 5
    weights = np.random.default_rng(38).normal(size=(5, 2, 8))
    weights[..., 4:] = 0.0
    runs = []
    for on_line in (True, False):
        leaf = Tensor(base, requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, direction, alphas)
            if not on_line:
                points = Tensor(points.data, requires_grad=True)
            stats = ad.patch_stats(points, 4)
            backward(ad.reduce_sum(ad.mul(stats, Tensor(weights))), tape)
        runs.append((stats.data, leaf.grad if on_line else points.grad.sum(axis=0, keepdims=True)))
    (out, grad), (want_out, want_grad) = runs
    assert (want_out[..., 2:4] == np.sqrt(1e-12)).all()      # the plain path's variance is 0
    assert np.array_equal(out, want_out) and np.array_equal(grad, want_grad)


def test_patch_stats_on_a_line_forms_no_slab_of_points():
    # an IG chunk of 128 points over a (1, 12, 2500) view from a baseline
    # constant per lead: the forward peaks below one lead row's points
    rng = np.random.default_rng(39)
    base = np.repeat(rng.normal(size=(1, 12, 1)), 2500, axis=-1)
    points = ad.line(Tensor(base), rng.normal(size=(1, 12, 2500)), (np.arange(128) + 0.5) / 128)
    tracemalloc.start()
    try:
        ad.patch_stats(points, 250)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2500 * 8


def test_line_primitives_accept_a_line_with_no_points_or_no_samples():
    for shape, steps in (((1, 3, 8), 0), ((1, 0, 8), 3)):
        leaf = Tensor(np.ones(shape), requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, np.ones(shape), np.linspace(0.0, 1.0, steps))
            stats, mags = ad.patch_stats(points, 4), ad.dft_magnitude(points, 3)
            backward(ad.add(ad.reduce_sum(stats), ad.reduce_sum(mags)), tape)
        assert stats.shape == (steps,) + shape[1:] and mags.shape == (steps,) + shape[1:-1] + (3,)
        assert np.array_equal(leaf.grad, np.zeros(shape))


def dft_line_cases():
    """(base, direction, bins, second): the rfft branch, the full-FFT branch
    (bins > T//2 + 1), a DC bin that is exactly 0 at every point (integer
    samples summing to 0, dyadic alphas), and points that a second op also
    reads."""
    rng = np.random.default_rng(34)
    yield rng.normal(size=(1, 3, 32)), rng.normal(size=(1, 3, 32)), 10, False
    yield rng.normal(size=(1, 2, 3, 33)), rng.normal(size=(1, 2, 3, 33)), 20, False
    ints = rng.integers(-9, 10, size=(2, 1, 3, 32)).astype(float)
    ints[..., -1] -= ints.sum(axis=-1)
    yield ints[0], ints[1], 12, True
    yield rng.normal(size=(1, 17)), rng.normal(size=(1, 17)), 12, True


@pytest.mark.parametrize("case", range(4), ids=["rfft", "fft", "zero-bin-and-second-op", "fft-and-second-op"])
def test_dft_magnitude_on_a_line_equals_it_on_plain_points(case):
    base, direction, bins, second = list(dft_line_cases())[case]
    (out, grad), (want_out, want_grad) = line_and_plain_points(
        base, direction, (np.arange(8) + 0.5) / 8, lambda p: ad.dft_magnitude(p, bins), second)
    if case == 2:
        assert (out[..., 0] == 0).all() and (want_out[..., 0] == 0).all() and (want_out[..., 1:] > 0).all()
    assert np.abs(out - want_out).max() <= 1e-12 * np.abs(want_out).max()
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


# (op on points, tape tag, base shape): each linear in its input and keeping
# the point axis, so on a line it runs once on the base and the direction
CARRIED = {
    "mean_pool": (lambda p: ad.mean_pool(p, 3, count=5), "mean_pool", (1, 2, 3, 17)),
    "conv1d": (lambda p: ad.conv1d(p, Tensor(np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)), stride=2),
               "conv1d", (1, 3, 21)),
    "take_rows": (lambda p: ad.take_rows(p, [2, 0, 2], axis=1), "take_rows", (1, 4, 6)),
    "reshape": (lambda p: ad.reshape(p, (p.shape[0], -1)), "reshape", (1, 3, 5)),
}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_op_on_a_line_equals_it_on_plain_points(name):
    op, tag, shape = CARRIED[name]
    rng = np.random.default_rng(35)
    base, direction = rng.normal(size=shape), rng.normal(size=shape)
    alphas = (np.arange(5) + 0.5) / 5
    runs = []
    for on_line in (True, False):
        leaf = Tensor(base, requires_grad=True)
        with Tape() as tape:
            points = ad.line(leaf, direction, alphas)
            if not on_line:
                points = Tensor(points.data, requires_grad=True)
            out = op(points)
            if on_line:
                # the op's node reads the line's base, and a line of its output follows
                assert [node.op for node in tape.nodes[-2:]] == [tag, "line"]
                assert tape.nodes[-2].inputs[0] is leaf and isinstance(out, ad._Line)
            weights = np.random.default_rng(36).normal(size=out.shape)
            backward(ad.reduce_sum(ad.mul(out, Tensor(weights))), tape)
        if on_line:
            assert points._points is None
        runs.append((out.data, leaf.grad if on_line else points.grad.sum(axis=0, keepdims=True)))
    (out, grad), (want_out, want_grad) = runs
    assert out.shape == want_out.shape
    assert np.abs(out - want_out).max() <= 1e-12 * np.abs(want_out).max()
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_kernels_with_a_gradient_and_a_gather_of_points_read_the_points():
    rng = np.random.default_rng(37)
    leaf = Tensor(rng.normal(size=(1, 3, 12)), requires_grad=True)
    kernels = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    with Tape() as tape:
        points = ad.line(leaf, rng.normal(size=(1, 3, 12)), [0.25, 0.5, 0.75])
        conv = ad.conv1d(points, kernels)
        assert tape.nodes[-1].op == "conv1d" and tape.nodes[-1].inputs[0] is points
        rows = ad.take_rows(points, [2, 0], axis=0)
        assert tape.nodes[-1].op == "take_rows" and tape.nodes[-1].inputs[0] is points
        backward(ad.add(ad.reduce_sum(ad.mul(conv, conv)), ad.reduce_sum(rows)), tape)
    assert points._points is not None
    assert not isinstance(conv, ad._Line) and not isinstance(rows, ad._Line)
    plain = Tensor(points.data)
    want = Tensor(kernels.data, requires_grad=True)
    with Tape() as tape:
        want_conv = ad.conv1d(plain, want)
        backward(ad.reduce_sum(ad.mul(want_conv, want_conv)), tape)
    assert np.array_equal(conv.data, want_conv.data) and np.array_equal(kernels.grad, want.grad)
    assert np.array_equal(rows.data, points.data[[2, 0]])


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


def _value_and_grads(build, arrays, scale):
    """``build``'s output and the gradients of ``scale * sum(output)`` with
    respect to fresh tensors of ``arrays``; a scale other than one makes
    the upstream gradient of the output something other than ones."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*leaves)
        backward(ad.reduce_sum(ad.mul(out, scale)), tape)
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("task_name", ["rr", "sex", "arrhythmia"])
def test_fused_task_losses_equal_their_composition_bit_for_bit(task_name):
    task = tk.task_by_name(task_name)
    rng = np.random.default_rng(3)
    n = 30      # not a power of two, so a division by n rounds
    # logits of both signs and far from zero, so both pieces of the stable sigmoid are taken
    logits = rng.normal(size=(n, task.output_dim)) * np.where(rng.random((n, 1)) < 0.2, 40.0, 2.0)
    if task.kind == "regression":
        targets = rng.normal(size=n)
    else:
        targets = rng.integers(0, max(task.output_dim, 2), size=n).astype(float)
    for scale in (1.0, 0.37):
        fused, composed = (_value_and_grads(loss, [logits], scale) for loss in (
            lambda t: tk.task_loss(t, [(task, targets, 1.7, 0.6)])[0],
            lambda t: task_loss_composed(task, t, targets, 1.7, 0.6)))
        for a, b in zip(fused, composed):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("logit_shape,weight_dim", [((3, 4), 4), ((3, 4), 1),
                                                    ((6, 3, 4), 4), ((6, 3, 4), 1)])
def test_ensemble_combine_equals_its_composition_bit_for_bit(logit_shape, weight_dim):
    rng = np.random.default_rng(4)
    logits = rng.normal(size=logit_shape)
    weights = rng.random(size=logit_shape[:-1] + (weight_dim,))
    scale = Tensor(rng.normal(size=logit_shape[:-2] + logit_shape[-1:]))
    fused, composed = (_value_and_grads(combine, [logits, weights], scale)
                       for combine in (ensemble_combine, ensemble_combine_composed))
    for a, b in zip(fused, composed):
        np.testing.assert_array_equal(a, b)


def test_weighted_sum_rejects_shapes_that_do_not_broadcast_or_a_bad_axis():
    with pytest.raises(DimensionError):
        ad.weighted_sum(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), axis=0)
    with pytest.raises(DimensionError):
        ad.weighted_sum(Tensor(np.ones((2, 1))), Tensor(np.ones((2, 3))), axis=2)


def test_fused_losses_reject_targets_of_another_size():
    x = Tensor(np.zeros((4, 1)))
    with pytest.raises(DimensionError):
        ad.slice_losses(x, [("mse", np.zeros(3))])
    with pytest.raises(DimensionError):
        ad.slice_losses(x, [("weighted_bce_with_logits", np.zeros(4), np.ones(5))])
    with pytest.raises(DimensionError):
        ad.slice_losses(Tensor(np.zeros((4, 3))), [("cross_entropy", np.zeros(5))])


def _slices_and_terms(rng, lead, b, kinds):
    """Logits (*lead, b, L) and one ``slice_losses`` term per (b, L) slice,
    cycling through ``kinds`` (task names); L is the first kind's width."""
    width = tk.task_by_name(kinds[0]).output_dim
    logits = rng.normal(size=lead + (b, width)) * 3.0
    terms = []
    for i in range(int(np.prod(lead))):
        task = tk.task_by_name(kinds[i % len(kinds)])
        targets = (rng.normal(size=b) if task.kind == "regression"
                   else rng.integers(0, max(task.output_dim, 2), size=b).astype(float))
        terms.append({"regression": ("mse", targets), "multiclass": ("cross_entropy", targets),
                      "binary": ("weighted_bce_with_logits", targets,
                                 np.where(targets > 0.5, 1.7, 0.6))}[task.kind])
    return logits, terms


@pytest.mark.parametrize("lead,kinds", [((4,), ["rr", "age", "sex", "potassium"]),
                                        ((2, 3), ["sex", "rr"]), ((3,), ["arrhythmia"]),
                                        ((1,), ["sex"])],
                         ids=["tasks", "tasks-experts", "cross-entropy", "one"])
def test_slice_losses_equal_each_loss_on_its_slice_bit_for_bit(lead, kinds):
    """One node over every slice: each value and each slice's gradient is
    that of its task's own loss node on the slice alone."""
    rng = np.random.default_rng(31)
    logits, terms = _slices_and_terms(rng, lead, 30, kinds)
    x = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        total, values = ad.slice_losses(x, terms)
        backward(total, tape)
    assert tape.nodes[-1].op == (terms[0][0] if len(terms) == 1 else "slice_losses")
    flat = logits.reshape((-1,) + logits.shape[-2:])
    for i, (name, *targets) in enumerate(terms):
        alone = Tensor(flat[i].copy(), requires_grad=True)
        with Tape() as tape:
            loss = ad.slice_losses(alone, [(name, *targets)])[0]
            backward(loss, tape)
        assert values[i] == loss.item()
        np.testing.assert_array_equal(x.grad.reshape(flat.shape)[i], alone.grad)


def test_slice_losses_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    for lead, kinds in (((2, 2), ["rr", "sex", "potassium", "age"]), ((2,), ["arrhythmia"])):
        logits, terms = _slices_and_terms(rng, lead, 5, kinds)
        analytic, numeric = grad_of(lambda t: ad.slice_losses(t, terms)[0], Tensor(logits))
        assert_close(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_slice_losses_needs_one_term_per_slice():
    terms = [("mse", np.zeros(4))] * 2
    with pytest.raises(DimensionError, match="2 losses for the 3 slices"):
        ad.slice_losses(Tensor(np.zeros((3, 4, 1))), terms)
    with pytest.raises(DimensionError):
        ad.slice_losses(Tensor(np.zeros((2, 4, 1))), [("mse", np.zeros(4)), ("mse", np.zeros(3))])


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(33)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 700.5, -700.5, 745.2, -745.2, 1e308, -1e308]
    x = np.concatenate([special, rng.normal(size=200) * 40.0])
    got, want = ad._sigmoid(x), sigmoid_masked(x)
    np.testing.assert_array_equal(got, want)     # NaN where NaN
    # zeros keep their sign; a NaN's sign bit is not a value (exp(-|NaN|) sets it)
    number = ~np.isnan(x)
    np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(want[number]))


@pytest.mark.parametrize("idx,axis", [([2, 0], 0), ([0, 2, 0, 0], 0), ([1, 1, 3], 1), ([3], 1)])
def test_take_rows_backward_accumulates_repeated_indices(idx, axis):
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out_shape = (len(idx), 4) if axis == 0 else (3, len(idx))
    g = rng.normal(size=out_shape)
    with Tape() as tape:
        backward(ad.reduce_sum(ad.mul(ad.take_rows(x, idx, axis=axis), Tensor(g))), tape)
    want = np.zeros((3, 4))
    for k, i in enumerate(idx):
        if axis == 0:
            want[i] += g[k]
        else:
            want[:, i] += g[:, k]
    np.testing.assert_array_equal(x.grad, want)


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


def test_nonfinite_construction_rejected():
    with pytest.raises(UsageError):
        Tensor([np.nan])


def test_empty_axis_rejected():
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros((2, 0))), axis=1)

"""Gate normalization, ensemble mechanics against a scalar-loop oracle,
and the three baseline weighting strategies."""

import numpy as np
import pytest

from enecg import tasks as tk
from enecg.autodiff import Tensor, Tape, backward
from enecg.errors import DimensionError, NotApplicableError, UsageError
from enecg.gating import (
    build_gate, ensemble_combine, gate_forward,
    gate_input, greedy_search_weights, train_sample_aware, uniform_weights,
    zero_shot_confidence_weights,
)
from enecg.optim import finite_diff_grad


def test_equal_scores_give_uniform_weights():
    rng = np.random.default_rng(0)
    gate = build_gate(3, 2, rng, lead_indices=(0,), pooled_len=4)
    for layer in gate.layers:
        layer.w0.data[...] = 0.0
    w = gate_forward(gate, Tensor(np.ones(4)))
    np.testing.assert_allclose(w.data, np.full((3, 2), 1 / 3), rtol=1e-12)


def test_weight_columns_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(1)
    gate = build_gate(3, 15, rng, lead_indices=(0,), pooled_len=16)
    x = rng.normal(size=(200, 16))
    w = gate_forward(gate, Tensor(x)).data
    assert w.shape == (200, 3, 15)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert (w >= 0).all()


def test_per_expert_scalar_weights_mode():
    rng = np.random.default_rng(11)
    gate = build_gate(3, 15, rng, lead_indices=(0,), pooled_len=8, per_coordinate=False)
    x = rng.normal(size=(6, 8))
    w = gate_forward(gate, Tensor(x))
    assert w.shape == (6, 3, 1)
    np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)
    logits = Tensor(rng.normal(size=(6, 3, 15)))
    combined = ensemble_combine(logits, w)
    assert combined.shape == (6, 15)
    want = (w.data * logits.data).sum(axis=1)
    np.testing.assert_allclose(combined.data, want, atol=1e-12)


def test_gate_input_shapes_single_and_batch():
    rng = np.random.default_rng(2)
    single = Tensor(rng.normal(size=(12, 100)))
    flat = gate_input(single, [1, 3], 10)
    assert flat.shape == (20,)
    batch = Tensor(rng.normal(size=(5, 12, 100)))
    grid = gate_input(batch, [1, 3], 10)
    assert grid.shape == (5, 20)
    np.testing.assert_allclose(grid.data[0], gate_input(Tensor(batch.data[0]), [1, 3], 10).data)


def test_gate_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    gate = build_gate(2, 1, rng, lead_indices=(0,), pooled_len=6, hidden_dim=5, rank=2)
    x = Tensor(rng.normal(size=(4, 6)))
    logits = Tensor(rng.normal(size=(4, 2, 1)))
    y = rng.normal(size=4)

    def loss_fn():
        w = gate_forward(gate, x)
        combined = ensemble_combine(logits, w)
        return tk.task_loss(tk.TASKS["rr"], combined, y)

    params = gate.trainable()
    with Tape() as tape:
        backward(loss_fn(), tape)
    for p in params:
        analytic = p.grad.copy()
        p.requires_grad = False
        numeric = finite_diff_grad(lambda t: loss_fn().item(), p, h=1e-5).data
        p.requires_grad = True
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


def test_one_hot_gating_selects_single_expert_exactly():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(3, 5)))
    for j in range(3):
        w = np.zeros((3, 5))
        w[j] = 1.0
        out = ensemble_combine(logits, Tensor(w))
        np.testing.assert_array_equal(out.data, logits.data[j])


def expand_static_weights(w: np.ndarray, out_dim: int) -> Tensor:
    """Oracle: a per-expert vector (N,) tiled to the (N, L) weight grid."""
    return Tensor(np.repeat(np.asarray(w, dtype=np.float64)[:, None], out_dim, axis=1))


def test_uniform_gating_is_arithmetic_mean():
    logits = Tensor(np.array([[1.0, 3.0], [3.0, 5.0]]))
    out = ensemble_combine(logits, expand_static_weights(uniform_weights(2), 2))
    np.testing.assert_allclose(out.data, [2.0, 4.0], rtol=1e-15)


def test_combine_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 7))
    weights = rng.random(size=(4, 7))
    got = ensemble_combine(Tensor(logits), Tensor(weights)).data
    for col in range(7):
        acc = 0.0
        for i in range(4):
            acc += weights[i, col] * logits[i, col]
        assert abs(got[col] - acc) <= 1e-12


def test_combine_batched_matches_oracle():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 4, 2))
    weights = rng.random(size=(3, 4, 2))
    got = ensemble_combine(Tensor(logits), Tensor(weights)).data
    want = (weights * logits).sum(axis=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_convex_weights_stay_in_expert_envelope():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 9))
    raw = rng.random(size=(5, 9))
    weights = raw / raw.sum(axis=0, keepdims=True)
    out = ensemble_combine(Tensor(logits), Tensor(weights)).data
    assert (out <= logits.max(axis=0) + 1e-12).all()
    assert (out >= logits.min(axis=0) - 1e-12).all()


def test_combine_shape_and_negativity_errors():
    with pytest.raises(DimensionError):
        ensemble_combine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
    with pytest.raises(UsageError):
        ensemble_combine(Tensor(np.zeros((2, 3))), Tensor(-np.ones((2, 3))))


def test_zero_shot_prefers_the_matching_expert():
    labels = np.array([0, 1, 2, 1, 0])
    task = tk.TASKS["arrhythmia"]
    perfect = np.zeros((5, 15))
    perfect[np.arange(5), labels] = 1.0
    noise = np.random.default_rng(8).normal(size=(5, 15)) * 0.1
    w = zero_shot_confidence_weights(np.stack([perfect, noise]), labels, task)
    assert w[0] > w[1]
    assert abs(w.sum() - 1.0) < 1e-12


def test_zero_shot_identical_experts_split_evenly():
    labels = np.array([0, 1, 1, 0])
    logits = np.random.default_rng(9).normal(size=(4, 1))
    w = zero_shot_confidence_weights(np.stack([logits, logits]), labels, tk.TASKS["sex"])
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)


def test_zero_shot_rejects_regression():
    with pytest.raises(NotApplicableError):
        zero_shot_confidence_weights(np.zeros((2, 4, 1)), np.zeros(4), tk.TASKS["rr"])


def test_greedy_degenerate_single_expert():
    labels = np.random.default_rng(10).normal(size=6)
    logits = np.random.default_rng(11).normal(size=(1, 6, 1))
    w = greedy_search_weights(logits, labels, tk.TASKS["rr"])
    np.testing.assert_array_equal(w, [1.0])


def test_greedy_finds_the_perfect_expert():
    rng = np.random.default_rng(12)
    y = rng.normal(size=50)
    perfect = y[:, None]
    noise1 = rng.normal(size=(50, 1)) * 3
    noise2 = rng.normal(size=(50, 1)) * 3
    w = greedy_search_weights(np.stack([perfect, noise1, noise2]), y, tk.TASKS["rr"])
    assert w[0] >= 0.9


def test_greedy_never_underperforms_best_single():
    rng = np.random.default_rng(13)
    y = rng.normal(size=40)
    logits = rng.normal(size=(3, 40, 1)) + y[None, :, None]
    task = tk.TASKS["rr"]
    w = greedy_search_weights(logits, y, task)
    combined = np.tensordot(w, logits, axes=1)
    best_single = min(tk.metric_from_logits(task, logits[j], y) for j in range(3))
    assert tk.metric_from_logits(task, combined, y) <= best_single + 1e-12


def test_greedy_requires_validation_data():
    with pytest.raises(UsageError):
        greedy_search_weights(np.zeros((2, 0, 1)), np.zeros(0), tk.TASKS["rr"])


def build_sample_aware_scenario(seed=14, n=240):
    """Which expert is right is readable from the gate input's first entries."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    flag = rng.integers(0, 2, size=n)
    gate_inputs = np.zeros((n, 8))
    gate_inputs[:, 0] = np.where(flag == 1, 2.0, -2.0)
    gate_inputs[:, 1:] = rng.normal(size=(n, 7)) * 0.1
    noise = rng.normal(size=(2, n)) * 2.0
    expert0 = np.where(flag == 1, y, noise[0])[:, None]
    expert1 = np.where(flag == 0, y, noise[1])[:, None]
    return gate_inputs, np.stack([expert0, expert1]), y


def test_sample_aware_training_beats_uniform():
    gate_inputs, logits, y = build_sample_aware_scenario()
    task = tk.TASKS["rr"]
    gate = train_sample_aware(gate_inputs, logits, y, task, seed=0,
                              lead_indices=(0,), pooled_len=8, hidden_dim=16, epochs=40)
    w = gate_forward(gate, Tensor(gate_inputs)).data
    stacked = np.transpose(logits, (1, 0, 2))
    combined = (w * stacked).sum(axis=1)
    uniform = stacked.mean(axis=1)
    mae_trained = tk.mae(combined[:, 0], y)
    mae_uniform = tk.mae(uniform[:, 0], y)
    assert mae_trained < mae_uniform
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_sample_aware_is_deterministic_under_seed():
    gate_inputs, logits, y = build_sample_aware_scenario()
    task = tk.TASKS["rr"]
    gates = [train_sample_aware(gate_inputs, logits, y, task, seed=7, lead_indices=(0,),
                                pooled_len=8, hidden_dim=8, epochs=3) for _ in range(2)]
    w = [gate_forward(g, Tensor(gate_inputs)).data for g in gates]
    assert np.array_equal(w[0], w[1])

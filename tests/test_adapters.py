"""LoRA layer identities, the dense-update oracle, parameter accounting,
head gradients and checkpoint round-trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enecg import tasks as tk
from enecg.adapters import LoraLinear, build_head, head_checksum, head_forward, trainable_params
from enecg.autodiff import Tensor, Tape, backward, reduce_sum
from enecg.errors import DimensionError, ParseError, UsageError
from enecg.optim import Adam, finite_diff_grad
from enecg.pipeline import (
    ExperimentConfig, ExpertSpec, build_experts, build_task_model, load_task_model,
    save_task_model,
)
from oracles import frozen_layer_forward


def test_zero_update_at_init_equals_frozen_forward():
    rng = np.random.default_rng(0)
    layer = LoraLinear(6, 5, rank=2, rng=rng)
    x = Tensor(rng.normal(size=5))
    out = layer.forward(x).data
    # b=0 makes the update term exactly zero: bit-identical to the frozen path
    np.testing.assert_array_equal(out, frozen_layer_forward(layer, x).data)
    # and machine-precision equal to an independent w0 @ x oracle
    np.testing.assert_allclose(out, layer.w0.data @ x.data + layer.bias.data,
                               rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factored_forward_matches_dense_update_oracle(seed):
    rng = np.random.default_rng(seed)
    d, k, r = rng.integers(1, 9), rng.integers(1, 9), 1
    r = int(rng.integers(1, min(d, k) + 1))
    layer = LoraLinear(int(d), int(k), r, rng)
    layer.lora_a.data[...] = rng.normal(size=(r, k))
    layer.lora_b.data[...] = rng.normal(size=(d, r))
    layer.bias.data[...] = rng.normal(size=d)
    x = rng.normal(size=int(k))
    dense = (layer.w0.data + layer.lora_b.data @ layer.lora_a.data) @ x + layer.bias.data
    got = layer.forward(Tensor(x)).data
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


def test_full_rank_update_can_cancel_base_weight():
    rng = np.random.default_rng(1)
    d = k = 4
    layer = LoraLinear(d, k, rank=4, rng=rng)
    layer.lora_a.data[...] = np.eye(4)
    layer.lora_b.data[...] = -layer.w0.data
    layer.bias.data[...] = rng.normal(size=4)
    x = rng.normal(size=4)
    np.testing.assert_allclose(layer.forward(Tensor(x)).data, layer.bias.data, atol=1e-12)


def test_trainable_count_formula():
    rng = np.random.default_rng(2)
    layer = LoraLinear(64, 64, rank=4, rng=rng)
    assert layer.trainable_count() == 4 * (64 + 64) + 64 == 576
    full = 64 * 64 + 64
    assert full == 4160
    assert abs(576 / 4160 - 0.138) < 1e-3
    r1 = LoraLinear(64, 64, rank=1, rng=rng)
    assert r1.trainable_count() == 64 + 64 + 64


def test_trainable_params_never_include_w0_in_lora_mode():
    rng = np.random.default_rng(3)
    head = build_head(16, 15, rng, hidden_dim=8, rank=2)
    params = trainable_params(head)
    ids = {id(p) for p in params}
    for layer in head.layers:
        assert id(layer.w0) not in ids
        assert id(layer.lora_a) in ids and id(layer.lora_b) in ids and id(layer.bias) in ids


def test_full_finetune_mode_trains_w0_instead():
    rng = np.random.default_rng(4)
    head = build_head(8, 1, rng, hidden_dim=4, rank=2, lora_only=False)
    params = trainable_params(head)
    ids = {id(p) for p in params}
    for layer in head.layers:
        assert id(layer.w0) in ids
        assert id(layer.lora_a) not in ids


def test_head_output_shapes():
    rng = np.random.default_rng(5)
    head = build_head(32, 15, rng, hidden_dim=16, rank=4)
    single = head_forward(head, Tensor(rng.normal(size=32)))
    assert single.shape == (15,)
    batch = head_forward(head, Tensor(rng.normal(size=(7, 32))))
    assert batch.shape == (7, 15)


def test_zero_features_zero_bias_give_zero_logits():
    rng = np.random.default_rng(6)
    head = build_head(8, 3, rng, hidden_dim=4, rank=2)
    out = head_forward(head, Tensor(np.zeros(8)))
    np.testing.assert_array_equal(out.data, np.zeros(3))


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    head = build_head(6, 2, rng, hidden_dim=5, rank=2)
    x = Tensor(rng.normal(size=(3, 6)))
    target = Tensor(rng.normal(size=(3, 2)))

    def loss_fn():
        d = head_forward(head, x) - target
        return reduce_sum(d * d)

    params = trainable_params(head)
    with Tape() as tape:
        backward(loss_fn(), tape)
    for p in params:
        analytic = p.grad.copy()
        p.requires_grad = False
        numeric = finite_diff_grad(lambda t: loss_fn().item(), p, h=1e-5).data
        p.requires_grad = True
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


def test_w0_checksum_stable_across_training():
    rng = np.random.default_rng(8)
    head = build_head(6, 1, rng, hidden_dim=4, rank=2)
    x = Tensor(rng.normal(size=(4, 6)))
    y = Tensor(rng.normal(size=(4, 1)))
    before = head_checksum(head)
    opt = Adam(trainable_params(head), lr=1e-2)
    for _ in range(20):
        opt.zero_grad()
        with Tape() as tape:
            d = head_forward(head, x) - y
            backward(reduce_sum(d * d), tape)
        opt.step()
    assert head_checksum(head) == before


def test_rank_bounds_enforced():
    rng = np.random.default_rng(9)
    with pytest.raises(UsageError):
        LoraLinear(4, 4, rank=5, rng=rng)
    with pytest.raises(UsageError):
        LoraLinear(4, 4, rank=0, rng=rng)


def test_input_width_mismatch():
    rng = np.random.default_rng(10)
    layer = LoraLinear(4, 6, rank=2, rng=rng)
    with pytest.raises(DimensionError):
        layer.forward(Tensor(np.zeros(5)))


def trained_like_task_model(task_name="arrhythmia", seed=11):
    """A 2-expert task model with random factors, biases and statistics."""
    cfg = ExperimentConfig(experts=(ExpertSpec("a", "spectral", 1, 128, 10),
                                    ExpertSpec("b", "statistical", 2, 128, 10)),
                           head_hidden=6, head_rank=3, gate_pooled_len=8, gate_hidden=6)
    rng = np.random.default_rng(seed)
    model = build_task_model(cfg, build_experts(cfg), tk.task_by_name(task_name), seed)
    for layer in [l for h in model.heads for l in h.layers] + model.gate.layers:
        layer.lora_a.data[...] = rng.normal(size=layer.lora_a.shape)
        layer.lora_b.data[...] = rng.normal(size=layer.lora_b.shape)
        layer.bias.data[...] = rng.normal(size=layer.bias.shape)
    model.feature_stats = [(rng.normal(size=10), rng.random(10) + 0.5) for _ in range(2)]
    model.gate_stats = (rng.normal(size=8), rng.random(8) + 0.5)
    model.target_mean, model.target_std = float(rng.normal()), float(rng.random() + 0.5)
    return model


def test_checkpoint_roundtrip_is_value_exact(tmp_path):
    model = trained_like_task_model()
    path = tmp_path / "task.ckpt"
    save_task_model(model, path)
    loaded = load_task_model(path)
    assert loaded.task == model.task
    assert all(h.output_dim == 15 for h in loaded.heads)
    layers = [(l0, l1) for h0, h1 in zip(model.heads, loaded.heads)
              for l0, l1 in zip(h0.layers, h1.layers)]
    for orig, back in layers + list(zip(model.gate.layers, loaded.gate.layers)):
        for key, t in orig.tensors().items():
            np.testing.assert_array_equal(t.data, back.tensors()[key].data)
    for (m0, s0), (m1, s1) in zip(model.feature_stats, loaded.feature_stats):
        np.testing.assert_array_equal(m0, m1)
        np.testing.assert_array_equal(s0, s1)
    for a, b in zip(model.gate_stats, loaded.gate_stats):
        np.testing.assert_array_equal(a, b)
    assert (loaded.target_mean, loaded.target_std) == (model.target_mean, model.target_std)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ParseError):
        load_task_model(path)


def _drop_entry(lines, name):
    """Remove one scalar or tensor entry and fix the header's entry count."""
    i = next(i for i, line in enumerate(lines) if line.split()[1:2] == [name])
    del lines[i:i + (2 if lines[i].startswith("tensor") else 1)]
    magic, n = lines[0].split()
    lines[0] = f"{magic} {int(n) - 1}"


def _set_line(lines, prefix, replacement):
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i:i + len(replacement)] = replacement


HAND_EDITS = {
    "non-numeric scalar": ("task_id", lambda ls: _set_line(ls, "scalar task_id ", ["scalar task_id abc"])),
    "non-integer count": ("n_experts", lambda ls: _set_line(ls, "scalar n_experts ", ["scalar n_experts 1.5"])),
    "task id out of range": ("task_id", lambda ls: _set_line(ls, "scalar task_id ", ["scalar task_id 9.0"])),
    "task of another width": ("head0", lambda ls: _set_line(ls, "scalar task_id ", ["scalar task_id 0.0"])),
    "bad shape field": ("gate.leads", lambda ls: _set_line(ls, "tensor gate.leads ", ["tensor gate.leads 2xq"])),
    "missing scalar": ("train_bias", lambda ls: _drop_entry(ls, "train_bias")),
    "missing tensor": ("head1.layer0.lora_b", lambda ls: _drop_entry(ls, "head1.layer0.lora_b")),
    "broadcastable bias": ("head0.layer0.bias",
                           lambda ls: _set_line(ls, "tensor head0.layer0.bias ",
                                                ["tensor head0.layer0.bias 1", "0.5"])),
    "transposed factor": ("head0.layer1.lora_b",
                          lambda ls: _set_line(ls, "tensor head0.layer1.lora_b ",
                                               ["tensor head0.layer1.lora_b 3x15",
                                                ",".join(["0.0"] * 45)])),
    "short statistics": ("featstats1.std",
                         lambda ls: _set_line(ls, "tensor featstats1.std ",
                                              ["tensor featstats1.std 1", "1.0"])),
    "rank above width": ("gate.layer1",
                         lambda ls: _set_line(ls, "tensor gate.layer1.lora_a ",
                                              ["tensor gate.layer1.lora_a 7x6",
                                               ",".join(["0.0"] * 42)])),
}


@pytest.mark.parametrize("edit", sorted(HAND_EDITS))
def test_hand_edited_checkpoint_is_a_parse_error_naming_file_and_entry(tmp_path, edit):
    entry, apply = HAND_EDITS[edit]
    path = tmp_path / "edited.ckpt"
    save_task_model(trained_like_task_model(), path)
    lines = path.read_text().splitlines()
    apply(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(str(path)) + ".*" + re.escape(entry)):
        load_task_model(path)

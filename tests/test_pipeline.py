"""Split semantics, forward mechanics against hand calculations, training
contracts (frozen params, identity at init, loss decrease), metric oracles
and efficiency accounting."""

from dataclasses import replace

import numpy as np
import pytest

from enecg import pipeline
from enecg import tasks as tk
from enecg import autodiff as ad
from enecg.adapters import head_forward
from enecg.autodiff import Tensor, Tape, backward
from enecg.errors import InvariantError, UsageError
from enecg.experts import ExpertModel
from enecg.optim import finite_diff_grad
from enecg.pipeline import (
    ExperimentConfig, ExpertSpec,
    PreparedDataset, _forward_features, _model_inputs, _task_logits, bench,
    build_experts, build_task_model, evaluate, forward_enecg, parameter_counts,
    prepare_dataset, split_indices, train,
)
from enecg.saliency import ensemble_scalar_model
from enecg.signal import GeneratorConfig, generate
from oracles import head_forward_frozen


def tiny_cfg(**kw):
    base = dict(
        seed=5, n_records=240, epochs=4, batch_size=16, repeats=1,
        experts=(ExpertSpec("spec", "spectral", 1, 128, 16),
                 ExpertSpec("conv", "convolutional", 2, 224, 16),
                 ExpertSpec("stat", "statistical", 3, 128, 16)),
        head_hidden=16, head_rank=2, gate_pooled_len=50, gate_hidden=16,
        data=GeneratorConfig(duration_s=4.0, fs_hz=125.0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = tiny_cfg()
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    return cfg, experts, prepared


def test_split_sizes_70_20_10():
    tr, va, te = split_indices(100, (0.7, 0.2, 0.1), seed=0)
    assert (len(tr), len(va), len(te)) == (70, 20, 10)


def test_split_is_deterministic_and_partitions():
    a = split_indices(57, (0.7, 0.2, 0.1), seed=3)
    b = split_indices(57, (0.7, 0.2, 0.1), seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    union = np.concatenate(a)
    assert sorted(union.tolist()) == list(range(57))


def test_split_on_pairs_list():
    data = [(i, i) for i in range(50)]
    tr, va, te = ([data[i] for i in idx] for idx in split_indices(len(data), (0.7, 0.2, 0.1), seed=1))
    assert len(tr) == 35 and len(va) == 10 and len(te) == 5
    assert {x for x, _ in tr} | {x for x, _ in va} | {x for x, _ in te} == set(range(50))


def test_split_ratio_must_sum_to_one():
    with pytest.raises(UsageError):
        split_indices(10, (0.7, 0.2, 0.2), seed=0)


def test_empty_split_is_rejected_before_preparing(monkeypatch):
    with pytest.raises(UsageError, match="train 2, validation 0, test 2"):
        split_indices(4, (0.7, 0.2, 0.1), seed=0)

    def no_prepare(*args, **kwargs):
        raise AssertionError("dataset prepared before the split was checked")

    monkeypatch.setattr(pipeline, "prepare_dataset", no_prepare)
    with pytest.raises(UsageError, match="validation 0"):
        train(tiny_cfg(n_records=4))


def test_frozen_checksum_drift_is_an_invariant_error(tiny_setup, monkeypatch):
    cfg, experts, prepared = tiny_setup
    drift = iter(range(1000))
    monkeypatch.setattr(ExpertModel, "checksum", lambda self: f"sum{next(drift)}")
    with pytest.raises(InvariantError, match="frozen parameters changed"):
        train(replace(cfg, epochs=1, tasks=("rr",)), prepared=prepared, experts=experts)


def test_forward_single_expert_equals_head_logits(tiny_setup):
    cfg, experts, prepared = tiny_setup
    sub_cfg = tiny_cfg(experts=(cfg.experts[0],))
    model = build_task_model(sub_cfg, experts[:1], tk.TASKS["rr"], seed=0)
    records = [r for r, _ in generate(
        GeneratorConfig(seed=9, n_records=3, duration_s=4.0, fs_hz=125.0))]
    outs = forward_enecg(records, experts[:1], model)
    assert len(outs) == 3
    for out in outs:
        np.testing.assert_allclose(out.combined, out.expert_logits[0], atol=0)
        np.testing.assert_allclose(out.weights, 1.0, atol=0)


def test_forward_matches_hand_calculation():
    """2 experts, L=1, tiny explicit parameters, spreadsheet-style oracle."""
    cfg = tiny_cfg(experts=(ExpertSpec("a", "spectral", 1, 128, 4),
                            ExpertSpec("b", "statistical", 2, 128, 4)),
                   head_hidden=3, head_rank=1, gate_pooled_len=10, gate_hidden=3)
    experts = build_experts(cfg)
    model = build_task_model(cfg, experts, tk.TASKS["rr"], seed=1)
    rng = np.random.default_rng(4)
    for head in model.heads:
        for layer in head.layers:
            layer.w0.data[...] = rng.normal(size=layer.w0.shape) * 0.3
            layer.lora_a.data[...] = rng.normal(size=layer.lora_a.shape) * 0.2
            layer.lora_b.data[...] = rng.normal(size=layer.lora_b.shape) * 0.2
            layer.bias.data[...] = rng.normal(size=layer.bias.shape) * 0.1
    for layer in model.gate.layers:
        layer.w0.data[...] = rng.normal(size=layer.w0.shape) * 0.3

    feats = [Tensor(rng.normal(size=(1, 4))) for _ in range(2)]
    gate_in = Tensor(rng.normal(size=(1, 10)))
    stacked, weights, combined = _forward_features(model, feats, gate_in)

    def manual_layer(layer, x):
        return (layer.w0.data + layer.lora_b.data @ layer.lora_a.data) @ x + layer.bias.data

    logits = []
    for head, f in zip(model.heads, feats):
        h = np.maximum(manual_layer(head.layers[0], f.data[0]), 0.0)
        logits.append(manual_layer(head.layers[1], h))
    g = np.maximum(manual_layer(model.gate.layers[0], gate_in.data[0]), 0.0)
    scores = manual_layer(model.gate.layers[1], g).reshape(2, 1)
    e = np.exp(scores - scores.max(axis=0))
    w = e / e.sum(axis=0)
    expected = (w * np.stack(logits)).sum(axis=0)
    np.testing.assert_allclose(combined.data[0], expected, atol=1e-12)
    np.testing.assert_allclose(weights.data[0], w, atol=1e-12)


def test_forward_batch_preserves_order(tiny_setup):
    cfg, experts, prepared = tiny_setup
    model = build_task_model(cfg, experts, tk.TASKS["sex"], seed=2)
    records = [r for r, _ in generate(
        GeneratorConfig(seed=10, n_records=8, duration_s=4.0, fs_hz=125.0))]
    outs = forward_enecg(records, experts, model)
    assert len(outs) == 8
    single = forward_enecg([records[5]], experts, model)[0]
    np.testing.assert_allclose(outs[5].combined, single.combined, rtol=1e-12)


def test_zero_epochs_keeps_frozen_identity(tiny_setup):
    cfg, experts, prepared = tiny_setup
    cfg0 = tiny_cfg(epochs=0)
    trained = train(cfg0, seed=cfg0.seed, prepared=prepared, experts=experts)
    model = trained.tasks["rr"]
    idx = np.arange(10)
    feats, gate_in = _model_inputs(model, prepared, idx)
    # with b=0 the adapted forward equals the frozen forward bit-for-bit
    adapted = _task_logits(model, prepared, idx)
    for head, f in zip(model.heads, feats):
        np.testing.assert_array_equal(head_forward_frozen(head, f).data, head_forward(head, f).data)
    assert np.isfinite(adapted).all()


def test_training_reduces_loss_and_keeps_frozen_checksums(tiny_setup):
    cfg, experts, prepared = tiny_setup
    cfg6 = tiny_cfg(epochs=6)
    expert_sums = [m.checksum() for m in experts]
    trained = train(cfg6, seed=cfg.seed, prepared=prepared, experts=experts)
    assert [m.checksum() for m in experts] == expert_sums
    for name in cfg.tasks:
        losses = trained.train_loss[name]
        assert losses[5] < losses[0], f"{name}: train loss did not drop by epoch 5"
    tr, va, te = split_indices(prepared.n, cfg.split, cfg.seed)
    scores = evaluate(trained, prepared, te)
    assert set(scores) == set(cfg.tasks)


def test_training_is_deterministic(tiny_setup):
    cfg, experts, prepared = tiny_setup
    runs = []
    for _ in range(2):
        trained = train(cfg, seed=cfg.seed, prepared=prepared, experts=experts)
        tr, va, te = split_indices(prepared.n, cfg.split, cfg.seed)
        runs.append(evaluate(trained, prepared, te))
    assert runs[0] == runs[1]


def test_joint_mode_matches_task_structure(tiny_setup):
    cfg, experts, prepared = tiny_setup
    joint_cfg = tiny_cfg(joint=True, epochs=2, tasks=("rr", "sex"))
    trained = train(joint_cfg, seed=1, prepared=prepared, experts=experts)
    assert set(trained.tasks) == {"rr", "sex"}
    assert len(trained.history["rr"]) == 2


def test_joint_mode_restores_best_epoch_and_records_losses(tiny_setup):
    cfg, experts, prepared = tiny_setup
    joint_cfg = tiny_cfg(joint=True, epochs=3)
    trained = train(joint_cfg, seed=1, prepared=prepared, experts=experts)
    _, va, _ = split_indices(prepared.n, cfg.split, 1)
    scores = evaluate(trained, prepared, va)
    for name in cfg.tasks:
        assert len(trained.train_loss[name]) == 3
        assert all(np.isfinite(trained.train_loss[name]))
        task = tk.TASKS[name]
        best = max(trained.history[name]) if task.higher_is_better else min(trained.history[name])
        assert scores[name] == best, name


def test_roster_mismatch_is_rejected_on_every_path(tiny_setup):
    cfg, experts, prepared = tiny_setup
    two = tiny_cfg(experts=cfg.experts[:2], epochs=1, tasks=("rr",))
    view = PreparedDataset(prepared.features[:2], prepared.gate_inputs, prepared.labels, prepared.n)
    trained = train(two, seed=cfg.seed, prepared=view, experts=experts[:2])
    model = trained.tasks["rr"]
    records = [r for r, _ in generate(
        GeneratorConfig(seed=9, n_records=2, duration_s=4.0, fs_hz=125.0))]
    block = ad.stack([r.leads for r in records])
    with pytest.raises(UsageError, match="3 experts but 2 heads"):
        evaluate(trained, prepared, np.arange(10))
    with pytest.raises(UsageError, match="3 experts but 2 heads"):
        ensemble_scalar_model(experts, model, model.task)(block)
    with pytest.raises(UsageError, match="3 experts but 2 heads"):
        forward_enecg(records, experts, model)
    # and a head whose width is not the task's
    sex = build_task_model(cfg, experts, tk.TASKS["sex"], seed=0)
    sex.task = tk.TASKS["arrhythmia"]
    with pytest.raises(UsageError, match="does not match task arrhythmia"):
        ensemble_scalar_model(experts, sex, sex.task, class_index=0)(block)


def test_raw_and_prepared_forwards_agree(tiny_setup):
    cfg, experts, prepared = tiny_setup
    small = tiny_cfg(n_records=12, epochs=1, tasks=("rr", "arrhythmia"))
    trained = train(small, seed=21, experts=experts)
    data = prepare_dataset(small, experts, seed=21)
    records = [r for r, _ in generate(replace(small.data, seed=21, n_records=12))]
    block = ad.stack([r.leads for r in records])
    for name, class_index in (("rr", None), ("arrhythmia", 4)):
        model = trained.tasks[name]
        raw = np.stack([o.combined for o in forward_enecg(records, experts, model)])
        np.testing.assert_allclose(raw, _task_logits(model, data, np.arange(12)),
                                   rtol=1e-10, atol=0)
        scalar = ensemble_scalar_model(experts, model, model.task, class_index=class_index)
        column = 0 if class_index is None else class_index
        np.testing.assert_array_equal(scalar(block).data, raw[:, column])


def test_end_to_end_gradients_match_finite_differences(tiny_setup):
    cfg, experts, prepared = tiny_setup
    for task_name in ("rr", "arrhythmia"):
        model = build_task_model(cfg, experts, tk.TASKS[task_name], seed=3)
        model.fit_input_stats(prepared, np.arange(prepared.n))
        idx = np.array([0, 1])
        y = prepared.labels[task_name][idx]

        def loss_fn():
            feats, gate_in = _model_inputs(model, prepared, idx)
            _, _, combined = _forward_features(model, feats, gate_in)
            return tk.task_loss(model.task, combined, y)

        params = model.trainable()
        with Tape() as tape:
            backward(loss_fn(), tape)
        for p in params:
            analytic = p.grad.copy()
            p.requires_grad = False
            numeric = finite_diff_grad(lambda t: loss_fn().item(), p, h=1e-5).data
            p.requires_grad = True
            denom = np.maximum(np.abs(numeric), 1e-6)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() < 1e-4, f"{task_name}: rel {rel.max():.2e}"


def test_metric_oracles_against_scalar_loops():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=50)
    y = rng.normal(size=50)
    assert abs(tk.mae(pred, y) - sum(abs(a - b) for a, b in zip(pred, y)) / 50) < 1e-12

    pb = rng.integers(0, 2, 50).astype(float)
    yb = rng.integers(0, 2, 50).astype(float)
    tp = sum(1 for a, b in zip(pb, yb) if a == 1 and b == 1)
    fp = sum(1 for a, b in zip(pb, yb) if a == 1 and b == 0)
    fn = sum(1 for a, b in zip(pb, yb) if a == 0 and b == 1)
    expected = 2 * tp / (2 * tp + fp + fn)
    assert abs(tk.f1_score(pb, yb) - expected) < 1e-12

    pm = rng.integers(0, 15, 50).astype(float)
    ym = rng.integers(0, 15, 50).astype(float)
    assert abs(tk.accuracy(pm, ym) - np.mean(pm == ym)) < 1e-12


def test_f1_confusion_example():
    # TP=2, FP=1, FN=1 -> F1 = 4/6
    pred = np.array([1, 1, 1, 0, 0])
    y = np.array([1, 1, 0, 1, 0])
    assert abs(tk.f1_score(pred, y) - 2 * 2 / (2 * 2 + 1 + 1)) < 1e-12
    assert tk.f1_score(np.zeros(10), np.r_[np.ones(3), np.zeros(7)]) == 0.0


def test_constant_mean_regressor_mae_is_mad():
    rng = np.random.default_rng(7)
    y = rng.normal(size=100) * 10
    pred = np.full(100, y.mean())
    assert abs(tk.mae(pred, y) - np.mean(np.abs(y - y.mean()))) < 1e-12


def test_perfect_predictions_score_perfectly():
    y = np.array([3.0, 4.0, 5.0])
    assert tk.mae(y, y) == 0.0
    yb = np.array([1.0, 0.0, 1.0])
    assert tk.f1_score(yb, yb) == 1.0
    assert tk.accuracy(yb, yb) == 1.0


def test_parameter_counts_match_closed_form(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    trainable, frozen = parameter_counts(trained)

    def lora_count(d, k, r, bias=True):
        return r * (d + k) + (d if bias else 0)

    expected = 0
    for name in cfg.tasks:
        L = tk.TASKS[name].output_dim
        for _ in range(3):  # heads
            expected += lora_count(16, 16, 2) + lora_count(L, 16, min(2, L))
        gate_in = len(cfg.gate_leads) * cfg.gate_pooled_len
        expected += lora_count(16, gate_in, 2) + lora_count(3 * L, 16, min(2, min(3 * L, 16)))
    assert trainable == expected


def test_default_head_layer_counts():
    cfg = ExperimentConfig()
    experts = build_experts(cfg)
    model = build_task_model(cfg, experts, tk.TASKS["rr"], seed=0)
    layer = model.heads[0].layers[0]
    assert layer.trainable_count() == 4 * (64 + 64) + 64 == 576


def test_bench_reports_counts_and_throughput(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=1), seed=5, prepared=prepared, experts=experts)
    idx = np.arange(40)
    report = bench(trained, prepared, idx)
    trainable, frozen = parameter_counts(trained)
    assert report.params_trainable == trainable
    assert report.params_total == trainable + frozen
    assert report.throughput_sps > 0 and report.train_throughput_sps > 0
    assert report.activation_bytes > 0
    doc = report.to_json()
    for key in ("params_trainable", "params_total", "throughput_sps", "wallclock_s"):
        assert key in doc
    assert report.to_csv().startswith("task,metric,mean,std")


def test_bench_throughput_reproducible_within_half(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    idx = np.arange(120)
    a = bench(trained, prepared, idx, passes=5).throughput_sps
    b = bench(trained, prepared, idx, passes=5).throughput_sps
    assert abs(a - b) / max(a, b) <= 0.5


def test_lora_fraction_under_full_finetune_alternative():
    # single default layer: 576 trainable vs 4160 for the dense alternative
    assert 576 / 4160 < 0.20


def test_evaluate_requires_nonempty_split(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    with pytest.raises(UsageError):
        evaluate(trained, prepared, np.array([], dtype=int))


def test_config_validation_errors():
    with pytest.raises(UsageError):
        ExperimentConfig(split=(0.7, 0.2, 0.2)).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(ensemble="vote").validate()
    with pytest.raises(UsageError):
        ExperimentConfig(tasks=("rr", "bogus")).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(experts=()).validate()

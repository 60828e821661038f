"""Split semantics, forward mechanics against hand calculations, training
contracts (frozen params, identity at init, loss decrease), metric oracles
and efficiency accounting."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from enecg import pipeline
from enecg import tasks as tk
from enecg import autodiff as ad
from enecg.adapters import head_forward, stack_forward, trainable_params
from enecg.autodiff import Tensor, Tape, backward
from enecg.errors import InvariantError, UsageError
from enecg.experts import ExpertModel
from enecg.optim import Adam, finite_diff_grad
from enecg.pipeline import (
    ExperimentConfig, ExpertSpec,
    PreparedDataset, _forward_grouped, _inputs, _task_logits, bench,
    build_experts, build_task_model, evaluate, fit_input_stats, forward_enecg,
    load_task_model, parameter_counts, prepare_dataset, save_task_model, split_indices,
    train,
)
from enecg.saliency import ensemble_scalar_model
from enecg.signal import GeneratorConfig, generate, synthesize
from oracles import expert_features, head_forward_frozen


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


def test_prepared_features_do_not_depend_on_block_neighbours():
    # default experts and records; blocks of records 0.. against blocks of
    # records 5.. and a record prepared alone
    cfg = ExperimentConfig(seed=5, n_records=pipeline.PREP_BLOCK + 6)
    experts = build_experts(cfg)
    whole = prepare_dataset(cfg, experts, seed=cfg.seed)
    gen = replace(cfg.data, seed=cfg.seed)
    last = cfg.n_records - 1
    for rows in (np.arange(5, cfg.n_records), np.array([last])):
        part = pipeline._prepare_records(cfg, experts, (synthesize(gen, int(i)) for i in rows))
        for got, want in zip(part.features + [part.gate_inputs], whole.features + [whole.gate_inputs]):
            assert np.abs(got - want[rows]).max() <= 1e-12 * np.abs(want).max()
        for name, labels in part.labels.items():
            assert np.array_equal(labels, whole.labels[name][rows])


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


@pytest.mark.parametrize("lr", [np.nan, np.inf, -0.001, 0.0])
def test_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(UsageError, match="learning_rate must be finite and positive"):
        tiny_cfg(learning_rate=lr).validate()


@pytest.mark.parametrize("where", ["features", "labels"])
def test_non_finite_inputs_or_targets_are_refused_before_any_step(tiny_setup, where):
    # the steps wrap their rows and targets without Tensor()'s check
    cfg, experts, prepared = tiny_setup
    if where == "features":
        features = [f.copy() for f in prepared.features]
        features[1][7, 3] = np.nan
        bad, message = replace(prepared, features=features), "standardized inputs must be finite"
    else:
        labels = {**prepared.labels, "rr": prepared.labels["rr"].copy()}
        labels["rr"][7] = np.inf
        bad, message = replace(prepared, labels=labels), "task rr: training targets must be finite"
    with pytest.raises(UsageError, match=message):
        train(replace(cfg, tasks=("rr",)), prepared=bad, experts=experts)


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
    stacked, weights, combined = _forward_grouped(model, model.stack.group_inputs(feats), gate_in)

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
    feats = expert_features(model.stack, _inputs(model, prepared, idx)[0])
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


def test_training_restores_best_epoch_and_records_losses(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=3), seed=1, prepared=prepared, experts=experts)
    _, va, _ = split_indices(prepared.n, cfg.split, 1)
    scores = evaluate(trained, prepared, va)
    for name in cfg.tasks:
        assert len(trained.train_loss[name]) == 3
        assert all(np.isfinite(trained.train_loss[name]))
        task = tk.TASKS[name]
        best = max(trained.history[name]) if task.higher_is_better else min(trained.history[name])
        assert scores[name] == best, name


def test_suite_singles_match_experts_trained_one_by_one():
    # the 16-wide heads form one group around the 8-wide one, so each
    # expert's logits are taken out of a stacked group
    cfg = tiny_cfg(n_records=96, epochs=3, experts=(
        ExpertSpec("spec", "spectral", 1, 128, 16),
        ExpertSpec("conv", "convolutional", 2, 224, 8),
        ExpertSpec("stat", "statistical", 3, 128, 16)))
    (run,) = pipeline.run_suite(cfg, strategies=("uniform",))
    assert run.moe is None and run.singles.tasks["rr"].stack.members == [[0, 2], [1]]
    experts = build_experts(cfg)
    prepared, te = run.prepared, run.test_idx
    scores = evaluate(run.singles, prepared, te)
    assert set(scores) == {f"{name}.{spec.name}" for name in cfg.tasks for spec in cfg.experts}
    for i, spec in enumerate(cfg.experts):
        # the oracle: a one-expert train() on the expert's view of the dataset
        view = PreparedDataset([prepared.features[i]], prepared.gate_inputs, prepared.labels,
                               prepared.n)
        alone = train(replace(cfg, experts=(spec,)), seed=run.seed, prepared=view,
                      experts=[experts[i]])
        for name in cfg.tasks:
            key = f"{name}.{spec.name}"
            model, want = run.singles.tasks[name], alone.tasks[name]
            assert run.singles.history[key] == alone.history[name], key
            assert run.singles.train_loss[key] == alone.train_loss[name], key
            for got_layer, want_layer in zip(model.heads[i].layers, want.heads[0].layers):
                for k, t in got_layer.tensors().items():
                    np.testing.assert_array_equal(t.data, want_layer.tensors()[k].data)
            np.testing.assert_array_equal(_task_logits(model, prepared, te)[i],
                                          _task_logits(want, view, te))
            assert scores[key] == evaluate(alone, view, te, (name,))[name], key


def test_train_fits_one_set_of_input_statistics(tiny_setup, tmp_path, monkeypatch):
    cfg, experts, prepared = tiny_setup
    calls = []
    fit = pipeline.fit_input_stats
    monkeypatch.setattr(pipeline, "fit_input_stats", lambda *a: calls.append(a) or fit(*a))
    trained = train(tiny_cfg(epochs=1), seed=3, prepared=prepared, experts=experts)
    assert len(calls) == 1
    tr, _, _ = split_indices(prepared.n, cfg.split, 3)
    rows = [f[tr] for f in prepared.features] + [prepared.gate_inputs[tr]]
    want = [(x.mean(axis=0), x.std(axis=0) + 1e-12) for x in rows]
    first = trained.tasks[cfg.tasks[0]]
    for name, model in trained.tasks.items():
        stats = model.feature_stats + [model.gate_stats]
        assert len(stats) == len(want)
        for (mean, std), (want_mean, want_std) in zip(stats, want):
            np.testing.assert_array_equal(mean, want_mean)
            np.testing.assert_array_equal(std, want_std)
        for (mean, std), (first_mean, first_std) in zip(stats, first.feature_stats + [first.gate_stats]):
            assert mean is first_mean and std is first_std, name
        path = tmp_path / f"{name}.ckpt"
        save_task_model(model, path)
        back = load_task_model(path)
        for (mean, std), (back_mean, back_std) in zip(stats, back.feature_stats + [back.gate_stats]):
            np.testing.assert_array_equal(mean, back_mean)
            np.testing.assert_array_equal(std, back_std)


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


def test_gate_less_model_is_a_usage_error(tmp_path):
    cfg = tiny_cfg(n_records=48, epochs=1, tasks=("rr",))
    (run,) = pipeline.run_suite(cfg, strategies=("uniform",))
    model = run.singles.tasks["rr"]
    assert model.gate is None
    experts = build_experts(cfg)
    records = [r for r, _ in generate(GeneratorConfig(seed=9, n_records=2, duration_s=4.0, fs_hz=125.0))]
    for call in (lambda: save_task_model(model, tmp_path / "rr.ckpt"),
                 lambda: forward_enecg(records, experts, model),
                 lambda: ensemble_scalar_model(experts, model, model.task)):
        with pytest.raises(UsageError, match="'rr' has no gate"):
            call()
    assert not (tmp_path / "rr.ckpt").exists()


def test_raw_and_prepared_forwards_agree(tiny_setup):
    cfg, experts, prepared = tiny_setup
    small = tiny_cfg(n_records=12, epochs=1)
    trained = train(small, seed=21, experts=experts)
    data = prepare_dataset(small, experts, seed=21)
    records = [r for r, _ in generate(replace(small.data, seed=21, n_records=12))]
    block = ad.stack([r.leads for r in records])
    for model in trained.tasks.values():
        class_index = 4 if model.task.kind == "multiclass" else None
        raw = np.stack([o.combined for o in forward_enecg(records, experts, model)])
        # one standardization path: raw records and prepared rows agree bit for bit
        np.testing.assert_array_equal(raw, _task_logits(model, data, np.arange(12)))
        scalar = ensemble_scalar_model(experts, model, model.task, class_index=class_index)
        column = 0 if class_index is None else class_index
        np.testing.assert_array_equal(scalar(block).data, raw[:, column])


@pytest.fixture
def expert_calls(monkeypatch):
    """Names of the experts each ``forward_enecg`` front-end pass runs,
    starting from an empty front-end memo."""
    monkeypatch.setattr(pipeline, "_last_front", None)
    calls = []
    real = pipeline.expert_forward

    def counted(model, x):
        calls.append(model.name)
        return real(model, x)

    monkeypatch.setattr(pipeline, "expert_forward", counted)
    return calls


def _task_model(cfg, experts, task="rr"):
    return build_task_model(cfg, experts, tk.TASKS[task], seed=3)


def _records(n, seed=9):
    return [r for r, _ in generate(GeneratorConfig(seed=seed, n_records=n, duration_s=4.0,
                                                   fs_hz=125.0))]


def test_five_tasks_on_one_batch_run_the_experts_once(tiny_setup, expert_calls, monkeypatch):
    cfg, experts, _ = tiny_setup
    models, batch = [_task_model(cfg, experts, task) for task in tk.TASKS], _records(3)
    outs = [forward_enecg(batch, experts, model) for model in models]
    assert expert_calls == [m.name for m in experts]
    for model, got in zip(models, outs):
        monkeypatch.setattr(pipeline, "_last_front", None)
        for a, b in zip(got, forward_enecg(batch, experts, model)):
            for field in ("expert_logits", "weights", "combined"):
                assert np.array_equal(getattr(a, field), getattr(b, field))


def test_front_end_memo_holds_one_batch(tiny_setup, expert_calls):
    cfg, experts, _ = tiny_setup
    model = _task_model(cfg, experts)
    records = _records(4)
    a, b = records[:2], records[2:]
    for batch in (a, b, a):
        forward_enecg(batch, experts, model)
    assert len(expert_calls) == 3 * len(experts)
    forward_enecg(list(a), experts, model)   # a new list of the same records
    assert len(expert_calls) == 3 * len(experts)


def test_front_end_memo_misses_on_any_other_input(tiny_setup, expert_calls):
    cfg, experts, _ = tiny_setup
    model = _task_model(cfg, experts)
    batch = _records(2)
    same_values = replace(batch[1], leads=Tensor(batch[1].leads.data))
    others = [
        ([batch[0], same_values], experts, model),
        (batch, build_experts(cfg), model),
        (batch, experts, _task_model(replace(cfg, gate_leads=(0,)), experts)),
        (batch, experts, _task_model(replace(cfg, gate_pooled_len=25), experts)),
    ]
    for records, roster, other in others:
        forward_enecg(batch, experts, model)
        before = len(expert_calls)
        forward_enecg(records, roster, other)
        assert len(expert_calls) == before + len(roster)


def test_front_end_memo_keeps_no_batch_alive(tiny_setup):
    cfg, experts, _ = tiny_setup
    batch = _records(2)
    forward_enecg(batch, experts, _task_model(cfg, experts))
    leads = weakref.ref(batch[0].leads.data)
    del batch
    gc.collect()
    assert leads() is None


def test_end_to_end_gradients_match_finite_differences(tiny_setup):
    cfg, experts, prepared = tiny_setup
    for task_name in ("rr", "arrhythmia"):
        model = build_task_model(cfg, experts, tk.TASKS[task_name], seed=3)
        model.feature_stats, model.gate_stats = fit_input_stats(prepared, np.arange(prepared.n))
        idx = np.array([0, 1])
        y = prepared.labels[task_name][idx]

        def loss_fn():
            feats, gate_in = _inputs(model, prepared, idx)
            _, _, combined = _forward_grouped(model, [Tensor(x) for x in feats], Tensor(gate_in))
            return tk.task_loss(combined, [(model.task, y)])[0]

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


def test_bench_times_every_task(tiny_setup):
    cfg, experts, prepared = tiny_setup
    idx = np.arange(40)
    reports = [bench(train(tiny_cfg(epochs=0, tasks=tasks), seed=5, prepared=prepared,
                           experts=experts), prepared, idx)
               for tasks in [("rr",), ("rr", "arrhythmia")]]
    assert reports[1].activation_bytes > reports[0].activation_bytes


def test_bench_throughput_reproducible_within_half(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    idx = np.arange(120)
    a = bench(trained, prepared, idx).throughput_sps
    b = bench(trained, prepared, idx).throughput_sps
    assert abs(a - b) / max(a, b) <= 0.5


def test_lora_fraction_under_full_finetune_alternative():
    # single default layer: 576 trainable vs 4160 for the dense alternative
    assert 576 / 4160 < 0.20


def test_evaluate_requires_nonempty_split(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    with pytest.raises(UsageError):
        evaluate(trained, prepared, np.array([], dtype=int))


def test_bench_requires_nonempty_split(tiny_setup):
    cfg, experts, prepared = tiny_setup
    trained = train(tiny_cfg(epochs=0), seed=5, prepared=prepared, experts=experts)
    with pytest.raises(UsageError, match="bench needs a nonempty split"):
        bench(trained, prepared, np.array([], dtype=int))


@pytest.mark.parametrize("bad", [
    dict(gate_leads=()), dict(gate_leads=(1, 1)), dict(gate_leads=(12,)), dict(gate_leads=(-1,)),
    dict(split=(1.0,)), dict(split=(0.2, 0.2, 0.2, 0.4)),
], ids=["no-leads", "duplicate-lead", "lead-12", "negative-lead",
        "one-ratio", "four-ratios"])
def test_config_rejects_bad_gate_leads_and_split_arity(bad):
    with pytest.raises(UsageError):
        ExperimentConfig(**bad).validate()
    ExperimentConfig(gate_leads=(11, 0)).validate()


def test_config_validation_errors():
    with pytest.raises(UsageError):
        ExperimentConfig(split=(0.7, 0.2, 0.2)).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(ensemble="vote").validate()
    with pytest.raises(UsageError):
        ExperimentConfig(tasks=("rr", "bogus")).validate()
    with pytest.raises(UsageError):
        ExperimentConfig(experts=()).validate()


@pytest.mark.parametrize("bad, message", [
    (dict(tasks=("rr", "sex", "rr")), "experiment.tasks names 'rr' more than once"),
    (dict(experts=(ExpertSpec("x", "spectral", 1), ExpertSpec("x", "statistical", 2))),
     "experts.roster names 'x' more than once"),
], ids=["task", "expert"])
def test_config_rejects_repeated_names(bad, message):
    # a repeated name would share report rows, history keys and checksum keys
    with pytest.raises(UsageError, match=message):
        tiny_cfg(**bad).validate()


@pytest.mark.parametrize("task", ["rr", "arrhythmia"])
def test_mixed_width_roster_matches_a_per_head_loop(task):
    """Widths 16, 8, 16: two stacked groups whose experts interleave on the
    roster give the logits and gradients of one head per expert, bit for bit."""
    cfg = tiny_cfg(experts=(ExpertSpec("a", "spectral", 1, 128, 16),
                            ExpertSpec("b", "statistical", 2, 128, 8),
                            ExpertSpec("c", "spectral", 3, 128, 16)))
    model = build_task_model(cfg, build_experts(cfg), tk.TASKS[task], seed=4)
    assert model.stack.members == [[0, 2], [1]]
    rng = np.random.default_rng(5)
    for group in model.stack.groups:
        for layer in group.layers:
            for t in (layer.lora_b, layer.bias):
                t.data[...] = rng.normal(size=t.shape)
    heads = model.heads
    feats = [Tensor(rng.normal(size=(6, h.in_dim)), requires_grad=True) for h in heads]
    weight = Tensor(rng.normal(size=(6, 3, model.task.output_dim)))
    results = []
    for per_head in (False, True):
        for t in feats:
            t.grad = None
        with Tape() as tape:
            if per_head:
                logits = ad.stack([head_forward(h, f) for h, f in zip(heads, feats)], axis=1)
            else:
                logits = stack_forward(model.stack, model.stack.group_inputs(feats))
            backward(ad.reduce_sum(ad.mul(logits, weight)), tape)
        results.append((logits.data, [f.grad for f in feats]))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    for stacked_grad, loop_grad in zip(results[0][1], results[1][1]):
        np.testing.assert_array_equal(stacked_grad, loop_grad)
    for group, members in zip(model.stack.groups, model.stack.members):
        for j, layer in enumerate(group.layers):
            for key, t in layer.tensors().items():
                for pos, i in enumerate(members):
                    view = heads[i].layers[j].tensors()[key]
                    assert (t.grad is None) == (view.grad is None)
                    if t.grad is not None:
                        np.testing.assert_array_equal(t.grad[pos], view.grad)


def test_single_task_moe_step_records_at_most_12_nodes():
    # the combination and the task loss are one node each
    cfg = ExperimentConfig(n_records=40)
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=0)
    stats = fit_input_stats(prepared, np.arange(prepared.n))
    for name in cfg.tasks:
        model = build_task_model(cfg, experts, tk.task_by_name(name), seed=0)
        model.feature_stats, model.gate_stats = stats
        inputs = _inputs(model, prepared)
        joints = pipeline._stack_tasks([model], inputs)
        _, tape = pipeline._train_step(joints, inputs, [model.targets(prepared)],
                                       np.arange(32)[None], Adam(joints[0].trainable()))
        assert len(tape) <= 12, name
        ops = [node.op for node in tape.nodes]
        # one node per layer: both head layers over all three experts, both gate layers
        assert ops.count("lora_linear") == 4, name
        loss_op = {"regression": "mse", "binary": "weighted_bce_with_logits",
                   "multiclass": "cross_entropy"}[model.task.kind]
        assert ops[-2:] == ["weighted_sum", loss_op], name


@pytest.mark.parametrize("build", [build_task_model, pipeline._build_singles], ids=["moe", "singles"])
@pytest.mark.parametrize("conv_width", [16, 8], ids=["one-width", "interleaved-widths"])
def test_each_task_of_a_joint_fit_trains_as_it_would_alone(build, conv_width):
    """train() steps its tasks together, the four width-1 tasks stacked on a
    task axis; every task's tensors, scalars, history and train_loss equal
    those of a train() of that task alone, bit for bit. At width 8 the
    convolutional expert's head groups sit between the others' (members
    [[0, 2], [1]]), so the stacked forward reorders its experts."""
    cfg = tiny_cfg(n_records=96, epochs=3, experts=(
        ExpertSpec("spec", "spectral", 1, 128, 16),
        ExpertSpec("conv", "convolutional", 2, 224, conv_width),
        ExpertSpec("stat", "statistical", 3, 128, 16)))
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    together = pipeline._train(cfg, cfg.seed, prepared, experts, build)
    assert together.tasks["rr"].stack.members == ([[0, 1, 2]] if conv_width == 16 else [[0, 2], [1]])
    for name in cfg.tasks:
        alone = pipeline._train(replace(cfg, tasks=(name,)), cfg.seed, prepared, experts, build)
        got, want = together.tasks[name], alone.tasks[name]
        assert list(got.named_heads()) == list(want.named_heads())
        for key, head in got.named_heads().items():
            for layer, want_layer in zip(head.layers, want.named_heads()[key].layers):
                for k, t in layer.tensors().items():
                    np.testing.assert_array_equal(t.data, want_layer.tensors()[k].data,
                                                  err_msg=f"{name} {key} {k}")
        assert ((got.target_mean, got.target_std, got.pos_weight, got.neg_weight)
                == (want.target_mean, want.target_std, want.pos_weight, want.neg_weight)), name
        assert list(alone.history) == [k for k in together.history if k.split(".")[0] == name]
        for key in alone.history:
            np.testing.assert_array_equal(together.history[key], alone.history[key], err_msg=key)
            np.testing.assert_array_equal(together.train_loss[key], alone.train_loss[key], err_msg=key)


def test_five_task_step_records_8_lora_nodes_and_at_most_37_nodes():
    """One step for the default roster's five tasks: rr, age, sex and
    potassium (width 1) are one joint of 12 stacked heads and 4 stacked
    gates, arrhythmia is a joint of one. Per joint, 2 head nodes (the hidden
    layer's ReLU in its node), a transpose, 4 gate nodes, the combination
    and one loss node over its tasks' slices (a single task's is its loss);
    an add sums the two. 19 nodes, within the 37 of one loss node per task."""
    cfg = ExperimentConfig(n_records=40)
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=0)
    stats = fit_input_stats(prepared, np.arange(prepared.n))
    models = [build_task_model(cfg, experts, tk.task_by_name(name), seed=0) for name in cfg.tasks]
    for model in models:
        model.feature_stats, model.gate_stats = stats
    inputs = _inputs(models[0], prepared)
    joints = pipeline._stack_tasks(models, inputs)
    assert [joint.index for joint in joints] == [[0, 1, 2, 3], [4]]
    assert joints[0].stack.groups[0].layers[0].w0.shape == (4, 3, 64, 64)
    assert joints[0].gate.layers[0].w0.shape == (4, 64, 250)
    _, tape = pipeline._train_step(joints, inputs,
                                   [model.targets(prepared) for model in models],
                                   np.tile(np.arange(32), (5, 1)),
                                   Adam([p for joint in joints for p in joint.trainable()]))
    ops = [node.op for node in tape.nodes]
    assert ops.count("lora_linear") == 8
    assert [op for op in ops if op in ("mse", "weighted_bce_with_logits", "cross_entropy",
                                       "slice_losses")] == ["slice_losses", "cross_entropy"]
    assert len(tape) <= 37


def _fit_config_joints(n_records=200):
    """The perfbench fit config's five task models (seed 1), stacked into
    joints, with the run's inputs and targets."""
    cfg = ExperimentConfig(seed=1, n_records=n_records, epochs=15)
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=1)
    train_idx, _, _ = split_indices(prepared.n, cfg.split, 1)
    models = [build_task_model(cfg, experts, tk.task_by_name(name), seed=1) for name in cfg.tasks]
    for model in models:
        model.feature_stats, model.gate_stats = fit_input_stats(prepared, train_idx)
    inputs = _inputs(models[0], prepared)
    joints = pipeline._stack_tasks(models, inputs)
    return joints, inputs, [model.targets(prepared) for model in models]


def test_five_task_fit_step_records_one_loss_node_per_joint_and_19_nodes():
    """The step a fit takes, reading each joint's first-layer products: 8
    lora_linear nodes, no relu node, one loss node per joint and an add, 19
    nodes."""
    joints, inputs, targets = _fit_config_joints(n_records=40)
    assert all(len(joint.xw0s) == 2 for joint in joints)     # a head group and the gate
    _, tape = pipeline._train_step(joints, inputs, targets, np.tile(np.arange(32), (5, 1)),
                                   Adam([p for joint in joints for p in joint.trainable()]))
    ops = [node.op for node in tape.nodes]
    assert ops.count("lora_linear") == 8
    assert [op for op in ops if op in ("mse", "weighted_bce_with_logits", "cross_entropy",
                                       "slice_losses")] == ["slice_losses", "cross_entropy"]
    assert "relu" not in ops
    assert ops[-1] == "add" and len(tape) == 19


def test_train_forms_each_joints_first_layer_products_once(tiny_setup, monkeypatch):
    cfg, experts, prepared = tiny_setup
    calls = []
    frozen = pipeline._frozen_products
    monkeypatch.setattr(pipeline, "_frozen_products", lambda *a: calls.append(a) or frozen(*a))
    train(replace(cfg, epochs=2), prepared=prepared, experts=experts)
    assert len(calls) == 2     # the four width-1 tasks' joint and arrhythmia's


def test_formed_first_layer_products_equal_the_nodes_own_at_the_fit_config():
    """A fit gathers each batch's rows of x @ w0.T formed once over all
    rows. At the fit config's batch sizes (32 and a last batch of 12; the
    validation pass reads 40 rows) the step's every node output and every
    gradient equal those of a step forming the product in the node, bit for
    bit: one BLAS matrix product per slice either way. A 1-row batch is a
    matrix-vector product in the node, so its rows agree only to rounding."""
    formed, inputs, targets = _fit_config_joints()
    in_node, _, _ = _fit_config_joints()
    for joint in in_node:
        joint.xw0s = None
    rng = np.random.default_rng(0)
    for size in (12, 32, 40, 1):
        rows = np.stack([rng.permutation(200)[:size] for _ in range(5)])
        steps = []
        for joints in (formed, in_node):
            params = [p for joint in joints for p in joint.trainable()]
            _, tape = pipeline._train_step(joints, inputs, targets, rows, Adam(params, lr=0.0))
            steps.append(([node.output.data for node in tape.nodes], [p.grad for p in params]))
        for got, want in zip(sum(steps[0], []), sum(steps[1], [])):
            if size > 1:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_task_models_view_the_joint_tensors(tiny_setup):
    # a write to a joint tensor (an Adam step) is a write to each task's
    # view; a task that matches no other is a joint of one, on a task axis
    cfg, experts, prepared = tiny_setup
    for names in (("rr", "sex"), ("arrhythmia",)):
        models = [build_task_model(cfg, experts, tk.task_by_name(name), seed=0) for name in names]
        for model in models:
            model.feature_stats, model.gate_stats = fit_input_stats(prepared, np.arange(prepared.n))
        (joint,) = pipeline._stack_tasks(models, _inputs(models[0], prepared))
        for p in joint.trainable():
            p.data += 1.0
        for t, model in enumerate(models):
            for group, joint_group in zip(model.stack.groups + [model.gate],
                                          joint.stack.groups + [joint.gate]):
                for layer, joint_layer in zip(group.layers, joint_group.layers):
                    for k, view in layer.tensors().items():
                        stacked = joint_layer.tensors()[k].data
                        assert stacked.shape == (len(models),) + view.shape, (names, k)
                        assert np.shares_memory(view.data, stacked), (names, k)
                        np.testing.assert_array_equal(view.data, stacked[t])

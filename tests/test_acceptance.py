"""Acceptance criteria, one test per criterion, each printing a PASS line.

The expensive fixture (10k records x 3 seeds x 30 epochs, singles + MoE)
is built once and shared by the criteria that need trained systems. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import os
import time

import numpy as np
import pytest

from enecg import autodiff as ad
from enecg import tasks as tk
from enecg.adapters import LoraLinear, head_checksum, head_forward
from enecg.autodiff import Tensor, Tape, backward
from enecg.cli import run as cli_run
from enecg.gating import build_gate, ensemble_combine, gate_forward
from enecg.optim import finite_diff_grad
from enecg.pipeline import (
    ExperimentConfig, ExpertSpec, _forward_grouped, _inputs, _task_logits, bench,
    build_experts, build_task_model, compare_strategies, evaluate, fit_input_stats,
    load_task_model, prepare_dataset, run_suite, save_task_model, split_indices, train,
)
from enecg.saliency import ensemble_scalar_model, integrated_gradients
from enecg.signal import GeneratorConfig, generate, load_records, save_records
from oracles import expert_features, head_forward_frozen

SUITE_CFG = ExperimentConfig(seed=1, n_records=10000, epochs=30, repeats=3)

ARCH_OF = {spec.name: spec.arch for spec in SUITE_CFG.experts}


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    runs = run_suite(SUITE_CFG)
    return runs, time.perf_counter() - t0


def compact_cfg():
    return ExperimentConfig(
        seed=3, n_records=64, epochs=1, batch_size=8, repeats=1,
        experts=(ExpertSpec("spec", "spectral", 1, 128, 16),
                 ExpertSpec("conv", "convolutional", 2, 224, 16),
                 ExpertSpec("stat", "statistical", 3, 128, 16)),
        head_hidden=16, head_rank=2, gate_pooled_len=32, gate_hidden=16,
        data=GeneratorConfig(duration_s=4.0, fs_hz=125.0),
    )


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # every primitive against central finite differences, away from kinks
    worst = 0.0
    x = Tensor(rng.normal(size=(3, 4)))
    w1 = Tensor(rng.normal(size=(3, 4)))
    mat = Tensor(rng.normal(size=(4, 3)))
    kern = Tensor(rng.normal(size=(2, 3, 3)))
    away = Tensor(np.linspace(0.2, 3.0, 12).reshape(3, 4) * np.sign(rng.normal(size=(3, 4))))
    lora = [Tensor(rng.normal(size=s)) for s in [(2, 4), (1, 4), (2, 1), (2,), (3, 2)]]
    target, labels = rng.normal(size=(3, 4)), np.array([3.0, 0.0, 1.0])
    y = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])

    def on_line(t):
        return ad.line(ad.reshape(t, (1, 3, 4)), w1.data[None], [0.25, 0.75])

    primitives = [
        ("add", lambda t: ad.reduce_sum(ad.add(t, w1))),
        ("sub", lambda t: ad.reduce_sum(ad.sub(w1, t))),
        ("mul", lambda t: ad.reduce_sum(ad.mul(t, t))),
        ("neg", lambda t: ad.reduce_sum(ad.neg(t))),
        ("matmul", lambda t: ad.reduce_sum(ad.matmul(t, mat))),
        ("lora_linear", lambda t: ad.reduce_sum(ad.mul(ad.lora_linear(t, *lora[:4]), lora[4]))),
        ("transpose", lambda t: ad.reduce_sum(ad.mul(ad.transpose(t), ad.transpose(w1)))),
        ("reshape", lambda t: ad.reduce_sum(ad.mul(ad.reshape(t, (4, 3)), mat))),
        ("concat", lambda t: ad.reduce_sum(ad.mul(ad.concat([t, t], axis=1),
                                                  ad.concat([w1, w1], axis=1)))),
        ("take_rows", lambda t: ad.reduce_sum(ad.take_rows(t, [2, 0]))),
        ("softplus", lambda t: ad.reduce_sum(ad.softplus(t))),
        ("softmax", lambda t: ad.reduce_sum(ad.mul(ad.softmax(t, axis=1), w1))),
        ("log_softmax", lambda t: ad.reduce_sum(ad.mul(ad.log_softmax(t, axis=1), w1))),
        ("sqrt", lambda t: ad.reduce_sum(ad.sqrt(ad.add(ad.mul(t, t), 0.5)))),
        ("mean", lambda t: ad.reduce_mean(ad.mul(t, t))),
        ("sum_axis", lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t, axis=1), Tensor([1.0, -2.0, 3.0])))),
        ("conv1d", lambda t: ad.reduce_sum(ad.conv1d(t, kern, stride=1))),
        ("mean_pool", lambda t: ad.reduce_sum(ad.mean_pool(t, 2))),
        ("dft_magnitude", lambda t: ad.reduce_sum(ad.dft_magnitude(t, 3))),
        ("mse", lambda t: ad.slice_losses(t, [("mse", target)])[0]),
        ("weighted_bce_with_logits",
         lambda t: ad.slice_losses(t, [("weighted_bce_with_logits", y, 0.5 + y)])[0]),
        ("cross_entropy", lambda t: ad.slice_losses(t, [("cross_entropy", labels)])[0]),
        ("weighted_sum", lambda t: ad.reduce_sum(ad.mul(ad.weighted_sum(
            ad.reduce_sum(t, axis=1, keepdims=True), t, axis=0), Tensor([1.0, -2.0, 0.5, 3.0])))),
        ("ensemble_combine", lambda t: ad.reduce_sum(ad.mul(
            ensemble_combine(t, ad.softmax(ad.mul(t, w1), axis=0)), Tensor([1.0, -2.0, 0.5, 3.0])))),
        ("line", lambda t: ad.reduce_sum(ad.mul(ad.line(ad.reshape(t, (1, 3, 4)), w1.data[None],
                                                        [0.25, 0.75]), w1))),
        ("dft_magnitude on a line", lambda t: ad.reduce_sum(ad.dft_magnitude(ad.line(
            ad.reshape(t, (1, 3, 4)), w1.data[None], [0.25, 0.75]), 3))),
        # linear ops carry the line: each runs once on its base
        ("mean_pool on a line", lambda t: ad.reduce_sum(ad.mul(ad.mean_pool(
            on_line(t), 2), Tensor(np.linspace(-1.0, 2.0, 12).reshape(2, 3, 2))))),
        ("conv1d on a line", lambda t: ad.reduce_sum(ad.mul(ad.conv1d(
            on_line(t), kern, stride=1), Tensor(np.linspace(-1.0, 2.0, 8).reshape(2, 2, 2))))),
        ("take_rows on a line", lambda t: ad.reduce_sum(ad.mul(ad.take_rows(
            on_line(t), [2, 0], axis=1), Tensor(np.linspace(-1.0, 2.0, 16).reshape(2, 2, 4))))),
        ("reshape on a line", lambda t: ad.reduce_sum(ad.mul(ad.reshape(
            on_line(t), (2, 12)), Tensor(np.linspace(-1.0, 2.0, 24).reshape(2, 12))))),
    ]
    stat_weights = Tensor(np.linspace(0.5, 2.0, 24).reshape(3, 8))   # no sample sums to ~0
    kinky = [("relu", lambda t: ad.reduce_sum(ad.relu(t))),
             ("max_pool", lambda t: ad.reduce_sum(ad.max_pool(t, 2))),
             ("patch_stats", lambda t: ad.reduce_sum(ad.mul(ad.patch_stats(t, 2), stat_weights))),
             # a short line, so no window's max or min changes sample along it
             ("patch_stats on a line", lambda t: ad.reduce_sum(ad.mul(ad.patch_stats(ad.line(
                 ad.reshape(t, (1, 3, 4)), 0.01 * w1.data[None], [0.25, 0.75]), 2), stat_weights)))]
    for name, build in primitives + kinky:
        probe = away if name in ("relu", "max_pool", "patch_stats", "patch_stats on a line") else x
        probe.requires_grad = True
        probe.zero_grad()
        with Tape() as tape:
            backward(build(probe), tape)
        analytic = probe.grad.copy()
        probe.requires_grad = False
        numeric = finite_diff_grad(lambda t: build(t).item(), probe, h=1e-5).data
        err = rel_err(analytic, numeric)
        assert err <= 1e-6, f"primitive {name}: rel err {err:.2e}"
        worst = max(worst, err)

    # full loss over every trainable parameter, 2-sample batch, all tasks
    cfg = compact_cfg()
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    idx = np.array([0, 1])
    worst_e2e = 0.0
    for name in cfg.tasks:
        model = build_task_model(cfg, experts, tk.task_by_name(name), seed=7)
        model.feature_stats, model.gate_stats = fit_input_stats(prepared, np.arange(prepared.n))
        y = prepared.labels[name][idx]

        def loss_fn():
            feats, gate_in = _inputs(model, prepared, idx)
            _, _, combined = _forward_grouped(model, [Tensor(x) for x in feats], Tensor(gate_in))
            return tk.task_loss(combined, [(model.task, y)])[0]

        with Tape() as tape:
            backward(loss_fn(), tape)
        for p in model.trainable():
            analytic = p.grad.copy()
            p.requires_grad = False
            numeric = finite_diff_grad(lambda t: loss_fn().item(), p, h=1e-5).data
            p.requires_grad = True
            err = rel_err(analytic, numeric)
            assert err <= 1e-4, f"{name}: end-to-end rel err {err:.2e}"
            worst_e2e = max(worst_e2e, err)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, True, f"primitives worst rel {worst:.1e}, end-to-end worst rel "
                    f"{worst_e2e:.1e}, {elapsed:.1f}s < 60s")


def test_criterion_2_lora_identity_and_frozen_contract(suite):
    runs, _ = suite
    # identity at initialization: adapted forward == frozen-base forward
    cfg = compact_cfg()
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    idx = np.arange(16)
    worst = 0.0
    for name in cfg.tasks:
        model = build_task_model(cfg, experts, tk.task_by_name(name), seed=9)
        feats = expert_features(model.stack, _inputs(model, prepared, idx)[0])
        for head, f in zip(model.heads, feats):
            delta = np.abs(head_forward(head, f).data - head_forward_frozen(head, f).data)
            worst = max(worst, float(delta.max()))
    assert worst <= 1e-12

    # frozen contract after 30 epochs: expert and w0 checksums unchanged
    reference = build_experts(SUITE_CFG)
    for run in runs:
        trained = run.moe
        for m, ref in zip(trained.experts, reference):
            assert m.checksum() == ref.checksum()
        fresh = {name: build_task_model(SUITE_CFG, reference, tk.task_by_name(name), run.seed)
                 for name in SUITE_CFG.tasks}
        for name, model in trained.tasks.items():
            for trained_head, fresh_head in zip(model.heads, fresh[name].heads):
                assert head_checksum(trained_head) == head_checksum(fresh_head)
    report(2, True, f"init identity within {worst:.1e}; expert and w0 checksums "
                    f"unchanged after {SUITE_CFG.epochs} epochs x {len(runs)} seeds")


def test_criterion_3_parameter_accounting(suite):
    runs, _ = suite
    rng = np.random.default_rng(0)
    layer = LoraLinear(64, 64, rank=4, rng=rng)
    assert layer.trainable_count() == 4 * (64 + 64) + 64 == 576
    full = 64 * 64 + 64
    assert full == 4160
    assert abs(576 / 4160 - 0.138) < 5e-4

    def lora_count(d, k, r, bias=True):
        return r * (d + k) + (d if bias else 0)

    expected = 0
    for name in SUITE_CFG.tasks:
        L = tk.TASKS[name].output_dim
        expected += 3 * (lora_count(64, 64, 4) + lora_count(L, 64, min(4, L)))
        gate_in = len(SUITE_CFG.gate_leads) * SUITE_CFG.gate_pooled_len
        expected += lora_count(64, gate_in, 4) + lora_count(3 * L, 64, min(4, min(3 * L, 64)))
    run0 = runs[0]
    report_metrics = bench(run0.moe, run0.prepared, run0.test_idx[:64])
    assert report_metrics.params_trainable == expected
    assert report_metrics.params_total == report_metrics.params_trainable + report_metrics.params_frozen
    report(3, True, f"per-layer 576 == r(d+k)+d, ratio 576/4160 ~ 0.138, "
                    f"bench trainable count {report_metrics.params_trainable} == closed form")


def test_criterion_4_gating_normalization():
    rng = np.random.default_rng(1)
    gate = build_gate(3, 15, rng, lead_indices=(1,), pooled_len=250)
    x = rng.normal(size=(1000, 250))
    w = gate_forward(gate, Tensor(x)).data
    sums = w.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert (w >= 0).all()
    report(4, True, f"1000 inputs: expert-axis sums within {np.abs(sums - 1).max():.1e} of 1, all >= 0")


def test_criterion_5_ensemble_mechanics():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 15))
    worst = 0.0
    for j in range(4):
        w = np.zeros((4, 15))
        w[j] = 1.0
        got = ensemble_combine(Tensor(logits), Tensor(w)).data
        worst = max(worst, float(np.abs(got - logits[j]).max()))
    uniform = ensemble_combine(Tensor(logits), Tensor(np.full((4, 15), 0.25))).data
    worst = max(worst, float(np.abs(uniform - logits.mean(axis=0)).max()))
    weights = rng.random(size=(4, 15))
    got = ensemble_combine(Tensor(logits), Tensor(weights)).data
    for col in range(15):
        acc = 0.0
        for i in range(4):
            acc += weights[i, col] * logits[i, col]
        worst = max(worst, abs(got[col] - acc))
    assert worst <= 1e-12
    report(5, True, f"selector/average/random vs scalar-loop oracle within {worst:.1e}")


def _task_means(runs, cfg):
    singles = {}
    moe = {}
    for name in cfg.tasks:
        per_expert = []
        for spec in cfg.experts:
            vals = [evaluate(r.singles, r.prepared, r.test_idx, (name,))[f"{name}.{spec.name}"]
                    for r in runs]
            per_expert.append(float(np.mean(vals)))
        singles[name] = per_expert
        moe_vals = [evaluate(r.moe, r.prepared, r.test_idx)[name] for r in runs]
        moe[name] = (float(np.mean(moe_vals)), float(np.std(moe_vals)))
    return singles, moe


def test_criterion_6_ensemble_advantage(suite):
    runs, build_time = suite
    assert build_time < 900.0, f"suite took {build_time:.0f}s >= 15 min"
    singles, moe = _task_means(runs, SUITE_CFG)
    wins = 0
    within = 0
    best_identity = {}
    lines = []
    for name in SUITE_CFG.tasks:
        task = tk.TASKS[name]
        per_expert = singles[name]
        if task.higher_is_better:
            best_idx = int(np.argmax(per_expert))
            best = per_expert[best_idx]
            strictly = moe[name][0] > best
            close = moe[name][0] >= 0.95 * best
        else:
            best_idx = int(np.argmin(per_expert))
            best = per_expert[best_idx]
            strictly = moe[name][0] < best
            close = moe[name][0] <= 1.05 * best
        best_identity[name] = ARCH_OF[SUITE_CFG.experts[best_idx].name]
        wins += strictly
        within += strictly or close
        lines.append(f"{name}: moe {moe[name][0]:.4g} vs best single "
                     f"{best:.4g} ({best_identity[name]})")
    distinct = set(best_identity.values())
    ok = wins >= 3 and within == len(SUITE_CFG.tasks) and len(distinct) >= 2
    report(6, ok, f"{wins}/5 strict wins, all within 5%, best-single identities "
                  f"{sorted(distinct)}; {build_time / 60:.1f} min < 15 min | " + "; ".join(lines))
    assert wins >= 3, lines
    assert within == len(SUITE_CFG.tasks), lines
    assert len(distinct) >= 2, f"best single expert identical across tasks: {best_identity}"


def test_criterion_7_oracle_learnability(suite):
    runs, _ = suite
    # noiseless RR: beat half the constant-mean MAE
    cfg = ExperimentConfig(
        seed=2, n_records=2000, epochs=30, repeats=1, tasks=("rr",),
        data=GeneratorConfig(noise_amplitude=0.0))
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    tr, va, te = split_indices(prepared.n, cfg.split, cfg.seed)
    trained = train(cfg, seed=cfg.seed, prepared=prepared, experts=experts)
    mae = evaluate(trained, prepared, te)["rr"]
    y = prepared.labels["rr"]
    const_mae = float(np.mean(np.abs(y[te] - y[tr].mean())))
    assert mae <= 0.5 * const_mae, f"rr MAE {mae:.2f} vs constant-mean {const_mae:.2f}"

    # potassium on the default 97/3 suite: beats the all-negative F1 of 0
    potassium = [evaluate(r.moe, r.prepared, r.test_idx)["potassium"] for r in runs]
    assert min(potassium) > 0.0
    report(7, True, f"noiseless rr MAE {mae:.2f} <= 0.5 x {const_mae:.2f}; "
                    f"potassium F1 min {min(potassium):.3f} > 0")


def test_criterion_8_strategy_comparison(suite):
    runs, _ = suite
    comparison = compare_strategies(SUITE_CFG, runs=runs)
    assert comparison.strategies == ["zero_shot", "greedy", "sample_aware", "moe"]
    assert list(comparison.tasks) == list(SUITE_CFG.tasks)
    for name in ("rr", "age"):
        assert comparison.cells[name]["zero_shot"].mean is None  # marked n/a
        for strat in ("greedy", "sample_aware", "moe"):
            assert comparison.cells[name][strat].mean is not None
    for name in ("sex", "potassium", "arrhythmia"):
        assert comparison.cells[name]["zero_shot"].mean is not None
    stds = {}
    for name in ("rr", "age"):
        stds[name] = (comparison.cells[name]["moe"].std, comparison.cells[name]["greedy"].std)
        assert stds[name][0] <= stds[name][1], f"{name}: moe std above greedy std"
    doc = json.loads(comparison.to_json())
    assert doc["results"]["rr"]["zero_shot"] == "n/a"
    report(8, True, "table complete; zero-shot n/a on both regressions; "
                    + "; ".join(f"{k}: moe std {m:.3g} <= greedy std {g:.3g}"
                                for k, (m, g) in stds.items()))


def test_criterion_9_integrated_gradients_completeness(suite):
    runs, _ = suite
    run0 = runs[0]
    model = run0.moe.tasks["rr"]
    fn = ensemble_scalar_model(run0.moe.experts, model, tk.TASKS["rr"])
    gen = GeneratorConfig(seed=77, n_records=20)
    ratios = []
    for record, _ in generate(gen):
        smap = integrated_gradients(fn, record.leads, steps=256)
        delta = abs(smap.target_value - smap.baseline_value)
        ratios.append(smap.completeness_gap / delta)
    worst = max(ratios)
    assert worst <= 0.01, f"worst completeness ratio {worst:.3%}"

    # purpose-built linear model is exact at m=1
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 7))

    def linear(batch):
        return ad.matmul(ad.reshape(batch, (batch.shape[0], w.size)), Tensor(w.reshape(-1)))

    x = Tensor(rng.normal(size=(3, 7)))
    smap = integrated_gradients(linear, x, steps=1)
    exact = np.abs(smap.attributions - w * x.data).max()
    assert exact <= 1e-10 and smap.completeness_gap <= 1e-10
    report(9, True, f"worst gap ratio {worst:.3%} <= 1% at m=256 over 20 records; "
                    f"linear model exact to {max(exact, smap.completeness_gap):.1e} at m=1")


def test_criterion_10_determinism_and_formats(tmp_path, suite):
    runs, _ = suite
    # byte-identical dataset files and eval metrics under identical seeds
    cfg_text = (
        "[experiment]\nseed = 6\nn_records = 80\nepochs = 1\nbatch_size = 16\nrepeats = 1\n"
        "[experts]\nroster = spec:spectral:1:128:16; stat:statistical:2:128:16\n"
        "[heads]\nhidden_dim = 16\nrank = 2\n"
        "[gating]\npooled_len = 25\nhidden_dim = 16\n"
        "[data]\nduration_s = 2.0\nfs_hz = 100.0\n")
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    outs = [str(tmp_path / f"g{i}") for i in range(2)]
    for out in outs:
        assert cli_run(["gen", "--config", str(cfg_path), "--out", out]) == 0
    byte_a = open(os.path.join(outs[0], "records_0000.txt"), "rb").read()
    byte_b = open(os.path.join(outs[1], "records_0000.txt"), "rb").read()
    assert byte_a == byte_b

    out = str(tmp_path / "run")
    assert cli_run(["train", "--config", str(cfg_path), "--out", out]) == 0
    metrics = []
    for _ in range(2):
        assert cli_run(["eval", "--config", str(cfg_path), "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "metrics.json")).read())
        metrics.append([(t["task"], t["mean"]) for t in doc["tasks"]])
    assert metrics[0] == metrics[1]

    # record round-trip is value-exact
    pairs = generate(GeneratorConfig(seed=8, n_records=20, duration_s=2.0, fs_hz=100.0))
    rec_path = tmp_path / "records.txt"
    save_records(pairs, rec_path)
    loaded = load_records(rec_path)
    for (r0, l0), (r1, l1) in zip(pairs, loaded):
        assert np.array_equal(r0.leads.data, r1.leads.data)
        assert (l0.rr_ms, l0.age_years, l0.sex, l0.potassium_abnormal, l0.arrhythmia_class) == \
               (l1.rr_ms, l1.age_years, l1.sex, l1.potassium_abnormal, l1.arrhythmia_class)

    # checkpoint round-trip is value-exact on a trained model
    model = runs[0].moe.tasks["arrhythmia"]
    ckpt = tmp_path / "arrhythmia.ckpt"
    save_task_model(model, ckpt)
    back = load_task_model(ckpt)
    for h0, h1 in zip(model.heads, back.heads):
        for l0, l1 in zip(h0.layers, h1.layers):
            for key, t in l0.tensors().items():
                assert np.array_equal(t.data, l1.tensors()[key].data)
    assert back.target_mean == model.target_mean and back.target_std == model.target_std
    idx = runs[0].test_idx[:32]
    np.testing.assert_array_equal(
        _task_logits(model, runs[0].prepared, idx),
        _task_logits(back, runs[0].prepared, idx))
    report(10, True, "byte-identical dataset reruns, identical eval metrics, "
                     "value-exact record and checkpoint round-trips")

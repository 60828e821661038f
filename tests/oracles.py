"""Reference implementations that tests compare the library against."""

import math

import numpy as np

from enecg import autodiff as ad
from enecg import signal as sg
from enecg import tasks as tk
from enecg.adapters import trainable_params
from enecg.gating import build_gate, ensemble_combine, gate_forward
from enecg.optim import Adam
from enecg.signal import LabelSet, _record_rng


def frozen_layer_forward(layer, x):
    """A LoRA layer with its low-rank update term dropped: x @ w0.T + bias."""
    return ad.add(ad.matmul(x, ad.transpose(layer.w0)), layer.bias)


def head_forward_frozen(head, features):
    """A head with every low-rank update dropped (frozen-base behavior)."""
    h = features
    for i, layer in enumerate(head.layers):
        h = frozen_layer_forward(layer, h)
        if i + 1 < len(head.layers):
            h = ad.relu(h)
    return h


def expert_features(stack, groups):
    """Per-expert (B,k) feature Tensors, in roster order, from the (n,B,k)
    per-group arrays of a ``HeadStack``'s ``members``."""
    rows = {}
    for members, x in zip(stack.members, groups):
        rows.update(zip(members, x))
    return [ad.Tensor(rows[i]) for i in range(len(rows))]


def conv1d_einsum(x, kernels, stride):
    """Valid cross-correlation of an array by einsum over strided windows."""
    windows = np.lib.stride_tricks.sliding_window_view(x, kernels.shape[-1], axis=-1)[..., ::stride, :]
    return np.einsum("oiw,...itw->...ot", kernels, windows, optimize=True)


def dft_magnitude_tables(x, bins):
    """|DFT| of the first ``bins`` bins as products with cosine and sine tables."""
    theta = 2.0 * np.pi * np.outer(np.arange(bins), np.arange(x.shape[-1])) / x.shape[-1]
    return np.hypot(x @ np.cos(theta).T, -(x @ np.sin(theta).T))


def dft_magnitude_tables_backward(x, bins, g):
    """Gradient of sum(g * |DFT|) with respect to ``x`` from the cosine and
    sine tables, with the subgradient 0 at a zero magnitude."""
    theta = 2.0 * np.pi * np.outer(np.arange(bins), np.arange(x.shape[-1])) / x.shape[-1]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    re, im = x @ cos_t.T, -(x @ sin_t.T)
    mag = np.hypot(re, im)
    safe = np.where(mag > 0, mag, 1.0)
    cr = np.where(mag > 0, g * re / safe, 0.0)
    ci = np.where(mag > 0, g * im / safe, 0.0)
    return cr @ cos_t - ci @ sin_t


def patch_stats_composition(x, window, count=None):
    """``patch_stats`` built from pooling and elementwise primitives."""
    mean = ad.mean_pool(x, window, count=count)
    ex2 = ad.mean_pool(ad.mul(x, x), window, count=count)
    var = ad.relu(ad.sub(ex2, ad.mul(mean, mean)))
    std = ad.sqrt(ad.add(var, 1e-12))
    mx = ad.max_pool(x, window, count=count)
    mn = ad.neg(ad.max_pool(ad.neg(x), window, count=count))
    return ad.concat([mean, std, mx, mn], axis=-1)


def task_loss_composed(task, logits, targets, pos_weight=1.0, neg_weight=1.0):
    """``tasks.task_loss`` composed from elementwise, softplus, log_softmax
    and reduction primitives: 4 tape nodes for MSE, 9 for weighted BCE and
    4 for cross-entropy, where the fused losses take one each."""
    n = logits.shape[0]
    if task.kind == "regression":
        diff = ad.sub(ad.reshape(logits, (n,)), ad.Tensor(targets))
        return ad.reduce_mean(ad.mul(diff, diff))
    if task.kind == "binary":
        z = ad.reshape(logits, (n,))
        y = targets.astype(np.float64)
        w = np.where(y > 0.5, pos_weight, neg_weight)
        pos_term = ad.mul(ad.Tensor(y), ad.softplus(ad.neg(z)))
        neg_term = ad.mul(ad.Tensor(1.0 - y), ad.softplus(z))
        return ad.reduce_mean(ad.mul(ad.Tensor(w), ad.add(pos_term, neg_term)))
    onehot = np.zeros((n, task.output_dim))
    onehot[np.arange(n), targets.astype(int)] = 1.0
    picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits, axis=1), ad.Tensor(onehot)))
    return ad.mul(picked, -1.0 / n)


def sigmoid_masked(x):
    """The logistic function piecewise through boolean masks, one exp per
    piece: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    pos = x >= 0
    sig = np.empty_like(x)
    sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    sig[~pos] = e / (1.0 + e)
    return sig


def ensemble_combine_composed(logits, weights):
    """``gating.ensemble_combine`` as mul and reduce_sum over the expert axis."""
    return ad.reduce_sum(ad.mul(weights, logits), axis=len(logits.shape) - 2)


def add_gaussian(row, fs, center_s, amp, width_s):
    """Add one Gaussian wave into ``row`` in place, cut to 4.5 widths."""
    if amp == 0.0:
        return
    t_len = row.shape[0]
    lo = max(0, int(math.floor((center_s - 4.5 * width_s) * fs)))
    hi = min(t_len, int(math.ceil((center_s + 4.5 * width_s) * fs)) + 1)
    if hi <= lo:
        return
    t = np.arange(lo, hi) / fs
    row[lo:hi] += amp * np.exp(-0.5 * ((t - center_s) / width_s) ** 2)


def synthesize_per_beat(cfg, index):
    """``signal.synthesize`` rendered one wave at a time: (leads array, labels).
    Like it, reads the morphology constants of ``signal`` at each call."""
    rng = _record_rng(cfg.seed, index)
    t_len = int(round(cfg.duration_s * cfg.fs_hz))
    cls = int(rng.integers(len(sg.DEFAULT_TEMPLATES)))
    tpl = sg.DEFAULT_TEMPLATES[cls]
    heart_rate = float(rng.uniform(*cfg.heart_rate_bpm)) * tpl.hr_scale
    sex = int(rng.random() < cfg.sex_ratio)
    potassium = int(rng.random() < cfg.potassium_rate)
    rt_s = float(rng.uniform(*sg.RT_RANGE_S))
    lo, hi = sg.RT_RANGE_S
    age = 100.0 * (rt_s - lo) / (hi - lo) + float(rng.uniform(-sg.AGE_NOISE_YEARS, sg.AGE_NOISE_YEARS))
    labels = LabelSet(60000.0 / heart_rate, float(np.clip(age, 0.0, 110.0)), sex, potassium, cls)
    gain = float(np.exp(rng.normal(0.0, sg.AMP_JITTER)))
    p_factor = sg.SEX_P_FACTORS[sex] * float(np.exp(rng.normal(0.0, sg.P_AMP_JITTER)))
    t_factor = tpl.t_amp_scale * (2.0 if potassium else 1.0) * float(np.exp(rng.normal(0.0, sg.T_AMP_JITTER)))
    t_width_factor = (0.5 if potassium else 1.0) * float(np.exp(rng.normal(0.0, sg.T_WIDTH_JITTER)))

    rr_s = 60.0 / heart_rate
    centers, wide = [], []
    c = float(rng.uniform(0.1, 0.9)) * rr_s
    k = 0
    while c < cfg.duration_s + 0.5:
        centers.append(c)
        premature_next = tpl.premature_every > 0 and (k + 1) % tpl.premature_every == 0
        wide.append(tpl.premature_every > 0 and k % tpl.premature_every == 0 and k > 0)
        interval = rr_s * (1.0 + float(rng.uniform(-tpl.rr_jitter, tpl.rr_jitter)))
        if premature_next:
            interval *= 0.55
        elif tpl.premature_every > 0 and k % tpl.premature_every == 0 and k > 0:
            interval *= 1.45
        c += interval
        k += 1

    waves = sg.DEFAULT_WAVES
    sources = np.zeros((3, t_len))
    for k, center in enumerate(centers):
        drop_p = tpl.drop_p_every > 0 and k % tpl.drop_p_every == 0
        wscale = tpl.qrs_width_scale * (2.2 if wide[k] else 1.0)
        if not drop_p:
            p = waves["P"]
            add_gaussian(sources[0], cfg.fs_hz, center + p.offset_s,
                         gain * p.amplitude_mv * tpl.p_scale * p_factor, p.width_s)
        for name in ("Q", "R", "S"):
            w = waves[name]
            add_gaussian(sources[1], cfg.fs_hz, center + w.offset_s * wscale,
                         gain * w.amplitude_mv * tpl.qrs_amp_scale, w.width_s * wscale)
        t_wave = waves["T"]
        add_gaussian(sources[2], cfg.fs_hz, center + rt_s + tpl.t_shift_s,
                     gain * t_wave.amplitude_mv * t_factor, t_wave.width_s * t_width_factor)

    leads = np.asarray(sg.DEFAULT_LEAD_MIX, dtype=np.float64) @ sources
    if cfg.noise_amplitude > 0:
        leads = leads + cfg.noise_amplitude * rng.standard_normal(leads.shape)
    return leads, labels


def train_sample_aware(gate_inputs, logits_per_expert, labels, task, seed=0, lead_indices=(1,),
                       pooled_len=250, hidden_dim=64, epochs=30, batch_size=32, lr=1e-3,
                       per_coordinate=True, class_weighted=True):
    """The sample-aware baseline's fit as its own Adam loop: a fully
    trainable gate fitted on validation gate inputs by the task loss of its
    weighted combination of the experts' (N,B,L) logits."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xAE)))
    n_experts, n, _ = np.asarray(logits_per_expert).shape
    gate = build_gate(n_experts, task.output_dim, rng, lead_indices=lead_indices,
                      pooled_len=pooled_len, hidden_dim=hidden_dim,
                      per_coordinate=per_coordinate, lora_only=False)
    stacked = np.transpose(np.asarray(logits_per_expert, dtype=np.float64), (1, 0, 2))
    opt = Adam(trainable_params(gate), lr=lr)
    weighted = class_weighted and task.kind == "binary"
    pos_w, neg_w = tk.class_weights(labels) if weighted else (1.0, 1.0)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            opt.zero_grad()
            with ad.Tape() as tape:
                w = gate_forward(gate, ad.Tensor(gate_inputs[batch]))
                combined = ensemble_combine(ad.Tensor(stacked[batch]), w)
                loss, _ = tk.task_loss(combined, [(task, labels[batch], pos_w, neg_w)])
                ad.backward(loss, tape)
            opt.step()
    return gate

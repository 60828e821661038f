"""MoE gating over a sampled lead subset, the weighted-sum ensemble, and
the baseline weighting strategies used for comparison.

The gate maps a pooled lead subset through two LoRA-adapted linear layers
to one score per (expert, output coordinate) and softmaxes over the expert
axis, so weights are nonnegative and sum to one per coordinate. A config
switch collapses the coordinate axis to a single per-expert weight.

The confidence ("zero-shot"), greedy-search ("training-free") and
sample-aware ("tuning") strategies are explicit reconstructions of the
usual ensemble-weighting baselines: static weights from validation logits
for the first two, a small fully-trainable gate fitted on the validation
split for the third.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .adapters import LoraLinear
from .autodiff import Tensor, Tape, backward
from .errors import DimensionError, NotApplicableError, UsageError
from .optim import Adam
from .signal import downsample, leads_sample


@dataclass
class GatingNetwork:
    """Two LoRA-adapted layers producing per-expert ensemble weights."""
    lead_indices: list[int]
    pooled_len: int
    n_experts: int
    out_dim: int                      # L of the task being gated
    per_coordinate: bool              # True: one weight per (expert, coordinate)
    layers: list[LoraLinear] = field(repr=False)

    @property
    def weight_dim(self) -> int:
        return self.out_dim if self.per_coordinate else 1

    @property
    def input_dim(self) -> int:
        return len(self.lead_indices) * self.pooled_len

    def trainable(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.extend(layer.trainable())
        return out


def build_gate(n_experts: int, out_dim: int, rng: np.random.Generator,
               lead_indices=(1,), pooled_len: int = 250, hidden_dim: int = 64,
               rank: int = 4, per_coordinate: bool = True, train_bias: bool = True,
               lora_only: bool = True) -> GatingNetwork:
    if n_experts < 1:
        raise UsageError("gate needs at least one expert")
    k = out_dim if per_coordinate else 1
    in_dim = len(tuple(lead_indices)) * pooled_len
    layers = [
        LoraLinear(hidden_dim, in_dim, min(rank, min(hidden_dim, in_dim)), rng, train_bias, lora_only),
        LoraLinear(n_experts * k, hidden_dim, min(rank, min(n_experts * k, hidden_dim)), rng,
                   train_bias, lora_only),
    ]
    return GatingNetwork(list(lead_indices), pooled_len, n_experts, out_dim,
                         per_coordinate, layers)


def gate_input(x, lead_indices, pooled_len: int) -> Tensor:
    """Mean-pooled lead subset flattened to the gate's input vector.

    Accepts one EcgRecord / (C,T) tensor (giving a flat vector) or a
    (B,C,T) batch (giving (B, n*pooled)); differentiable throughout.
    """
    idx = list(lead_indices)
    leads = x.leads if hasattr(x, "leads") else x
    if leads.data.ndim == 2:
        pooled = downsample(leads_sample(x, idx), pooled_len)
        return ad.reshape(pooled, (len(idx) * pooled_len,))
    subset = ad.take_rows(leads, idx, axis=1)
    pooled = downsample(subset, pooled_len)
    return ad.reshape(pooled, (leads.shape[0], len(idx) * pooled_len))


def gate_forward(gate: GatingNetwork, pooled_input: Tensor) -> Tensor:
    """Gating probabilities, shape (N, K) or (B, N, K), softmaxed over experts."""
    if pooled_input.shape[-1] != gate.input_dim:
        raise DimensionError(
            f"gate expects input width {gate.input_dim}, got shape {pooled_input.shape}")
    single = pooled_input.data.ndim == 1
    h = ad.relu(gate.layers[0].forward(pooled_input))
    scores = gate.layers[1].forward(h)
    if single:
        grid = ad.reshape(scores, (gate.n_experts, gate.weight_dim))
        return ad.softmax(grid, axis=0)
    b = pooled_input.shape[0]
    grid = ad.reshape(scores, (b, gate.n_experts, gate.weight_dim))
    return ad.softmax(grid, axis=1)


def ensemble_combine(logits: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum over the expert axis of (N, L) or (B, N, L) logits.

    Weights must match the logits shape, except that a trailing weight
    dimension of 1 broadcasts across output coordinates.
    """
    ls, ws = logits.shape, weights.shape
    if len(ls) != len(ws) or ls[:-1] != ws[:-1] or ws[-1] not in (1, ls[-1]):
        raise DimensionError(f"ensemble shapes differ: logits {ls}, weights {ws}")
    if np.any(weights.data < 0):
        raise UsageError("ensemble weights must be nonnegative")
    expert_axis = len(ls) - 2
    return ad.reduce_sum(ad.mul(weights, logits), axis=expert_axis)


def uniform_weights(n_experts: int) -> np.ndarray:
    return np.full(n_experts, 1.0 / n_experts)


# ---------------------------------------------------------------------------
# baseline strategies (static weights computed on a validation split)

def _flat_class_matrices(task: tk.TaskSpec, logits: np.ndarray, labels: np.ndarray):
    n = labels.size
    if task.kind == "binary":
        scores = np.column_stack([-logits[:, 0], logits[:, 0]])
        n_classes = 2
    else:
        scores = logits
        n_classes = task.output_dim
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels.astype(int)] = 1.0
    return scores.reshape(-1), onehot.reshape(-1)


def zero_shot_confidence_weights(logits_per_expert: np.ndarray, labels: np.ndarray,
                                 task: tk.TaskSpec) -> np.ndarray:
    """Confidence weights: cosine similarity between each expert's validation
    logits and the one-hot labels, clamped at zero and normalized."""
    if task.kind == "regression":
        raise NotApplicableError(
            f"zero-shot confidence weighting is not applicable to regression task {task.name!r}")
    logits_per_expert = np.asarray(logits_per_expert, dtype=np.float64)
    if labels.size == 0:
        raise UsageError("zero-shot weighting needs a nonempty validation set")
    sims = []
    for logits in logits_per_expert:
        a, b = _flat_class_matrices(task, logits, labels)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        sims.append(float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0)
    w = np.maximum(np.asarray(sims), 0.0)
    if w.sum() <= 0:
        return uniform_weights(len(w))
    return w / w.sum()


def _static_metric(task: tk.TaskSpec, logits_per_expert: np.ndarray,
                   w: np.ndarray, labels: np.ndarray) -> float:
    combined = np.tensordot(w, logits_per_expert, axes=1)
    return tk.metric_from_logits(task, combined, labels)


def greedy_search_weights(logits_per_expert: np.ndarray, labels: np.ndarray,
                          task: tk.TaskSpec, grid_step: float = 0.1,
                          max_rounds: int = 50) -> np.ndarray:
    """Training-free weights: start from the best single expert and keep any
    strictly metric-improving grid mixture until none improves."""
    logits_per_expert = np.asarray(logits_per_expert, dtype=np.float64)
    if labels.size == 0:
        raise UsageError("greedy search needs a nonempty validation set")
    n_experts = logits_per_expert.shape[0]
    sign = 1.0 if task.higher_is_better else -1.0

    def score(w):
        return sign * _static_metric(task, logits_per_expert, w, labels)

    singles = [score(np.eye(n_experts)[j]) for j in range(n_experts)]
    best_j = int(np.argmax(singles))
    weights = np.eye(n_experts)[best_j]
    best = singles[best_j]
    alphas = np.arange(grid_step, 1.0 + grid_step / 2, grid_step)
    for _ in range(max_rounds):
        improved = None
        for j in range(n_experts):
            for alpha in alphas:
                cand = (1.0 - alpha) * weights + alpha * np.eye(n_experts)[j]
                cand = cand / cand.sum()
                s = score(cand)
                if s > best:
                    best, improved = s, cand
        if improved is None:
            break
        weights = improved
    return weights


def train_sample_aware(gate_inputs: np.ndarray, logits_per_expert: np.ndarray,
                       labels: np.ndarray, task: tk.TaskSpec, seed: int = 0,
                       lead_indices=(1,), pooled_len: int = 250, hidden_dim: int = 64,
                       epochs: int = 30, batch_size: int = 32, lr: float = 1e-3,
                       per_coordinate: bool = True) -> GatingNetwork:
    """Tuning baseline: fit a fully-trainable weight generator on the
    validation split by the task loss of its weighted combination."""
    if labels.size == 0:
        raise UsageError("sample-aware training needs a nonempty validation set")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xAE)))
    n_experts, n, out_dim = np.asarray(logits_per_expert).shape
    gate = build_gate(n_experts, task.output_dim, rng, lead_indices=lead_indices,
                      pooled_len=pooled_len, hidden_dim=hidden_dim,
                      per_coordinate=per_coordinate, lora_only=False)
    stacked = np.transpose(np.asarray(logits_per_expert, dtype=np.float64), (1, 0, 2))
    opt = Adam(gate.trainable(), lr=lr)
    pos_w, neg_w = tk.class_weights(labels) if task.kind == "binary" else (1.0, 1.0)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            opt.zero_grad()
            with Tape() as tape:
                w = gate_forward(gate, Tensor(gate_inputs[batch]))
                combined = ensemble_combine(Tensor(stacked[batch]), w)
                loss = tk.task_loss(task, combined, labels[batch], pos_w, neg_w)
                backward(loss, tape)
            opt.step()
    return gate

"""MoE gating over a sampled lead subset, the weighted-sum ensemble, and
the baseline weighting strategies used for comparison.

The gate maps a pooled lead subset through two LoRA-adapted linear layers
to one score per (expert, output coordinate) and softmaxes over the expert
axis, so weights are nonnegative and sum to one per coordinate. A config
switch collapses the coordinate axis to a single per-expert weight.

The confidence ("zero-shot") and greedy-search ("training-free")
strategies are explicit reconstructions of the usual static
ensemble-weighting baselines: weights from validation logits. The
sample-aware ("tuning") baseline is a gate built here with ``lora_only``
off; it is fitted on the validation split in ``pipeline``, which does
every Adam step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .adapters import LoraHead, LoraLinear, head_forward
from .autodiff import Tensor
from .errors import DimensionError, NotApplicableError, UsageError
from .signal import downsample


@dataclass
class GatingNetwork(LoraHead):
    """A LoRA head over the pooled lead subset whose outputs are per-expert
    scores: ``n_experts * weight_dim`` of them, softmaxed over the experts."""
    lead_indices: list[int]
    n_experts: int

    @property
    def weight_dim(self) -> int:
        """L for one weight per (expert, output coordinate), 1 for one per expert."""
        return self.output_dim // self.n_experts

    @property
    def pooled_len(self) -> int:
        return self.in_dim // len(self.lead_indices)


def build_gate(n_experts: int, out_dim: int, rng: np.random.Generator,
               lead_indices=(1,), pooled_len: int = 250, hidden_dim: int = 64,
               rank: int = 4, per_coordinate: bool = True, train_bias: bool = True,
               lora_only: bool = True) -> GatingNetwork:
    if n_experts < 1:
        raise UsageError("gate needs at least one expert")
    width = n_experts * (out_dim if per_coordinate else 1)
    in_dim = len(tuple(lead_indices)) * pooled_len
    layers = [LoraLinear(d, k, min(rank, d, k), rng, train_bias, lora_only)
              for d, k in [(hidden_dim, in_dim), (width, hidden_dim)]]
    return GatingNetwork(layers=layers, lead_indices=list(lead_indices), n_experts=n_experts)


def gate_input(x: Tensor, lead_indices, pooled_len: int) -> Tensor:
    """Mean-pooled lead subset of a (B,C,T) batch, flattened to the gate's
    (B, n*pooled) input; differentiable throughout."""
    if len(x.shape) != 3:
        raise DimensionError(f"gate input needs a (B,C,T) batch, got shape {x.shape}")
    idx = list(lead_indices)
    pooled = downsample(ad.take_rows(x, idx, axis=1), pooled_len)
    return ad.reshape(pooled, (x.shape[0], len(idx) * pooled_len))


def gate_forward(gate: GatingNetwork, pooled_input: Tensor, xw0: np.ndarray | None = None) -> Tensor:
    """Gating probabilities of a (B, input width) batch, shape (B, N, K),
    softmaxed over the experts; a gate stacked over T tasks maps (T,B,width)
    to (T,B,N,K). ``xw0``, if given, is the first layer's ``x @ w0.T``."""
    lead = gate.layers[0].w0.shape[:-2]
    if len(pooled_input.shape) != len(lead) + 2 or pooled_input.shape[-1] != gate.in_dim:
        raise DimensionError(
            f"gate expects input width {gate.in_dim} on a (B, width) batch, "
            f"got shape {pooled_input.shape}")
    scores = head_forward(gate, pooled_input, xw0)
    grid = ad.reshape(scores, scores.shape[:-1] + (gate.n_experts, gate.weight_dim))
    return ad.softmax(grid, axis=-2)


def ensemble_combine(logits: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum over the expert axis of (N, L) or (B, N, L) logits, as
    one ``autodiff.weighted_sum`` node.

    Weights must match the logits shape, except that a trailing weight
    dimension of 1 broadcasts across output coordinates.
    """
    ls, ws = logits.shape, weights.shape
    if len(ls) != len(ws) or ls[:-1] != ws[:-1] or ws[-1] not in (1, ls[-1]):
        raise DimensionError(f"ensemble shapes differ: logits {ls}, weights {ws}")
    if np.any(weights.data < 0):
        raise UsageError("ensemble weights must be nonnegative")
    return ad.weighted_sum(weights, logits, axis=len(ls) - 2)


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


GREEDY_GRID_STEP = 0.1      # greedy search mixes toward one expert in these steps,
GREEDY_MAX_ROUNDS = 50      # for at most this many rounds


def greedy_search_weights(logits_per_expert: np.ndarray, labels: np.ndarray,
                          task: tk.TaskSpec) -> np.ndarray:
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
    alphas = np.arange(GREEDY_GRID_STEP, 1.0 + GREEDY_GRID_STEP / 2, GREEDY_GRID_STEP)
    for _ in range(GREEDY_MAX_ROUNDS):
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

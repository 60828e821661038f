"""End-to-end multi-task training and evaluation.

The forward path per task is: per-expert downsample -> frozen expert ->
LoRA head -> logit stack -> gate weights from a pooled lead subset ->
weighted sum -> task loss. Experts are frozen, so their features are
precomputed once per dataset and training only runs heads and gate on
batched feature tensors; that keeps the whole suite at desk scale.

Optimization touches exactly the LoRA factors and biases of heads and
gate; expert parameters and every frozen base weight are checksum-verified
unchanged by training.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .adapters import (
    LoraHead, LoraLinear, build_head, head_checksum, head_forward, read_tensors,
    trainable_params, write_tensors,
)
from .autodiff import Tensor, Tape, backward
from .errors import InvariantError, NonFiniteLossError, NotApplicableError, ParseError, UsageError
from .experts import ExpertModel, build_expert, expert_forward
from .gating import (
    GatingNetwork, build_gate, ensemble_combine, gate_forward, gate_input,
    greedy_search_weights, train_sample_aware, uniform_weights,
    zero_shot_confidence_weights,
)
from .optim import Adam
from .signal import EcgRecord, GeneratorConfig, downsample, iter_records

DEFAULT_TASKS = ("rr", "age", "sex", "potassium", "arrhythmia")

STRATEGIES = ("moe", "zero_shot", "greedy", "sample_aware", "uniform")

COMPARED_STRATEGIES = ("zero_shot", "greedy", "sample_aware", "moe")


@dataclass(frozen=True)
class ExpertSpec:
    name: str
    arch: str
    seed: int
    input_len: int | None = None
    feature_dim: int = 64


DEFAULT_ROSTER: tuple[ExpertSpec, ...] = (
    ExpertSpec("spectral-a", "spectral", 11),
    ExpertSpec("conv-a", "convolutional", 12),
    ExpertSpec("stats-a", "statistical", 13),
)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_records: int = 1000
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    split: tuple[float, float, float] = (0.7, 0.2, 0.1)
    tasks: tuple[str, ...] = DEFAULT_TASKS
    ensemble: str = "moe"
    repeats: int = 3
    joint: bool = False
    normalize_targets: bool = True
    class_weighted_bce: bool = True
    experts: tuple[ExpertSpec, ...] = DEFAULT_ROSTER
    head_hidden: int = 64
    head_rank: int = 4
    head_depth: int = 2
    train_bias: bool = True
    lora_only: bool = True
    gate_leads: tuple[int, ...] = (1,)
    gate_pooled_len: int = 250
    gate_hidden: int = 64
    per_coordinate_weights: bool = True
    data: GeneratorConfig = field(default_factory=GeneratorConfig)

    def validate(self) -> None:
        if abs(sum(self.split) - 1.0) > 1e-9 or any(r <= 0 for r in self.split):
            raise UsageError(f"split ratios must be positive and sum to 1, got {self.split}")
        if self.ensemble not in STRATEGIES:
            raise UsageError(f"unknown ensemble strategy {self.ensemble!r}; expected one of {STRATEGIES}")
        for name in self.tasks:
            tk.task_by_name(name)
        if not self.experts:
            raise UsageError("expert roster is empty")
        if self.epochs < 0 or self.batch_size < 1 or self.repeats < 1:
            raise UsageError("epochs must be >= 0, batch_size and repeats >= 1")


# ---------------------------------------------------------------------------
# dataset preparation (expert features are constants during training)

@dataclass
class PreparedDataset:
    features: list[np.ndarray]          # per expert, (n, feature_dim)
    gate_inputs: np.ndarray             # (n, gate input width)
    labels: dict[str, np.ndarray]       # per task, (n,)
    n: int


def build_experts(cfg: ExperimentConfig) -> list[ExpertModel]:
    return [build_expert(s.arch, s.seed, s.input_len, s.feature_dim, name=s.name)
            for s in cfg.experts]


def _block_features(experts: list[ExpertModel], block: Tensor, lead_indices,
                    pooled_len: int) -> tuple[list[Tensor], Tensor]:
    """Each frozen expert's features and the gate input of a raw (B,C,T) block."""
    features = []
    for m in experts:
        down = downsample(block, m.required_input_len)
        features.append(expert_forward(m, down))
    return features, gate_input(block, lead_indices, pooled_len)


def prepare_dataset(cfg: ExperimentConfig, experts: list[ExpertModel],
                    seed: int | None = None, chunk: int = 256) -> PreparedDataset:
    gen = replace(cfg.data, seed=cfg.seed if seed is None else seed, n_records=cfg.n_records)
    feats: list[list[np.ndarray]] = [[] for _ in experts]
    gates: list[np.ndarray] = []
    labels: list = []
    buffer: list[Tensor] = []

    def flush():
        if not buffer:
            return
        block_feats, gate_in = _block_features(experts, ad.stack(buffer),
                                               cfg.gate_leads, cfg.gate_pooled_len)
        for acc, f in zip(feats, block_feats):
            acc.append(f.data)
        gates.append(gate_in.data)
        buffer.clear()

    for record, lab in iter_records(gen):
        buffer.append(record.leads)
        labels.append(lab)
        if len(buffer) >= chunk:
            flush()
    flush()
    if not labels:
        raise UsageError("generator produced no records")
    return PreparedDataset(
        features=[np.concatenate(f) for f in feats],
        gate_inputs=np.concatenate(gates),
        labels={name: tk.label_vector(tk.task_by_name(name), labels) for name in cfg.tasks},
        n=len(labels),
    )


def split_indices(n: int, ratios, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded shuffle then contiguous partition; disjoint and exhaustive.

    Every part must be nonempty: an empty validation split would select
    the best epoch on a NaN metric.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"split ratios must sum to 1, got {tuple(ratios)}")
    if n < 1:
        raise UsageError("cannot split an empty dataset")
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise UsageError(f"split {tuple(ratios)} of {n} records leaves an empty split: "
                         f"train {n_train}, validation {n_val}, test {n_test}")
    order = np.random.default_rng(np.random.SeedSequence((seed, 0x5B1))).permutation(n)
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


# ---------------------------------------------------------------------------
# model assembly and forward

@dataclass
class TaskModel:
    task: tk.TaskSpec
    heads: list[LoraHead]               # one per expert
    gate: GatingNetwork
    target_mean: float = 0.0
    target_std: float = 1.0
    pos_weight: float = 1.0
    neg_weight: float = 1.0
    # per-expert feature standardization (train-split stats); heads see
    # z-scored features, which keeps the frozen random projections usable
    feature_stats: list[tuple[np.ndarray, np.ndarray]] | None = None
    gate_stats: tuple[np.ndarray, np.ndarray] | None = None

    def trainable(self) -> list[Tensor]:
        out: list[Tensor] = []
        for head in self.heads:
            out.extend(trainable_params(head))
        if len(self.heads) > 1:
            # a single fine-tuned expert has nothing to gate; its weight is 1
            out.extend(self.gate.trainable())
        return out

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return z * self.target_std + self.target_mean

    def targets(self, prepared: "PreparedDataset") -> np.ndarray:
        """Training targets for every row: labels, standardized for regression."""
        y = prepared.labels[self.task.name]
        return self.normalize(y) if self.task.kind == "regression" else y

    def fit_input_stats(self, prepared: "PreparedDataset", train_idx: np.ndarray) -> None:
        self.feature_stats = [
            (f[train_idx].mean(axis=0), f[train_idx].std(axis=0) + 1e-12)
            for f in prepared.features
        ]
        g = prepared.gate_inputs[train_idx]
        self.gate_stats = (g.mean(axis=0), g.std(axis=0) + 1e-12)


@dataclass
class EnsembleOutput:
    expert_logits: np.ndarray           # (N, L)
    weights: np.ndarray                 # (N, L) or (N, 1)
    combined: np.ndarray                # (L,)


def _task_id(task: tk.TaskSpec) -> int:
    return list(tk.TASKS).index(task.name)


def build_task_model(cfg: ExperimentConfig, experts: list[ExpertModel],
                     task: tk.TaskSpec, seed: int) -> TaskModel:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4EAD, _task_id(task))))
    heads = [build_head(m.feature_dim, task.output_dim, rng, hidden_dim=cfg.head_hidden,
                        rank=cfg.head_rank, depth=cfg.head_depth,
                        train_bias=cfg.train_bias, lora_only=cfg.lora_only)
             for m in experts]
    gate = build_gate(len(experts), task.output_dim, rng, lead_indices=cfg.gate_leads,
                      pooled_len=cfg.gate_pooled_len, hidden_dim=cfg.gate_hidden,
                      rank=cfg.head_rank, per_coordinate=cfg.per_coordinate_weights,
                      train_bias=cfg.train_bias, lora_only=cfg.lora_only)
    return TaskModel(task=task, heads=heads, gate=gate)


def _forward_features(model: TaskModel, features: list[Tensor], gate_in: Tensor,
                      skip_gate_if_single: bool = False):
    """Batched forward from already-standardized expert features.

    Returns (stacked expert logits (B,N,L), weights, combined (B,L)). With a
    single expert the weight is identically one, so the gate can be skipped.
    A model whose heads do not match the expert roster or the task is a
    UsageError, on every path from training to saliency.
    """
    if len(features) != len(model.heads):
        raise UsageError(f"{len(features)} experts but {len(model.heads)} heads")
    for head in model.heads:
        if head.output_dim != model.task.output_dim:
            raise UsageError(f"head output dim {head.output_dim} does not match "
                             f"task {model.task.name} (L={model.task.output_dim})")
    per_expert = [head_forward(h, f) for h, f in zip(model.heads, features)]
    n = len(per_expert)
    stacked = ad.stack(per_expert, axis=1)
    if n == 1 and skip_gate_if_single:
        b = per_expert[0].shape[0]
        weights = Tensor(np.ones((b, 1, 1)))
    else:
        weights = gate_forward(model.gate, gate_in)
    combined = ensemble_combine(stacked, weights)
    return stacked, weights, combined


def _has_stats_for(model: TaskModel, n_experts: int) -> bool:
    # another roster size stays unscaled: _forward_features rejects it, zip() would hide it
    return model.feature_stats is not None and len(model.feature_stats) == n_experts


def _model_inputs(model: TaskModel, prepared: PreparedDataset, idx: np.ndarray):
    """Standardized feature and gate-input tensors for the given rows."""
    feats, gate_in = [f[idx] for f in prepared.features], prepared.gate_inputs[idx]
    if _has_stats_for(model, len(feats)):
        feats = [(f - m) / s for f, (m, s) in zip(feats, model.feature_stats)]
        gm, gs = model.gate_stats
        gate_in = (gate_in - gm) / gs
    return [Tensor(f) for f in feats], Tensor(gate_in)


def _raw_forward(model: TaskModel, experts: list[ExpertModel], block: Tensor):
    """(stacked, weights, combined) Tensors for a raw (B,C,T) record block,
    standardized with the model's train-split statistics on the tape, so
    saliency can differentiate them with respect to the block."""
    features, gate_in = _block_features(experts, block, model.gate.lead_indices,
                                        model.gate.pooled_len)
    if _has_stats_for(model, len(experts)):
        features = [ad.mul(ad.sub(f, Tensor(mean)), Tensor(1.0 / std))
                    for f, (mean, std) in zip(features, model.feature_stats)]
        gm, gs = model.gate_stats
        gate_in = ad.mul(ad.sub(gate_in, Tensor(gm)), Tensor(1.0 / gs))
    return _forward_features(model, features, gate_in)


def forward_enecg(batch: list[EcgRecord], experts: list[ExpertModel], model: TaskModel) -> list[EnsembleOutput]:
    """Full forward from raw records; one EnsembleOutput per input, in order."""
    if not batch:
        return []
    stacked, weights, combined = _raw_forward(model, experts, ad.stack([r.leads for r in batch]))
    return [EnsembleOutput(*row) for row in zip(stacked.data, weights.data, combined.data)]


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainedModel:
    cfg: ExperimentConfig
    experts: list[ExpertModel]
    tasks: dict[str, TaskModel]
    history: dict[str, list[float]] = field(default_factory=dict)       # val metric per epoch
    train_loss: dict[str, list[float]] = field(default_factory=dict)    # mean batch loss per epoch


def _frozen_checksums(experts: list[ExpertModel], models: dict[str, TaskModel]) -> dict[str, str]:
    sums = {f"expert.{m.name}": m.checksum() for m in experts}
    for name, tm in models.items():
        for i, head in enumerate(tm.heads):
            sums[f"{name}.head{i}.w0"] = head_checksum(head)
        sums[f"{name}.gate.w0"] = head_checksum(LoraHead(layers=tm.gate.layers,
                                                         output_dim=tm.gate.layers[-1].d))
    return sums


def _task_logits(model: TaskModel, prepared: PreparedDataset, idx: np.ndarray,
                 skip_gate: bool = False) -> np.ndarray:
    feats, gate_in = _model_inputs(model, prepared, idx)
    _, _, combined = _forward_features(model, feats, gate_in, skip_gate_if_single=skip_gate)
    return combined.data


def _validation_metric(model: TaskModel, prepared: PreparedDataset, idx: np.ndarray) -> float:
    logits = _task_logits(model, prepared, idx, skip_gate=True)
    pred = tk.predictions(model.task, logits)
    if model.task.kind == "regression":
        pred = model.denormalize(pred)
    return tk.task_metric(model.task, pred, prepared.labels[model.task.name][idx])


def _train_step(models: list[TaskModel], prepared: PreparedDataset,
                targets: list[np.ndarray], batch: np.ndarray, opt: Adam,
                where: str = "") -> tuple[list[float], Tape]:
    """One Adam step on the summed task losses of ``models`` over ``batch``;
    returns each task's loss and the tape of the step."""
    inputs = [_model_inputs(model, prepared, batch) for model in models]
    opt.zero_grad()
    with Tape() as tape:
        losses = []
        for model, (feats, gate_in), y in zip(models, inputs, targets):
            _, _, combined = _forward_features(model, feats, gate_in, skip_gate_if_single=True)
            losses.append(tk.task_loss(model.task, combined, y[batch],
                                       model.pos_weight, model.neg_weight))
        values = [loss.item() for loss in losses]
        for model, value in zip(models, values):
            if not np.isfinite(value):
                raise NonFiniteLossError(f"task {model.task.name}: non-finite loss {where}")
        backward(reduce(ad.add, losses), tape)
    opt.step()
    return values, tape


def _fit(cfg: ExperimentConfig, models: list[TaskModel], prepared: PreparedDataset,
         train_idx: np.ndarray, val_idx: np.ndarray, rng: np.random.Generator
         ) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Adam over the LoRA factors and biases of ``models`` on their summed
    task losses; each model keeps the parameters of its best validation epoch.

    Parameters are disjoint per task, so training all tasks in one call
    matches training each alone up to batch order. Returns (validation
    metric per epoch, mean training loss per epoch), keyed by task."""
    for model in models:
        model.fit_input_stats(prepared, train_idx)
        y = prepared.labels[model.task.name][train_idx]
        if model.task.kind == "regression" and cfg.normalize_targets:
            model.target_mean, model.target_std = float(y.mean()), float(y.std()) or 1.0
        if model.task.kind == "binary" and cfg.class_weighted_bce:
            model.pos_weight, model.neg_weight = tk.class_weights(y)
    targets = [model.targets(prepared) for model in models]
    params = [model.trainable() for model in models]
    opt = Adam([p for group in params for p in group], lr=cfg.learning_rate)
    history: dict[str, list[float]] = {model.task.name: [] for model in models}
    losses: dict[str, list[float]] = {model.task.name: [] for model in models}
    best_state: list[list[np.ndarray] | None] = [None] * len(models)
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        starts = range(0, order.size, cfg.batch_size)
        sums = [0.0] * len(models)
        for start in starts:
            values, _ = _train_step(models, prepared, targets, order[start:start + cfg.batch_size],
                                    opt, where=f"at epoch {epoch}, batch starting {start}")
            sums = [acc + value for acc, value in zip(sums, values)]
        for i, model in enumerate(models):
            task = model.task
            losses[task.name].append(sums[i] / max(len(starts), 1))
            score = _validation_metric(model, prepared, val_idx)
            scores = history[task.name]
            # strict improvement on the running best: the first best epoch wins ties
            if not scores or (score > max(scores) if task.higher_is_better else score < min(scores)):
                best_state[i] = [p.data.copy() for p in params[i]]
            scores.append(score)
    for group, snaps in zip(params, best_state):
        for p, snap in zip(group, snaps or []):
            p.data[...] = snap
    return history, losses


def train(cfg: ExperimentConfig, seed: int | None = None,
          prepared: PreparedDataset | None = None,
          experts: list[ExpertModel] | None = None) -> TrainedModel:
    """Fit every task of ``cfg``: each task alone with its own RNG, or with
    ``cfg.joint`` all tasks in one loop on the summed loss."""
    cfg.validate()
    seed = cfg.seed if seed is None else seed
    # split first, so a dataset too small to split fails before it is prepared
    train_idx, val_idx, _ = split_indices(cfg.n_records if prepared is None else prepared.n,
                                          cfg.split, seed)
    experts = build_experts(cfg) if experts is None else experts
    if prepared is None:
        prepared = prepare_dataset(cfg, experts, seed=seed)
    models = {name: build_task_model(cfg, experts, tk.task_by_name(name), seed)
              for name in cfg.tasks}
    before = _frozen_checksums(experts, models)
    trained = TrainedModel(cfg=cfg, experts=experts, tasks=models)
    for group in [list(models.values())] if cfg.joint else [[m] for m in models.values()]:
        entropy = (seed, 0x701) if cfg.joint else (seed, 0x7E, _task_id(group[0].task))
        history, losses = _fit(cfg, group, prepared, train_idx, val_idx,
                               np.random.default_rng(np.random.SeedSequence(entropy)))
        trained.history.update(history)
        trained.train_loss.update(losses)
    after = _frozen_checksums(experts, models)
    changed = [k for k in before if before[k] != after[k]]
    if changed:
        raise InvariantError(f"frozen parameters changed during training: {changed}")
    return trained


# ---------------------------------------------------------------------------
# evaluation, efficiency, reports

@dataclass
class TaskResult:
    task: str
    metric: str
    mean: float
    std: float
    values: list[float]


@dataclass
class MetricsReport:
    tasks: list[TaskResult]
    params_trainable: int
    params_frozen: int
    params_total: int
    throughput_sps: float
    train_throughput_sps: float
    activation_bytes: int
    wallclock_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_csv(self) -> str:
        lines = ["task,metric,mean,std,params_trainable,params_total,throughput_sps,wallclock_s"]
        for t in self.tasks:
            lines.append(f"{t.task},{t.metric},{t.mean!r},{t.std!r},"
                         f"{self.params_trainable},{self.params_total},"
                         f"{self.throughput_sps!r},{self.wallclock_s!r}")
        return "\n".join(lines) + "\n"


def evaluate(trained: TrainedModel, prepared: PreparedDataset, idx: np.ndarray,
             tasks: tuple[str, ...] | None = None) -> dict[str, float]:
    """Task metric per task on the given index set."""
    if idx.size == 0:
        raise UsageError("evaluate needs a nonempty split")
    out: dict[str, float] = {}
    for name in (tasks or tuple(trained.tasks)):
        model = trained.tasks[name]
        out[name] = _validation_metric(model, prepared, idx)
    return out


def parameter_counts(trained: TrainedModel) -> tuple[int, int]:
    """(trainable, frozen) parameter totals across experts, heads and gates."""
    trainable = 0
    frozen = 0
    for m in trained.experts:
        frozen += sum(p.data.size for p in m.params.values())
    for model in trained.tasks.values():
        layers = [l for h in model.heads for l in h.layers]
        if len(model.heads) > 1:
            layers += model.gate.layers
        for layer in layers:
            for t in (layer.w0, layer.lora_a, layer.lora_b, layer.bias):
                if t.requires_grad:
                    trainable += t.data.size
                else:
                    frozen += t.data.size
    return trainable, frozen


def bench(trained: TrainedModel, prepared: PreparedDataset, idx: np.ndarray,
          passes: int = 3, wallclock_s: float = 0.0) -> MetricsReport:
    """Throughput (median of timed passes), exact parameter counts and a
    shape-derived activation-memory estimate; metrics left empty."""
    if idx.size == 0:
        idx = np.arange(prepared.n)
    trainable, frozen = parameter_counts(trained)
    first = next(iter(trained.tasks.values()))

    times = []
    for _ in range(max(3, passes)):
        t0 = time.perf_counter()
        _task_logits(first, prepared, idx)
        times.append(time.perf_counter() - t0)
    throughput = idx.size / float(np.median(times))

    batch = idx[:min(trained.cfg.batch_size, idx.size)]
    targets = [first.targets(prepared)]
    probe = Adam(first.trainable(), lr=0.0)  # lr 0: timed steps leave the model unchanged
    step_times = []
    activation_bytes = 0
    for _ in range(max(3, passes)):
        t0 = time.perf_counter()
        _, tape = _train_step([first], prepared, targets, batch, probe)
        step_times.append(time.perf_counter() - t0)
        activation_bytes = sum(node.output.data.size for node in tape.nodes) * 8
    probe.zero_grad()
    train_throughput = batch.size / float(np.median(step_times))

    return MetricsReport(
        tasks=[],
        params_trainable=trainable,
        params_frozen=frozen,
        params_total=trainable + frozen,
        throughput_sps=throughput,
        train_throughput_sps=train_throughput,
        activation_bytes=activation_bytes,
        wallclock_s=wallclock_s,
    )


# ---------------------------------------------------------------------------
# task-model checkpoints (adapters' named-tensor container)

def save_task_model(model: TaskModel, path) -> None:
    tensors: dict[str, Tensor] = {}
    for i, head in enumerate(model.heads):
        for j, layer in enumerate(head.layers):
            for key, t in layer.tensors().items():
                tensors[f"head{i}.layer{j}.{key}"] = t
    for j, layer in enumerate(model.gate.layers):
        for key, t in layer.tensors().items():
            tensors[f"gate.layer{j}.{key}"] = t
    if model.feature_stats is not None:
        for i, (mean, std) in enumerate(model.feature_stats):
            tensors[f"featstats{i}.mean"] = Tensor(mean)
            tensors[f"featstats{i}.std"] = Tensor(std)
        gm, gs = model.gate_stats
        tensors["gatestats.mean"] = Tensor(gm)
        tensors["gatestats.std"] = Tensor(gs)
    tensors["gate.leads"] = Tensor(np.asarray(model.gate.lead_indices, dtype=np.float64))
    first = model.heads[0].layers[0]
    scalars = {
        "task_id": float(_task_id(model.task)),
        "n_experts": float(len(model.heads)),
        "depth": float(len(model.heads[0].layers)),
        "rank": float(first.rank),
        "train_bias": float(first.train_bias),
        "lora_only": float(first.lora_only),
        "per_coordinate": float(model.gate.per_coordinate),
        "pooled_len": float(model.gate.pooled_len),
        "target_mean": model.target_mean,
        "target_std": model.target_std,
        "pos_weight": model.pos_weight,
        "neg_weight": model.neg_weight,
        "has_stats": float(model.feature_stats is not None),
    }
    write_tensors(path, tensors, scalars)


def load_task_model(path) -> TaskModel:
    """Rebuild a task model written by ``save_task_model``. A missing entry, a
    non-integer count or a tensor whose shape disagrees with what it fills is
    a ParseError naming the file and the entry."""
    tensors, scalars = read_tensors(path)

    def scalar(name: str) -> float:
        if name not in scalars:
            raise ParseError(f"{path}: missing scalar {name!r}")
        return scalars[name]

    def count(name: str) -> int:
        value = scalar(name)
        if not (value.is_integer() and value >= 0):
            raise ParseError(f"{path}: scalar {name!r} must be a count, got {value!r}")
        return int(value)

    def tensor(name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        if name not in tensors:
            raise ParseError(f"{path}: missing tensor {name!r}")
        if shape is not None and tensors[name].shape != shape:
            raise ParseError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                             f"expected {shape}")
        return tensors[name]

    task_id = count("task_id")
    if task_id >= len(tk.TASKS):
        raise ParseError(f"{path}: scalar 'task_id' {task_id} names no task")
    task = tk.task_by_name(list(tk.TASKS)[task_id])
    train_bias, lora_only = bool(count("train_bias")), bool(count("lora_only"))

    def rebuild(prefix: str) -> LoraLinear:
        w0, lora_a = tensor(f"{prefix}.w0"), tensor(f"{prefix}.lora_a")
        if w0.ndim != 2 or lora_a.ndim != 2:
            raise ParseError(f"{path}: tensors {prefix!r}.w0 and .lora_a must be matrices")
        try:
            layer = LoraLinear(*w0.shape, lora_a.shape[0], np.random.default_rng(0),
                               train_bias, lora_only)
        except UsageError as e:  # a rank out of range for the stored widths
            raise ParseError(f"{path}: {prefix}: {e}") from e
        for key, t in layer.tensors().items():
            t.data[...] = tensor(f"{prefix}.{key}", t.data.shape)
        return layer

    def rebuild_head(i: int, depth: int) -> LoraHead:
        layers = [rebuild(f"head{i}.layer{j}") for j in range(depth)]
        try:
            return LoraHead(layers=layers, output_dim=task.output_dim)
        except UsageError as e:  # a depth or output width the task does not have
            raise ParseError(f"{path}: head{i}: {e}") from e

    n_experts, depth = count("n_experts"), count("depth")
    heads = [rebuild_head(i, depth) for i in range(n_experts)]
    gate_layers = [rebuild(f"gate.layer{j}") for j in range(2)]
    gate = GatingNetwork(
        lead_indices=[int(v) for v in tensor("gate.leads").reshape(-1)],
        pooled_len=count("pooled_len"),
        n_experts=n_experts,
        out_dim=task.output_dim,
        per_coordinate=bool(count("per_coordinate")),
        layers=gate_layers,
    )
    model = TaskModel(task=task, heads=heads, gate=gate,
                      target_mean=scalar("target_mean"), target_std=scalar("target_std"),
                      pos_weight=scalar("pos_weight"), neg_weight=scalar("neg_weight"))
    if count("has_stats"):
        model.feature_stats = [
            (tensor(f"featstats{i}.mean", (h.in_dim,)), tensor(f"featstats{i}.std", (h.in_dim,)))
            for i, h in enumerate(heads)]
        width = (gate_layers[0].k,)
        model.gate_stats = (tensor("gatestats.mean", width), tensor("gatestats.std", width))
    return model


# ---------------------------------------------------------------------------
# multi-seed suite and ensemble-strategy comparison

@dataclass
class SuiteRun:
    """Everything trained for one seed: the dataset, the per-expert
    fine-tuned singles, and the jointly trained MoE system."""
    seed: int
    prepared: PreparedDataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    singles: list[TrainedModel]
    moe: TrainedModel | None


def _single_view(prepared: PreparedDataset, i: int) -> PreparedDataset:
    return PreparedDataset([prepared.features[i]], prepared.gate_inputs,
                           prepared.labels, prepared.n)


def run_suite(cfg: ExperimentConfig, strategies=COMPARED_STRATEGIES) -> list[SuiteRun]:
    """Per seed in ``cfg.repeats``: prepare and split the dataset, fine-tune
    each expert alone if any listed strategy weights singles, and train the
    full MoE system if "moe" is listed."""
    cfg.validate()
    experts = build_experts(cfg)
    runs = []
    for seed in range(cfg.seed, cfg.seed + cfg.repeats):
        prepared = prepare_dataset(cfg, experts, seed=seed)
        tr, va, te = split_indices(prepared.n, cfg.split, seed)
        singles = []
        if any(s != "moe" for s in strategies):
            singles = [train(replace(cfg, experts=(spec,)), seed=seed,
                             prepared=_single_view(prepared, i), experts=[experts[i]])
                       for i, spec in enumerate(cfg.experts)]
        moe = train(cfg, seed=seed, prepared=prepared, experts=experts) if "moe" in strategies else None
        runs.append(SuiteRun(seed, prepared, tr, va, te, singles, moe))
    return runs


def single_expert_logits(run: SuiteRun, task_name: str, idx: np.ndarray) -> np.ndarray:
    """(N, len(idx), L) logits of the independently fine-tuned experts.

    Regression logits are in the shared standardized target space (all
    singles compute identical train-split statistics)."""
    views = [_single_view(run.prepared, i) for i in range(len(run.singles))]
    return np.stack([
        _task_logits(single.tasks[task_name], view, idx, skip_gate=True)
        for single, view in zip(run.singles, views)
    ])


def strategy_score(cfg: ExperimentConfig, run: SuiteRun, strategy: str,
                   task_name: str) -> float | None:
    """Test metric of one weighting strategy on one suite run.

    Returns None where the strategy is not applicable (zero-shot on
    regression tasks)."""
    task = tk.task_by_name(task_name)
    if strategy == "moe":
        if run.moe is None:
            raise UsageError("suite was built without the MoE system")
        return evaluate(run.moe, run.prepared, run.test_idx, (task_name,))[task_name]
    ref = run.singles[0].tasks[task_name]
    logits_val = single_expert_logits(run, task_name, run.val_idx)
    logits_test = single_expert_logits(run, task_name, run.test_idx)
    y_val = run.prepared.labels[task_name][run.val_idx]
    y_test = run.prepared.labels[task_name][run.test_idx]
    if task.kind == "regression":
        real_val, real_test = ref.denormalize(logits_val), ref.denormalize(logits_test)
    else:
        real_val, real_test = logits_val, logits_test

    if strategy == "uniform":
        weights = uniform_weights(len(run.singles))
    elif strategy == "zero_shot":
        try:
            weights = zero_shot_confidence_weights(real_val, y_val, task)
        except NotApplicableError:
            return None
    elif strategy == "greedy":
        weights = greedy_search_weights(real_val, y_val, task)
    elif strategy == "sample_aware":
        y_fit = ref.normalize(y_val) if task.kind == "regression" else y_val
        gate = train_sample_aware(run.prepared.gate_inputs[run.val_idx], logits_val,
                                  y_fit, task, seed=run.seed,
                                  lead_indices=cfg.gate_leads, pooled_len=cfg.gate_pooled_len,
                                  hidden_dim=cfg.gate_hidden, epochs=cfg.epochs,
                                  batch_size=cfg.batch_size, lr=cfg.learning_rate,
                                  per_coordinate=cfg.per_coordinate_weights)
        w = gate_forward(gate, Tensor(run.prepared.gate_inputs[run.test_idx])).data
        stacked = np.transpose(real_test, (1, 0, 2))
        combined = (w * stacked).sum(axis=1)
        return tk.metric_from_logits(task, combined, y_test)
    else:
        raise UsageError(f"unknown strategy {strategy!r}")
    combined = np.tensordot(weights, real_test, axes=1)
    return tk.metric_from_logits(task, combined, y_test)


@dataclass
class StrategyCell:
    mean: float | None
    std: float | None
    values: list[float]


@dataclass
class StrategyComparison:
    """Rows = tasks, columns = weighting strategies; regression rows mark
    zero-shot as not applicable."""
    tasks: list[str]
    strategies: list[str]
    cells: dict[str, dict[str, StrategyCell]]

    NOT_APPLICABLE = "n/a"

    def to_json(self) -> str:
        doc = {"tasks": self.tasks, "strategies": self.strategies, "results": {}}
        for task in self.tasks:
            doc["results"][task] = {}
            for strat in self.strategies:
                cell = self.cells[task][strat]
                doc["results"][task][strat] = (
                    self.NOT_APPLICABLE if cell.mean is None
                    else {"mean": cell.mean, "std": cell.std, "values": cell.values})
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        lines = ["task,metric," + ",".join(f"{s}_mean,{s}_std" for s in self.strategies)]
        for task in self.tasks:
            row = [task, tk.task_by_name(task).metric]
            for strat in self.strategies:
                cell = self.cells[task][strat]
                if cell.mean is None:
                    row += [self.NOT_APPLICABLE, self.NOT_APPLICABLE]
                else:
                    row += [repr(cell.mean), repr(cell.std)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def compare_strategies(cfg: ExperimentConfig, runs: list[SuiteRun] | None = None) -> StrategyComparison:
    """Table of test metrics (mean +- std over seeds) per task and strategy."""
    runs = run_suite(cfg) if runs is None else runs
    cells: dict[str, dict[str, StrategyCell]] = {}
    for task_name in cfg.tasks:
        cells[task_name] = {}
        for strat in COMPARED_STRATEGIES:
            values = [strategy_score(cfg, run, strat, task_name) for run in runs]
            if any(v is None for v in values):
                cells[task_name][strat] = StrategyCell(None, None, [])
            else:
                cells[task_name][strat] = StrategyCell(
                    float(np.mean(values)), float(np.std(values)), [float(v) for v in values])
    return StrategyComparison(list(cfg.tasks), list(COMPARED_STRATEGIES), cells)


def run_experiment(cfg: ExperimentConfig) -> tuple[MetricsReport, list[SuiteRun]]:
    """Train and evaluate ``cfg.ensemble`` over cfg.repeats seeds; aggregate
    mean +- std of the test metrics.

    With ensemble="moe" the full system is trained; other strategies
    fine-tune each expert alone and combine with strategy weights.
    """
    t0 = time.perf_counter()
    runs = run_suite(cfg, strategies=(cfg.ensemble,))
    per_task: dict[str, list[float]] = {name: [] for name in cfg.tasks}
    for run in runs:
        for name in cfg.tasks:
            value = strategy_score(cfg, run, cfg.ensemble, name)
            if value is not None:
                per_task[name].append(value)
    last = runs[-1]
    if last.moe is not None:
        report = bench(last.moe, last.prepared, last.test_idx)
    else:
        report = bench(last.singles[0], _single_view(last.prepared, 0), last.test_idx)
    report.tasks = [
        TaskResult(task=name, metric=tk.task_by_name(name).metric,
                   mean=float(np.mean(vals)) if vals else float("nan"),
                   std=float(np.std(vals)) if vals else float("nan"),
                   values=vals)
        for name, vals in per_task.items()
    ]
    report.wallclock_s = time.perf_counter() - t0
    return report, runs

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .adapters import LoraHead, build_head, head_checksum, head_forward, trainable_params
from .autodiff import Tensor, Tape, backward
from .errors import InvariantError, NonFiniteLossError, NotApplicableError, UsageError
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
        block = ad.stack(buffer)
        for i, m in enumerate(experts):
            down = downsample(block, m.required_input_len)
            feats[i].append(expert_forward(m, down).data)
        gates.append(gate_input(block, cfg.gate_leads, cfg.gate_pooled_len).data)
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


def split(dataset: list, ratios, seed: int) -> tuple[list, list, list]:
    train_idx, val_idx, test_idx = split_indices(len(dataset), ratios, seed)
    pick = lambda idx: [dataset[i] for i in idx]
    return pick(train_idx), pick(val_idx), pick(test_idx)


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
    """
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


def _model_inputs(model: TaskModel, prepared: PreparedDataset, idx: np.ndarray):
    """Standardized feature and gate-input tensors for the given rows."""
    if model.feature_stats is None:
        feats = [Tensor(f[idx]) for f in prepared.features]
        gate_in = Tensor(prepared.gate_inputs[idx])
    else:
        feats = [Tensor((f[idx] - m) / s)
                 for f, (m, s) in zip(prepared.features, model.feature_stats)]
        gm, gs = model.gate_stats
        gate_in = Tensor((prepared.gate_inputs[idx] - gm) / gs)
    return feats, gate_in


def forward_enecg(batch: list[EcgRecord], experts: list[ExpertModel], model: TaskModel) -> list[EnsembleOutput]:
    """Full forward from raw records; one EnsembleOutput per input, in order."""
    if len(model.heads) != len(experts):
        raise UsageError(f"{len(experts)} experts but {len(model.heads)} heads")
    for head in model.heads:
        if head.output_dim != model.task.output_dim:
            raise UsageError(f"head output dim {head.output_dim} does not match "
                             f"task {model.task.name} (L={model.task.output_dim})")
    if not batch:
        return []
    block = ad.stack([r.leads for r in batch])
    features = [expert_forward(m, downsample(block, m.required_input_len)) for m in experts]
    gate_in = gate_input(block, model.gate.lead_indices, model.gate.pooled_len)
    if model.feature_stats is not None:
        features = [ad.mul(ad.sub(f, Tensor(mean)), Tensor(1.0 / std))
                    for f, (mean, std) in zip(features, model.feature_stats)]
        gm, gs = model.gate_stats
        gate_in = ad.mul(ad.sub(gate_in, Tensor(gm)), Tensor(1.0 / gs))
    stacked, weights, combined = _forward_features(model, features, gate_in)
    w = weights.data
    return [EnsembleOutput(stacked.data[i], w[i], combined.data[i]) for i in range(len(batch))]


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


def train_task(cfg: ExperimentConfig, model: TaskModel, prepared: PreparedDataset,
               train_idx: np.ndarray, val_idx: np.ndarray, seed: int
               ) -> tuple[list[float], list[float]]:
    """Adam over the task's LoRA factors and biases with best-val selection.

    Returns (validation metric per epoch, mean training loss per epoch)."""
    task = model.task
    y = prepared.labels[task.name]
    model.fit_input_stats(prepared, train_idx)
    if task.kind == "regression" and cfg.normalize_targets:
        model.target_mean = float(y[train_idx].mean())
        model.target_std = float(y[train_idx].std()) or 1.0
    if task.kind == "binary" and cfg.class_weighted_bce:
        model.pos_weight, model.neg_weight = tk.class_weights(y[train_idx])
    targets = model.normalize(y) if task.kind == "regression" else y

    params = model.trainable()
    opt = Adam(params, lr=cfg.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7E, _task_id(task))))
    best = None
    best_state = None
    history: list[float] = []
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            feats, gate_in = _model_inputs(model, prepared, batch)
            opt.zero_grad()
            with Tape() as tape:
                _, _, combined = _forward_features(model, feats, gate_in, skip_gate_if_single=True)
                loss = tk.task_loss(task, combined, targets[batch],
                                    model.pos_weight, model.neg_weight)
                value = loss.item()
                if not np.isfinite(value):
                    raise NonFiniteLossError(
                        f"task {task.name}: non-finite loss at epoch {epoch}, "
                        f"batch starting {start}")
                backward(loss, tape)
            opt.step()
            epoch_loss += value
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
        score = _validation_metric(model, prepared, val_idx)
        history.append(score)
        better = (best is None or
                  (score > best if task.higher_is_better else score < best))
        if better:
            best = score
            best_state = [p.data.copy() for p in params]
    if best_state is not None:
        for p, snap in zip(params, best_state):
            p.data[...] = snap
    return history, losses


def train(cfg: ExperimentConfig, seed: int | None = None,
          prepared: PreparedDataset | None = None,
          experts: list[ExpertModel] | None = None) -> TrainedModel:
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
    history: dict[str, list[float]] = {}
    train_loss: dict[str, list[float]] = {}
    if cfg.joint:
        history.update(_train_joint(cfg, models, prepared, train_idx, val_idx, seed))
    else:
        for name, model in models.items():
            history[name], train_loss[name] = train_task(cfg, model, prepared,
                                                         train_idx, val_idx, seed)
    after = _frozen_checksums(experts, models)
    changed = [k for k in before if before[k] != after[k]]
    if changed:
        raise InvariantError(f"frozen parameters changed during training: {changed}")
    return TrainedModel(cfg=cfg, experts=experts, tasks=models, history=history,
                        train_loss=train_loss)


def _train_joint(cfg: ExperimentConfig, models: dict[str, TaskModel],
                 prepared: PreparedDataset, train_idx: np.ndarray, val_idx: np.ndarray,
                 seed: int) -> dict[str, list[float]]:
    """Joint mode: one loop, summed task losses. Parameters are disjoint per
    task, so this matches independent training up to batching order."""
    targets: dict[str, np.ndarray] = {}
    for name, model in models.items():
        y = prepared.labels[name]
        model.fit_input_stats(prepared, train_idx)
        if model.task.kind == "regression" and cfg.normalize_targets:
            model.target_mean = float(y[train_idx].mean())
            model.target_std = float(y[train_idx].std()) or 1.0
        if model.task.kind == "binary" and cfg.class_weighted_bce:
            model.pos_weight, model.neg_weight = tk.class_weights(y[train_idx])
        targets[name] = model.normalize(y) if model.task.kind == "regression" else y
    params: list[Tensor] = []
    for model in models.values():
        params.extend(model.trainable())
    opt = Adam(params, lr=cfg.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x701)))
    history = {name: [] for name in models}
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            opt.zero_grad()
            with Tape() as tape:
                total = None
                for name, model in models.items():
                    feats, gate_in = _model_inputs(model, prepared, batch)
                    _, _, combined = _forward_features(model, feats, gate_in,
                                                       skip_gate_if_single=True)
                    loss = tk.task_loss(model.task, combined, targets[name][batch],
                                        model.pos_weight, model.neg_weight)
                    total = loss if total is None else ad.add(total, loss)
                if not np.isfinite(total.item()):
                    raise NonFiniteLossError(f"joint loss non-finite at epoch {epoch}, "
                                             f"batch starting {start}")
                backward(total, tape)
            opt.step()
        for name, model in models.items():
            history[name].append(_validation_metric(model, prepared, val_idx))
    return history


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
        doc = {
            "tasks": [{"task": t.task, "metric": t.metric, "mean": t.mean,
                       "std": t.std, "values": t.values} for t in self.tasks],
            "params_trainable": self.params_trainable,
            "params_frozen": self.params_frozen,
            "params_total": self.params_total,
            "throughput_sps": self.throughput_sps,
            "train_throughput_sps": self.train_throughput_sps,
            "activation_bytes": self.activation_bytes,
            "wallclock_s": self.wallclock_s,
        }
        return json.dumps(doc, indent=2)

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
    feats, gate_in = _model_inputs(first, prepared, batch)
    y = prepared.labels[first.task.name][batch]
    targets = first.normalize(y) if first.task.kind == "regression" else y
    params = first.trainable()
    probe = Adam(params, lr=0.0)  # lr 0: timed steps leave the model unchanged
    step_times = []
    activation_bytes = 0
    for _ in range(max(3, passes)):
        probe.zero_grad()
        t0 = time.perf_counter()
        with Tape() as tape:
            _, _, combined = _forward_features(first, feats, gate_in, skip_gate_if_single=True)
            loss = tk.task_loss(first.task, combined, targets,
                                first.pos_weight, first.neg_weight)
            backward(loss, tape)
        probe.step()
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
    from .adapters import write_tensors
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
    from .adapters import LoraLinear, read_tensors
    tensors, scalars = read_tensors(path)
    task = tk.task_by_name(list(tk.TASKS)[int(scalars["task_id"])])
    train_bias = bool(scalars["train_bias"])
    lora_only = bool(scalars["lora_only"])

    def rebuild(prefix: str) -> LoraLinear:
        w0 = tensors[f"{prefix}.w0"]
        d, k = w0.shape
        rank = tensors[f"{prefix}.lora_a"].shape[0]
        layer = LoraLinear(d, k, rank, np.random.default_rng(0), train_bias, lora_only)
        for key in ("w0", "bias", "lora_a", "lora_b"):
            layer.tensors()[key].data[...] = tensors[f"{prefix}.{key}"]
        return layer

    n_experts = int(scalars["n_experts"])
    depth = int(scalars["depth"])
    heads = [LoraHead(layers=[rebuild(f"head{i}.layer{j}") for j in range(depth)],
                      output_dim=task.output_dim)
             for i in range(n_experts)]
    gate_layers = [rebuild(f"gate.layer{j}") for j in range(2)]
    gate = GatingNetwork(
        lead_indices=[int(v) for v in tensors["gate.leads"]],
        pooled_len=int(scalars["pooled_len"]),
        n_experts=n_experts,
        out_dim=task.output_dim,
        per_coordinate=bool(scalars["per_coordinate"]),
        layers=gate_layers,
    )
    model = TaskModel(task=task, heads=heads, gate=gate,
                      target_mean=scalars["target_mean"], target_std=scalars["target_std"],
                      pos_weight=scalars["pos_weight"], neg_weight=scalars["neg_weight"])
    if scalars.get("has_stats"):
        model.feature_stats = [(tensors[f"featstats{i}.mean"], tensors[f"featstats{i}.std"])
                               for i in range(n_experts)]
        model.gate_stats = (tensors["gatestats.mean"], tensors["gatestats.std"])
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


def run_suite(cfg: ExperimentConfig, seeds=None, experts: list[ExpertModel] | None = None,
              with_moe: bool = True) -> list[SuiteRun]:
    """Per seed: fine-tune each expert alone and (optionally) the full system."""
    cfg.validate()
    experts = build_experts(cfg) if experts is None else experts
    seeds = [cfg.seed + r for r in range(cfg.repeats)] if seeds is None else list(seeds)
    runs = []
    for seed in seeds:
        prepared = prepare_dataset(cfg, experts, seed=seed)
        tr, va, te = split_indices(prepared.n, cfg.split, seed)
        singles = []
        for i, spec in enumerate(cfg.experts):
            sub = replace(cfg, experts=(spec,))
            singles.append(train(sub, seed=seed, prepared=_single_view(prepared, i),
                                 experts=[experts[i]]))
        moe = train(cfg, seed=seed, prepared=prepared, experts=experts) if with_moe else None
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


COMPARED_STRATEGIES = ("zero_shot", "greedy", "sample_aware", "moe")


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
    """Train and evaluate over cfg.repeats seeds; aggregate mean +- std.

    With ensemble="moe" the full system is trained; other strategies
    fine-tune each expert alone and combine with strategy weights.
    """
    cfg.validate()
    t0 = time.perf_counter()
    moe_mode = cfg.ensemble == "moe"
    runs = run_suite(cfg, with_moe=moe_mode) if not moe_mode else None
    per_task: dict[str, list[float]] = {name: [] for name in cfg.tasks}
    if moe_mode:
        experts = build_experts(cfg)
        runs = []
        for rep in range(cfg.repeats):
            seed = cfg.seed + rep
            prepared = prepare_dataset(cfg, experts, seed=seed)
            tr, va, te = split_indices(prepared.n, cfg.split, seed)
            trained = train(cfg, seed=seed, prepared=prepared, experts=experts)
            for name, value in evaluate(trained, prepared, te).items():
                per_task[name].append(value)
            runs.append(SuiteRun(seed, prepared, tr, va, te, [], trained))
        last = runs[-1]
        report = bench(last.moe, last.prepared, last.test_idx)
    else:
        for run in runs:
            for name in cfg.tasks:
                value = strategy_score(cfg, run, cfg.ensemble, name)
                if value is not None:
                    per_task[name].append(value)
        last = runs[-1]
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

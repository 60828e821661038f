"""End-to-end multi-task training and evaluation.

The forward path per task is: per-expert downsample -> frozen expert ->
LoRA head -> logit stack -> gate weights from a pooled lead subset ->
weighted sum -> task loss. Experts are frozen, so their features are
precomputed once per dataset, standardized once per ``train`` call, and
training only runs heads and gate on batched feature tensors; that keeps
the whole suite at desk scale. A task model's expert heads are stacked, so each head
layer is one ``lora_linear`` node over all experts of a feature width.
``train`` fits all its tasks in one loop: the tasks whose heads and gates
have equal shapes are stacked once more on a leading task axis, and each
batch takes one tape, one backward and one Adam step for every task, each
task reading its own rows. Each stack of tasks is scored by one loss node,
and the frozen first layers' products are formed once per fit.

Optimization touches exactly the LoRA factors and biases of heads and
gate; expert parameters and every frozen base weight are checksum-verified
unchanged by training.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .adapters import (
    HeadStack, LoraHead, LoraLinear, build_head, head_checksum, head_forward, head_shapes,
    read_tensors, stack_forward, stack_heads, stack_views, trainable_params, write_tensors,
)
from .autodiff import Tensor, Tape, backward
from .errors import ConfigError, InvariantError, NonFiniteLossError, NotApplicableError, ParseError, UsageError
from .experts import ARCHITECTURES, DEFAULT_INPUT_LEN, MIN_INPUT_LEN, ExpertModel, build_expert, expert_forward
from .gating import (
    GatingNetwork, _static_metric, build_gate, ensemble_combine, gate_forward, gate_input,
    greedy_search_weights, uniform_weights, zero_shot_confidence_weights,
)
from .optim import Adam
from .signal import DEFAULT_LEAD_MIX, EcgRecord, GeneratorConfig, LabelSet, downsample, iter_records

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
    normalize_targets: bool = True
    class_weighted_bce: bool = True
    experts: tuple[ExpertSpec, ...] = DEFAULT_ROSTER
    head_hidden: int = 64
    head_rank: int = 4
    train_bias: bool = True
    gate_leads: tuple[int, ...] = (1,)
    gate_pooled_len: int = 250
    gate_hidden: int = 64
    per_coordinate_weights: bool = True
    data: GeneratorConfig = field(default_factory=GeneratorConfig)

    def validate(self) -> None:
        replace(self.data, n_records=self.n_records).validate()     # the records it makes
        if (len(self.split) != 3 or abs(sum(self.split) - 1.0) > 1e-9
                or not all(r > 0 for r in self.split)):  # a NaN ratio is not > 0
            raise ConfigError(f"experiment.split: three positive ratios (train, validation, "
                              f"test) must sum to 1, got {self.split}")
        _split_sizes(self.n_records, self.split, ConfigError, "experiment.n_records: ")
        n_leads = len(DEFAULT_LEAD_MIX)
        if (not self.gate_leads or len(set(self.gate_leads)) != len(self.gate_leads)
                or not all(0 <= i < n_leads for i in self.gate_leads)):
            raise ConfigError(f"gating.leads must be distinct indices in 0..{n_leads - 1}, "
                              f"got {self.gate_leads}")
        if self.ensemble not in STRATEGIES:
            raise ConfigError(f"experiment.ensemble: unknown strategy {self.ensemble!r}; "
                              f"expected one of {STRATEGIES}")
        for name in self.tasks:
            if name not in tk.TASKS:
                raise ConfigError(f"experiment.tasks: unknown task {name!r}; "
                                  f"expected one of {sorted(tk.TASKS)}")
        # tasks and experts are keyed by name: in reports, histories and checksums
        for what, names in (("experiment.tasks", self.tasks),
                            ("experts.roster", [s.name for s in self.experts])):
            if not names:
                raise ConfigError(f"{what} is empty: it needs at least one entry")
            repeated = [n for i, n in enumerate(names) if n in names[:i]]
            if repeated:
                raise ConfigError(f"{what} names {repeated[0]!r} more than once")
        samples = (self.data.n_samples, "the samples per record, data.duration_s * data.fs_hz")
        # (key, value, lowest, (highest, what it is) or None), checked in order
        bounds = [("experiment.seed", self.seed, 0, None),
                  ("experiment.epochs", self.epochs, 0, None),
                  ("experiment.batch_size", self.batch_size, 1, None),
                  ("experiment.repeats", self.repeats, 1, None),
                  ("heads.hidden_dim", self.head_hidden, 1, None),
                  ("gating.hidden_dim", self.gate_hidden, 1, None),
                  ("gating.pooled_len", self.gate_pooled_len, 1, samples)]
        for s in self.experts:
            if s.arch not in ARCHITECTURES:
                raise ConfigError(f"experts.roster arch of {s.name!r} must be in {ARCHITECTURES}, got {s.arch!r}")
            length = DEFAULT_INPUT_LEN[s.arch] if s.input_len is None else s.input_len
            bounds.append((f"experts.roster seed of {s.name!r}", s.seed, 0, None))
            bounds.append((f"experts.roster feature_dim of {s.name!r}", s.feature_dim, 1, None))
            bounds.append((f"experts.roster input_len of {s.name!r}", length, MIN_INPUT_LEN[s.arch], samples))
        # a head's first layer refuses a rank above its widths; build_gate would
        # lower it to the gate's, training the gate at another rank than asked
        head_widths = min(self.head_hidden, *(s.feature_dim for s in self.experts))
        gate_widths = min(self.gate_hidden, len(self.gate_leads) * self.gate_pooled_len)
        bounds.append(("heads.rank", self.head_rank, 1,
                       (head_widths, "heads.hidden_dim and every roster feature_dim")))
        bounds.append(("heads.rank", self.head_rank, 1,
                       (gate_widths, "gating.hidden_dim and the gate input width, "
                                     "gating.leads x gating.pooled_len")))
        for key, value, lo, hi in bounds:
            if value < lo:
                raise ConfigError(f"{key} must be >= {lo}, got {value}")
            if hi and value > hi[0]:
                raise ConfigError(f"{key} must be <= {hi[0]} ({hi[1]}), got {value}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"experiment.learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")


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
    """The raw-record forward up to the heads: each frozen expert's features
    of its downsampled view of a (B,C,T) block, in roster order, and the gate
    input. A view stays bound until the next is made: freeing each right after
    its expert raised perfbench infer's ``peak_rss_mb`` by 3% (allocator order)."""
    features = []
    for m in experts:
        down = downsample(block, m.required_input_len)
        features.append(expert_forward(m, down))
    return features, gate_input(block, lead_indices, pooled_len)


# Records per expert front-end block. A 64-record raw block is 31 MB, so it
# and its views stay inside a 105 MB last-level cache, where 256 records
# (123 MB) did not. On 2 vCPUs, 32 prepared no faster than 64, and the
# allocator state it left behind slowed perfbench infer's scoring (its
# set-up trains and prepares): -7% against 256-record blocks, where 64 gave +19%.
PREP_BLOCK = 64


def prepare_dataset(cfg: ExperimentConfig, experts: list[ExpertModel],
                    seed: int | None = None) -> PreparedDataset:
    """Expert features, gate inputs and labels of the ``cfg.n_records``
    records of the dataset ``seed`` (default ``cfg.seed``) describes."""
    gen = replace(cfg.data, seed=cfg.seed if seed is None else seed, n_records=cfg.n_records)
    return _prepare_records(cfg, experts, iter_records(gen))


def _prepare_records(cfg: ExperimentConfig, experts: list[ExpertModel],
                     pairs: Iterable[tuple[EcgRecord, LabelSet]]) -> PreparedDataset:
    """``prepare_dataset`` of the given (record, labels) pairs, in order,
    ``PREP_BLOCK`` records per front-end block."""
    feats: list[list[np.ndarray]] = [[] for _ in experts]
    gates: list[np.ndarray] = []
    labels: list[LabelSet] = []
    pairs = iter(pairs)
    while block := list(islice(pairs, PREP_BLOCK)):
        block_feats, gate_in = _block_features(
            experts, ad.stack([r.leads for r, _ in block]), cfg.gate_leads, cfg.gate_pooled_len)
        for acc, f in zip(feats, block_feats):
            acc.append(f.data)
        gates.append(gate_in.data)
        labels.extend(lab for _, lab in block)
    if not labels:
        raise UsageError("generator produced no records")
    return PreparedDataset(
        features=[np.concatenate(f) for f in feats],
        gate_inputs=np.concatenate(gates),
        labels={name: tk.label_vector(tk.task_by_name(name), labels) for name in cfg.tasks},
        n=len(labels),
    )


def _split_sizes(n: int, ratios, error=UsageError, key: str = "") -> tuple[int, int]:
    """Train and validation sizes of ``n`` records split by ``ratios``; an empty part raises ``error``."""
    n_train, n_val = int(n * ratios[0]), int(n * ratios[1])
    if min(n_train, n_val, n - n_train - n_val) < 1:
        raise error(f"{key}split {tuple(ratios)} of {n} records leaves an empty split: "
                    f"train {n_train}, validation {n_val}, test {n - n_train - n_val}")
    return n_train, n_val


def split_indices(n: int, ratios, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded shuffle then contiguous partition; disjoint and exhaustive.

    Every part must be nonempty: an empty validation split would select
    the best epoch on a NaN metric.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"split ratios must sum to 1, got {tuple(ratios)}")
    if n < 1:
        raise UsageError("cannot split an empty dataset")
    n_train, n_val = _split_sizes(n, ratios)
    order = np.random.default_rng(np.random.SeedSequence((seed, 0x5B1))).permutation(n)
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


# ---------------------------------------------------------------------------
# model assembly and forward

@dataclass
class TaskModel:
    task: tk.TaskSpec
    stack: HeadStack                    # one head per expert, stacked by shape
    gate: GatingNetwork | None          # None: each expert is scored on its own logits
    # (mean, std) of each expert's features and of the gate input, fitted once per train()
    # and shared by its task models; z-scored features keep the frozen projections usable
    feature_stats: list[tuple[np.ndarray, np.ndarray]]
    gate_stats: tuple[np.ndarray, np.ndarray]
    target_mean: float = 0.0
    target_std: float = 1.0
    pos_weight: float = 1.0
    neg_weight: float = 1.0

    @property
    def heads(self) -> list[LoraHead]:
        """One head per expert, in roster order, viewing the stacked tensors."""
        return self.stack.heads()

    def named_heads(self) -> dict[str, LoraHead]:
        """Every LoRA head by checkpoint prefix: head0, head1, ..., gate."""
        heads = {f"head{i}": h for i, h in enumerate(self.heads)}
        return heads if self.gate is None else {**heads, "gate": self.gate}

    def adapted(self) -> list[LoraHead]:
        """The heads training adapts: a gate-less model has no gate, and a
        single fine-tuned expert has nothing to gate, its weight is 1."""
        groups = list(self.stack.groups)
        return groups + [self.gate] if self.gate is not None and len(self.stack) > 1 else groups

    def trainable(self) -> list[Tensor]:
        return [p for head in self.adapted() for p in trainable_params(head)]

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return z * self.target_std + self.target_mean

    def targets(self, prepared: "PreparedDataset") -> np.ndarray:
        """Training targets for every row: labels, standardized for
        regression; checked once here, as the task losses take them as given."""
        y = prepared.labels[self.task.name]
        y = self.normalize(y) if self.task.kind == "regression" else y
        _check_finite(f"task {self.task.name}: training targets", y)
        return y


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
                        rank=cfg.head_rank, train_bias=cfg.train_bias)
             for m in experts]
    gate = build_gate(len(experts), task.output_dim, rng, lead_indices=cfg.gate_leads,
                      pooled_len=cfg.gate_pooled_len, hidden_dim=cfg.gate_hidden,
                      rank=cfg.head_rank, per_coordinate=cfg.per_coordinate_weights,
                      train_bias=cfg.train_bias)
    identity = [(np.zeros(h.in_dim), np.ones(h.in_dim)) for h in heads + [gate]]  # until train
    return TaskModel(task=task, stack=stack_heads(heads), gate=gate,
                     feature_stats=identity[:-1], gate_stats=identity[-1])


def _build_singles(cfg: ExperimentConfig, experts: list[ExpertModel],
                   task: tk.TaskSpec, seed: int) -> TaskModel:
    """The experts fine-tuned one by one, as one model: each head drawn by a
    one-expert ``build_task_model``, the heads stacked, and no gate. Their
    parameters are disjoint and Adam is elementwise, so each trains as alone."""
    alone = [build_task_model(cfg, [m], task, seed) for m in experts]
    return replace(alone[0], stack=stack_heads([m.heads[0] for m in alone]), gate=None,
                   feature_stats=[m.feature_stats[0] for m in alone])


def _check_roster(model: TaskModel, widths: list[tuple[str, int]]) -> None:
    """A model whose heads do not match the expert roster, given as (label,
    feature width) per expert, or the task is a UsageError, on every path
    from training to saliency; checked before standardization, where zip()
    would hide a mismatched roster and broadcasting a mismatched width."""
    if len(widths) != len(model.stack):
        raise UsageError(f"{len(widths)} experts but {len(model.stack)} heads")
    for (label, width), (mean, _) in zip(widths, model.feature_stats):
        if width != mean.shape[0]:
            raise UsageError(f"{label} has feature width {width}, but the model's "
                             f"statistics for it have width {mean.shape[0]}")
    for head in model.stack.groups:
        if head.output_dim != model.task.output_dim:
            raise UsageError(f"head output dim {head.output_dim} does not match "
                             f"task {model.task.name} (L={model.task.output_dim})")


def _gated(model: TaskModel) -> GatingNetwork:
    """The model's gate; a gate-less model (fine-tuned singles) is a
    UsageError where a raw-record forward or a checkpoint needs one."""
    if model.gate is None:
        raise UsageError(f"task model {model.task.name!r} has no gate: its experts are "
                         f"scored one by one")
    return model.gate


def _forward_grouped(model: TaskModel, inputs: list[Tensor], gate_in: Tensor,
                     xw0s: list[np.ndarray] | None = None):
    """Batched forward from already-standardized features, one (n,B,k) input
    per head group; ``xw0s``, if given, holds the first-layer products of the
    heads ``model.adapted()`` runs, in its order (``_frozen_products``).

    Returns (stacked expert logits (B,N,L), weights, combined (B,L)); a joint
    (``_stack_tasks``) keeps its leading task axis on each. With a single
    expert the weight is identically one, so the gate is skipped.
    """
    n = len(model.stack.groups)
    stacked = stack_forward(model.stack, inputs, xw0s and xw0s[:n])
    weights = (Tensor(np.ones(stacked.shape[:-2] + (1, 1))) if len(model.stack) == 1
               else gate_forward(model.gate, gate_in, xw0s and xw0s[n]))
    combined = ensemble_combine(stacked, weights)
    return stacked, weights, combined


def _outputs(model: TaskModel, inputs: list[Tensor], gate_in: Tensor,
             xw0s: list[np.ndarray] | None = None) -> list[Tensor]:
    """The outputs a model is scored on, each a stack of (B,L) slices: a
    gated model's (B,L) combination, or, for a gate-less one, each head
    group's (n,B,L) expert logits, ``stack.members`` giving their experts. A
    joint of T models keeps its leading task axis: (T,B,L) and (T,n,B,L).
    ``xw0s`` as in ``_forward_grouped``."""
    if model.gate is not None:
        return [_forward_grouped(model, inputs, gate_in, xw0s)[2]]
    return [head_forward(group, x, xw0) for group, x, xw0
            in zip(model.stack.groups, inputs, xw0s or [None] * len(inputs))]


def fit_input_stats(prepared: PreparedDataset, train_idx: np.ndarray
                    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray]]:
    """(mean, std) of each expert's features and of the gate input over the
    train rows: (feature_stats, gate_stats) for every task model of a run."""
    rows = [f[train_idx] for f in prepared.features] + [prepared.gate_inputs[train_idx]]
    stats = [(x.mean(axis=0), x.std(axis=0) + 1e-12) for x in rows]
    return stats[:-1], stats[-1]


def _standardized(model: TaskModel, features: list[Tensor], gate_in: Tensor):
    """Expert features, grouped (n,B,k) per head group, and the gate input,
    z-scored on the tape: the one place a model's statistics are applied."""
    features = [ad.mul(ad.sub(f, Tensor(mean)), Tensor(1.0 / std))
                for f, (mean, std) in zip(features, model.feature_stats)]
    gm, gs = model.gate_stats
    return model.stack.group_inputs(features), ad.mul(ad.sub(gate_in, Tensor(gm)), Tensor(1.0 / gs))


def _inputs(model: TaskModel, prepared: PreparedDataset,
            idx: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """The given rows (default all) through ``_standardized``: features
    stacked per head group (n,B,k), in ``stack.members`` order, and the
    gate input (B,w); a non-finite value is a ``UsageError``."""
    _check_roster(model, [(f"expert {i}", f.shape[1]) for i, f in enumerate(prepared.features)])
    rows = slice(None) if idx is None else idx
    groups, gate_in = _standardized(model, [ad._make(f[rows]) for f in prepared.features],
                                    ad._make(prepared.gate_inputs[rows]))
    groups, gate_in = [g.data for g in groups], gate_in.data
    _check_finite("standardized inputs", *groups, gate_in)
    return groups, gate_in


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    """Refuse non-finite values once, where a fit's arrays are made: its
    steps wrap them in Tensors without ``Tensor()``'s check."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise UsageError(f"{what} must be finite")


def _rows(inputs: tuple[list[np.ndarray], np.ndarray], idx: np.ndarray,
          xw0s: list[np.ndarray] | None = None) -> tuple[list[Tensor], Tensor, list[np.ndarray] | None]:
    """The rows of a (T,B) row matrix ``idx`` of a run's ``_inputs`` as
    Tensors, row t for a joint's task t: (T,n,B,k) per head group and
    (T,B,w). Each fresh gather is wrapped as it is, without a copy. The same rows of
    a joint's first-layer products ``xw0s`` (T,n,N,d and T,N,d) come
    third: T,n,B,d and T,B,d, or None."""
    feats, gate_in = inputs
    picked = None
    if xw0s is not None:
        # one row gather per product, viewed as a (slices x N, d) matrix:
        # leading slice s holds rows s N to s N + N - 1, and the slices of
        # task t read its rows idx[t]
        picked = []
        for p in xw0s:
            lead, (n, d) = p.shape[:-2], p.shape[-2:]
            starts = np.arange(0, p.size // d, n).reshape(lead + (1,))
            at = idx.reshape(idx.shape[:-1] + (1,) * (len(lead) - idx.ndim + 1) + idx.shape[-1:])
            picked.append(np.take(p.reshape(-1, d), starts + at, axis=0))
    return ([ad._make(x[np.arange(len(x))[:, None], idx[..., None, :]]) for x in feats],
            ad._make(gate_in[idx]), picked)


def _check_experts(model: TaskModel, experts: list[ExpertModel]) -> None:
    _check_roster(model, [(f"expert {m.name!r}", m.feature_dim) for m in experts])


# The last raw batch's front-end pass: (weak references to each record's
# lead array and to each expert, (batch size, gate leads, pooled length),
# (features, gate input)). Weak references keep no batch alive, and a dead
# referent matches no new object. Lead arrays and expert parameters are
# read-only and experts are frozen, so an object's identity stands for its
# content. The entry is replaced whole: a thread reading a stale one misses.
_last_front: tuple | None = None


def _front(batch: list[EcgRecord], experts: list[ExpertModel], lead_indices,
           pooled_len: int) -> tuple[list[Tensor], Tensor]:
    """``_block_features`` of a raw record batch, computed once for
    consecutive calls on the same records, experts and gate input: several
    tasks scored on one batch, back to back, share one pass."""
    global _last_front
    objects = [r.leads.data for r in batch] + list(experts)
    shape = (len(batch), tuple(lead_indices), pooled_len)
    memo = _last_front
    if (memo is not None and memo[1] == shape and len(memo[0]) == len(objects)
            and all(ref() is obj for ref, obj in zip(memo[0], objects))):
        return memo[2]
    front = _block_features(experts, ad.stack([r.leads for r in batch]), lead_indices, pooled_len)
    _last_front = [weakref.ref(x) for x in objects], shape, front
    return front


def forward_enecg(batch: list[EcgRecord], experts: list[ExpertModel], model: TaskModel) -> list[EnsembleOutput]:
    """Full forward from raw records; one EnsembleOutput per input, in order.
    Consecutive calls on the same batch share one front-end pass (``_front``).
    Features pass ``_standardized`` as ``evaluate``'s rows do: logits agree bit for bit."""
    gate = _gated(model)
    if not batch:
        return []
    _check_experts(model, experts)
    features, gate_in = _front(batch, experts, gate.lead_indices, gate.pooled_len)
    stacked, weights, combined = _forward_grouped(model, *_standardized(model, features, gate_in))
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
        for key, head in tm.named_heads().items():
            sums[f"{name}.{key}.w0"] = head_checksum(head)
    return sums


def _task_logits(model: TaskModel, prepared: PreparedDataset, idx: np.ndarray) -> np.ndarray:
    """(rows, L) combined logits of a gated model; (N, rows, L) expert
    logits of a gate-less one, in roster order."""
    feats, gate_in = _inputs(model, prepared, idx)
    outs = [o.data for o in _outputs(model, [ad._make(x) for x in feats], ad._make(gate_in))]
    if model.gate is not None:
        return outs[0]
    return np.concatenate(outs)[np.argsort([i for m in model.stack.members for i in m])]


def _scored(cfg: ExperimentConfig, model: TaskModel) -> list[tuple[str, list[Tensor]]]:
    """(name, parameters) of each ``_outputs`` entry: the task for a gated
    model; ``task.expert`` and that expert's head for a gate-less one."""
    if model.gate is not None:
        return [(model.task.name, model.trainable())]
    return [(f"{model.task.name}.{spec.name}", trainable_params(head))
            for spec, head in zip(cfg.experts, model.heads)]


def _metric(model: TaskModel, logits: np.ndarray, labels: np.ndarray) -> float:
    pred = tk.predictions(model.task, logits)
    if model.task.kind == "regression":
        pred = model.denormalize(pred)
    return tk.task_metric(model.task, pred, labels)


def _adam_step(opt: Adam, losses: Callable[[], tuple[list[tuple[str, float]], Tensor]],
               where: str = "") -> tuple[list[float], Tape]:
    """Every fit's Adam step: zero the gradients, record on a fresh tape what
    ``losses`` makes, the (task name, value) of each scored output and the
    loss to back-propagate, refuse a non-finite value, back-propagate and
    step. Returns the values and the tape."""
    opt.zero_grad()
    with Tape() as tape:
        named, total = losses()
        for name, value in named:
            if not np.isfinite(value):
                raise NonFiniteLossError(f"task {name}: non-finite loss {where}")
        backward(total, tape)
    opt.step()
    return [value for _, value in named], tape


@dataclass
class _Joint:
    """Task models whose heads and gates have equal shapes, run as one
    model: its tensors carry a leading task axis, of which each model's
    tensors are views; a model that matches no other is a joint of one.
    ``index`` gives each model's position in the list the joints were made
    from; ``xw0s`` the first-layer products of a run's rows
    (``_frozen_products``), or None to form each batch's in the node."""
    index: list[int]
    models: list[TaskModel]
    stack: HeadStack
    gate: GatingNetwork | None
    xw0s: list[np.ndarray] | None = None

    adapted = TaskModel.adapted
    trainable = TaskModel.trainable


def _stack_tasks(models: list[TaskModel],
                 inputs: tuple[list[np.ndarray], np.ndarray]) -> list[_Joint]:
    """The joints of ``models``, in the order of each joint's first model:
    the models whose head groups (members and shapes) and gate agree are
    stacked into one (``stack_views``). Each joint forms its first-layer
    products of the run's ``_inputs`` (``_frozen_products``)."""
    keys: dict[tuple, list[int]] = {}
    for t, m in enumerate(models):
        heads = m.stack.groups + ([] if m.gate is None else [m.gate])
        key = (tuple(map(tuple, m.stack.members)), tuple(map(head_shapes, heads)))
        keys.setdefault(key, []).append(t)
    joints = []
    for index in keys.values():
        ms = [models[t] for t in index]
        stack = HeadStack([LoraHead(stack_views(list(groups)))
                           for groups in zip(*(m.stack.groups for m in ms))], ms[0].stack.members)
        gate = None if ms[0].gate is None else replace(ms[0].gate, layers=stack_views([m.gate for m in ms]))
        joint = _Joint(index, ms, stack, gate)
        joint.xw0s = _frozen_products(joint, inputs)
        joints.append(joint)
    return joints


def _frozen_products(joint: _Joint, inputs: tuple[list[np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """``x @ w0.T`` of the first layer of each head ``joint.adapted()`` runs,
    over every row of a run's ``_inputs``: T,n,N,d per head group and
    T,N,d for the gate. w0 is frozen and the inputs are fixed, so a fit
    forms these once and each step gathers its rows (``_rows``). For 2 or
    more rows the gathered rows equal the batch's own product bit for bit
    (one BLAS matrix product per slice either way); a 1-row batch is a
    matrix-vector product in the node, which may round otherwise."""
    feats, gate_in = inputs
    return [x @ np.ascontiguousarray(head.layers[0].w0.data.swapaxes(-1, -2))
            for head, x in zip(joint.adapted(), feats + [gate_in])]


def _joint_rows(joints: list[_Joint], inputs: tuple[list[np.ndarray], np.ndarray],
                rows: np.ndarray) -> list[tuple]:
    """Each joint's ``_rows`` of the run's ``_inputs``, model t of the list
    the joints were made from on the rows ``rows[t]`` of a (T,B) row matrix."""
    return [_rows(inputs, rows[joint.index], joint.xw0s) for joint in joints]


def _scored_slices(joints: list[_Joint], joint_rows: list[tuple]):
    """Each joint output (``_outputs``) on its rows (``_joint_rows``), with
    the (model, output) key of each of its (B,L) slices in row-major order:
    output 0 of a gated model, the expert's roster position for a gate-less
    one, as in ``_scored``."""
    for joint, rows in zip(joints, joint_rows):
        outs = _outputs(joint, *rows)
        keys = ([[(t, 0) for t in joint.index]] if joint.gate is not None
                else [[(t, i) for t in joint.index for i in members] for members in joint.stack.members])
        yield from zip(outs, keys)


def _train_step(joints: list[_Joint], inputs: tuple[list[np.ndarray], np.ndarray],
                targets: list[np.ndarray], rows: np.ndarray, opt: Adam,
                where: str = "") -> tuple[list[float], Tape]:
    """``_adam_step`` on every output of every model of ``joints``, model t
    on the rows ``rows[t]``: one tape, one backward and one step for all,
    and one loss node per joint output (``tasks.task_loss``), each slice
    scored by its task's loss. Values come in ``_scored`` order, model by
    model."""
    models = {t: model for joint in joints for t, model in zip(joint.index, joint.models)}

    def losses():
        slices = {t: (model.task, targets[t][rows[t]], model.pos_weight, model.neg_weight)
                  for t, model in models.items()}
        values, nodes = {}, []
        for out, keys in _scored_slices(joints, _joint_rows(joints, inputs, rows)):
            node, slice_values = tk.task_loss(out, [slices[t] for t, _ in keys])
            nodes.append(node)
            values.update(zip(keys, slice_values))
        return [(models[t].task.name, values[(t, i)]) for t, i in sorted(values)], reduce(ad.add, nodes)

    return _adam_step(opt, losses, where)


def _fit(cfg: ExperimentConfig, models: list[TaskModel], prepared: PreparedDataset,
         inputs: tuple[list[np.ndarray], np.ndarray], train_idx: np.ndarray,
         val_idx: np.ndarray, seed: int) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Adam over the LoRA factors and biases of every model, reading the
    run's ``_inputs``: one step per batch for all (``_train_step``), each
    model on the summed losses of its outputs and on its own batch order,
    drawn by ``(seed, 0x7E, task id)``. Parameters are disjoint and Adam is
    elementwise, so each model trains as it would alone. Each joint forms
    its first-layer products once (``_frozen_products``). Each output keeps
    the parameters (``_scored``) of its best validation epoch. Returns
    (validation metric per epoch, mean training loss per epoch) by output."""
    targets = []
    for model in models:
        y = prepared.labels[model.task.name][train_idx]
        if model.task.kind == "regression" and cfg.normalize_targets:
            model.target_mean, model.target_std = float(y.mean()), float(y.std()) or 1.0
        if model.task.kind == "binary" and cfg.class_weighted_bce:
            model.pos_weight, model.neg_weight = tk.class_weights(y)
        targets.append(model.targets(prepared))
    joints = _stack_tasks(models, inputs)
    opt = Adam([p for joint in joints for p in joint.trainable()], lr=cfg.learning_rate)
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0x7E, _task_id(m.task)))) for m in models]
    scored = [(model, name, params) for model in models for name, params in _scored(cfg, model)]
    history: dict[str, list[float]] = {name: [] for _, name, _ in scored}
    losses: dict[str, list[float]] = {name: [] for _, name, _ in scored}
    best_state: list[list[np.ndarray] | None] = [None] * len(scored)
    starts = range(0, train_idx.size, cfg.batch_size)
    # the validation rows are the same every epoch: gathered once
    val_rows = _joint_rows(joints, inputs, np.tile(val_idx, (len(models), 1)))
    for epoch in range(cfg.epochs):
        order = np.stack([train_idx[rng.permutation(train_idx.size)] for rng in rngs])
        sums = [0.0] * len(scored)
        for start in starts:
            values, _ = _train_step(joints, inputs, targets, order[:, start:start + cfg.batch_size],
                                    opt, where=f"at epoch {epoch}, batch starting {start}")
            sums = [acc + value for acc, value in zip(sums, values)]
        outs = {}
        for out, keys in _scored_slices(joints, val_rows):
            outs.update(zip(keys, out.data.reshape((-1,) + out.shape[-2:])))
        for i, ((model, name, params), key) in enumerate(zip(scored, sorted(outs))):
            out = outs[key]
            losses[name].append(sums[i] / max(len(starts), 1))
            score = _metric(model, out, prepared.labels[model.task.name][val_idx])
            scores = history[name]
            # strict improvement on the running best: the first best epoch wins ties
            if not scores or (score > max(scores) if model.task.higher_is_better
                              else score < min(scores)):
                best_state[i] = [p.data.copy() for p in params]
            scores.append(score)
    for (_, _, params), snaps in zip(scored, best_state):
        for p, snap in zip(params, snaps or []):
            p.data[...] = snap
    return history, losses


def train(cfg: ExperimentConfig, seed: int | None = None,
          prepared: PreparedDataset | None = None,
          experts: list[ExpertModel] | None = None) -> TrainedModel:
    """Fit every task of ``cfg``, all in one loop (``_fit``), each on its
    own generators: its heads and gate drawn by ``(seed, 0x4EAD, task id)``,
    its batch order by ``(seed, 0x7E, task id)``."""
    return _train(cfg, seed, prepared, experts, build_task_model)


def _train(cfg: ExperimentConfig, seed: int | None, prepared: PreparedDataset | None,
           experts: list[ExpertModel] | None, build) -> TrainedModel:
    """``train`` with the task models ``build(cfg, experts, task, seed)`` makes."""
    cfg.validate()
    seed = cfg.seed if seed is None else seed
    # split first, so a dataset too small to split fails before it is prepared
    train_idx, val_idx, _ = split_indices(cfg.n_records if prepared is None else prepared.n,
                                          cfg.split, seed)
    experts = build_experts(cfg) if experts is None else experts
    if prepared is None:
        prepared = prepare_dataset(cfg, experts, seed=seed)
    models = {name: build(cfg, experts, tk.task_by_name(name), seed) for name in cfg.tasks}
    # one set of statistics, and one standardized copy of the rows, per run
    stats = fit_input_stats(prepared, train_idx)
    for model in models.values():
        model.feature_stats, model.gate_stats = stats
    inputs = _inputs(models[cfg.tasks[0]], prepared)
    before = _frozen_checksums(experts, models)
    history, losses = _fit(cfg, list(models.values()), prepared, inputs, train_idx, val_idx, seed)
    trained = TrainedModel(cfg=cfg, experts=experts, tasks=models, history=history, train_loss=losses)
    after = _frozen_checksums(experts, models)
    changed = [k for k in before if before[k] != after[k]]
    if changed:
        raise InvariantError(f"frozen parameters changed during training: {changed}")
    return trained


# ---------------------------------------------------------------------------
# evaluation, efficiency, reports

NOT_APPLICABLE = "n/a"


@dataclass
class TaskResult:
    """A task's test metric over seeds; mean and std are None, and values
    empty, where the strategy does not apply (zero-shot on regression)."""
    task: str
    metric: str
    mean: float | None
    std: float | None
    values: list[float]

    def csv_fields(self) -> list[str]:
        return [NOT_APPLICABLE] * 2 if self.mean is None else [repr(self.mean), repr(self.std)]


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
            lines.append(",".join([t.task, t.metric, *t.csv_fields()]) +
                         f",{self.params_trainable},{self.params_total},"
                         f"{self.throughput_sps!r},{self.wallclock_s!r}")
        return "\n".join(lines) + "\n"


def evaluate(trained: TrainedModel, prepared: PreparedDataset, idx: np.ndarray,
             tasks: tuple[str, ...] | None = None) -> dict[str, float]:
    """Task metric per task on the given index set; a gate-less model's
    experts are scored one by one, keyed ``task.expert`` as in its history."""
    if idx.size == 0:
        raise UsageError("evaluate needs a nonempty split")
    out: dict[str, float] = {}
    for name in (tasks or tuple(trained.tasks)):
        model = trained.tasks[name]
        logits = _task_logits(model, prepared, idx)
        for (key, _), rows in zip(_scored(trained.cfg, model),
                                  [logits] if model.gate is not None else logits):
            out[key] = _metric(model, rows, prepared.labels[name][idx])
    return out


def parameter_counts(trained: TrainedModel) -> tuple[int, int]:
    """(trainable, frozen) parameter totals across experts, heads and gates."""
    tensors = [t for model in trained.tasks.values() for head in model.adapted()
               for layer in head.layers for t in layer.tensors().values()]
    experts = sum(p.data.size for m in trained.experts for p in m.params.values())
    return (sum(t.data.size for t in tensors if t.requires_grad),
            experts + sum(t.data.size for t in tensors if not t.requires_grad))


# a pass is timed again until this long has gone by, so a stall of the
# machine shorter than the window cannot slow every pass
BENCH_WINDOW_S = 0.2
BENCH_PASSES = 3


def _fastest_pass(run) -> float:
    """Seconds of the fastest of at least ``BENCH_PASSES`` timed calls of ``run``,
    repeated until ``BENCH_WINDOW_S`` has gone by: noise on a shared machine
    only adds time to a pass (the ``timeit`` convention)."""
    times = []
    start = time.perf_counter()
    while len(times) < BENCH_PASSES or time.perf_counter() - start < BENCH_WINDOW_S:
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench(trained: TrainedModel, prepared: PreparedDataset, idx: np.ndarray) -> MetricsReport:
    """Throughput of the whole system, exact parameter counts and a
    shape-derived activation-memory estimate of one training step; metrics
    and wallclock are left to the caller.

    Both throughputs come from the fastest timed pass (``_fastest_pass``);
    a pass scores every task, or takes one joint training step on every
    task, after which the task models view the joint tensors (values
    unchanged). An empty ``idx`` is a UsageError, as in ``evaluate``."""
    if idx.size == 0:
        raise UsageError("bench needs a nonempty split")
    trainable, frozen = parameter_counts(trained)
    models = list(trained.tasks.values())

    def score():
        for model in models:
            _task_logits(model, prepared, idx)

    throughput = idx.size / _fastest_pass(score)

    batch = idx[:min(trained.cfg.batch_size, idx.size)]
    rows = np.tile(batch, (len(models), 1))
    inputs = _inputs(models[0], prepared)
    targets = [model.targets(prepared) for model in models]
    joints = _stack_tasks(models, inputs)
    # lr 0: timed steps leave the models unchanged
    probe = Adam([p for joint in joints for p in joint.trainable()], lr=0.0)
    _, tape = _train_step(joints, inputs, targets, rows, probe)    # untimed: sizes one step
    activation_bytes = sum(node.output.data.size for node in tape.nodes) * 8
    train_throughput = batch.size / _fastest_pass(
        lambda: _train_step(joints, inputs, targets, rows, probe))
    probe.zero_grad()

    return MetricsReport(
        tasks=[],
        params_trainable=trainable,
        params_frozen=frozen,
        params_total=trainable + frozen,
        throughput_sps=throughput,
        train_throughput_sps=train_throughput,
        activation_bytes=activation_bytes,
        wallclock_s=0.0,
    )


# ---------------------------------------------------------------------------
# task-model checkpoints (adapters' named-tensor container)

def save_task_model(model: TaskModel, path) -> None:
    """Write the model's tensors and the scalars no tensor shape determines;
    ``load_task_model`` reads the structure back from the shapes."""
    gate = _gated(model)
    tensors: dict[str, Tensor] = {}
    for prefix, head in model.named_heads().items():
        for j, layer in enumerate(head.layers):
            for key, t in layer.tensors().items():
                tensors[f"{prefix}.layer{j}.{key}"] = t
    for i, (mean, std) in enumerate(model.feature_stats):
        tensors[f"featstats{i}.mean"] = Tensor(mean)
        tensors[f"featstats{i}.std"] = Tensor(std)
    gm, gs = model.gate_stats
    tensors["gatestats.mean"] = Tensor(gm)
    tensors["gatestats.std"] = Tensor(gs)
    tensors["gate.leads"] = Tensor(np.asarray(gate.lead_indices, dtype=np.float64))
    scalars = {
        "task_id": float(_task_id(model.task)),
        "train_bias": float(model.stack.groups[0].layers[0].bias.requires_grad),
        "target_mean": model.target_mean,
        "target_std": model.target_std,
        "pos_weight": model.pos_weight,
        "neg_weight": model.neg_weight,
    }
    write_tensors(path, tensors, scalars)


def load_task_model(path) -> TaskModel:
    """Rebuild a task model written by ``save_task_model``: tensor names give
    its heads (two layers each), shapes every width and rank. A missing or
    unexpected entry, a non-finite value, a standard deviation that is not
    positive, a non-integer count or lead, or a shape that disagrees with
    what it fills is a ParseError naming both."""
    tensors, scalars = read_tensors(path)
    unread = set(tensors)

    def scalar(name: str) -> float:
        if name not in scalars:
            raise ParseError(f"{path}: missing scalar {name!r}")
        if not np.isfinite(scalars[name]):
            raise ParseError(f"{path}: scalar {name!r} is not finite")
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
        if not np.isfinite(tensors[name]).all():
            raise ParseError(f"{path}: tensor {name!r} has non-finite values")
        unread.discard(name)
        return tensors[name]

    task_id = count("task_id")
    if task_id >= len(tk.TASKS):
        raise ParseError(f"{path}: scalar 'task_id' {task_id} names no task")
    task = tk.task_by_name(list(tk.TASKS)[task_id])
    train_bias = bool(count("train_bias"))

    def rebuild(prefix: str) -> LoraLinear:
        w0, lora_a = tensor(f"{prefix}.w0"), tensor(f"{prefix}.lora_a")
        if w0.ndim != 2 or lora_a.ndim != 2:
            raise ParseError(f"{path}: tensors {prefix!r}.w0 and .lora_a must be matrices")
        try:
            layer = LoraLinear(*w0.shape, lora_a.shape[0], np.random.default_rng(0), train_bias)
        except UsageError as e:  # a rank out of range for the stored widths
            raise ParseError(f"{path}: {prefix}: {e}") from e
        for key, t in layer.tensors().items():
            t.data[...] = tensor(f"{prefix}.{key}", t.data.shape)
        return layer

    def head(prefix: str, widths: tuple[int, ...], make=LoraHead, **fields) -> LoraHead:
        built = make(layers=[rebuild(f"{prefix}.layer{j}") for j in (0, 1)], **fields)
        if built.output_dim not in widths:
            raise ParseError(f"{path}: {prefix}.layer1 has width {built.output_dim}; "
                             f"{task.name} needs {' or '.join(map(str, widths))}")
        return built

    n = max(len({name.split(".")[0] for name in tensors if name.startswith("head")}), 1)
    heads = [head(f"head{i}", (task.output_dim,)) for i in range(n)]
    leads = tensor("gate.leads").reshape(-1)
    if not all(v >= 0 and v.is_integer() for v in leads.tolist()):
        raise ParseError(f"{path}: tensor 'gate.leads' must hold lead indices, got {leads.tolist()}")
    # one weight per (expert, output coordinate), or one per expert
    gate = head("gate", (n * task.output_dim, n), GatingNetwork,
                lead_indices=[int(v) for v in leads], n_experts=n)
    if leads.size == 0 or gate.in_dim % leads.size:
        raise ParseError(f"{path}: tensor 'gate.leads' lists {leads.size} leads, which do not "
                         f"divide the gate.layer0 input width {gate.in_dim}")
    stats = [(tensor(f"featstats{i}.mean", (h.in_dim,)), tensor(f"featstats{i}.std", (h.in_dim,)))
             for i, h in enumerate(heads)]
    gate_stats = (tensor("gatestats.mean", (gate.in_dim,)), tensor("gatestats.std", (gate.in_dim,)))
    for name in [f"featstats{i}.std" for i in range(n)] + ["gatestats.std"]:
        if not (tensors[name] > 0).all():
            raise ParseError(f"{path}: tensor {name!r} has a standard deviation <= 0")
    if unread:  # e.g. a third layer: every head and the gate have two
        raise ParseError(f"{path}: unexpected tensor {min(unread)!r}")
    return TaskModel(task=task, stack=stack_heads(heads), gate=gate, feature_stats=stats,
                     gate_stats=gate_stats, target_mean=scalar("target_mean"),
                     target_std=scalar("target_std"), pos_weight=scalar("pos_weight"),
                     neg_weight=scalar("neg_weight"))


# ---------------------------------------------------------------------------
# multi-seed suite and ensemble-strategy comparison

@dataclass
class SuiteRun:
    """Everything trained for one seed: the dataset, the experts fine-tuned
    one by one (one gate-less stacked model per task), and the MoE system."""
    seed: int
    prepared: PreparedDataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    singles: TrainedModel | None
    moe: TrainedModel | None


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
        singles = (_train(cfg, seed, prepared, experts, _build_singles)
                   if any(s != "moe" for s in strategies) else None)
        moe = train(cfg, seed=seed, prepared=prepared, experts=experts) if "moe" in strategies else None
        runs.append(SuiteRun(seed, prepared, tr, va, te, singles, moe))
    return runs


def fit_sample_aware(cfg: ExperimentConfig, gate_inputs: np.ndarray, logits: np.ndarray,
                     targets: np.ndarray, task: tk.TaskSpec, seed: int) -> GatingNetwork:
    """Tuning baseline: a fully trainable gate (``lora_only`` off) over raw gate
    inputs, fitted by the task loss of its combination of the experts' (N,B,L)
    logits; one generator, ``(seed, 0xAE)``, draws the gate, then each epoch's order."""
    if targets.size == 0:
        raise UsageError("sample-aware training needs a nonempty validation set")
    _check_finite(f"task {task.name}: sample-aware logits, gate inputs and targets",
                  logits, gate_inputs, targets)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xAE)))
    gate = build_gate(logits.shape[0], task.output_dim, rng, cfg.gate_leads, cfg.gate_pooled_len,
                      cfg.gate_hidden, per_coordinate=cfg.per_coordinate_weights, lora_only=False)
    stacked = np.transpose(logits, (1, 0, 2))
    opt = Adam(trainable_params(gate), lr=cfg.learning_rate)
    pos_w, neg_w = (tk.class_weights(targets) if task.kind == "binary" and cfg.class_weighted_bce
                    else (1.0, 1.0))
    for epoch in range(cfg.epochs):
        order = rng.permutation(targets.size)
        for start in range(0, order.size, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]

            def loss():
                combined = ensemble_combine(ad._make(stacked[rows]),
                                            gate_forward(gate, ad._make(gate_inputs[rows])))
                node, values = tk.task_loss(combined, [(task, targets[rows], pos_w, neg_w)])
                return [(task.name, values[0])], node

            _adam_step(opt, loss, f"in the sample-aware gate at epoch {epoch}, batch starting {start}")
    return gate


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
    if run.singles is None:
        raise UsageError("suite was built without the single-expert systems")
    # (N, rows, L); regression logits are in the standardized target space
    ref = run.singles.tasks[task_name]
    logits_val = _task_logits(ref, run.prepared, run.val_idx)
    logits_test = _task_logits(ref, run.prepared, run.test_idx)
    y_val = run.prepared.labels[task_name][run.val_idx]
    y_test = run.prepared.labels[task_name][run.test_idx]
    real = ref.denormalize if task.kind == "regression" else np.asarray
    real_val, real_test = real(logits_val), real(logits_test)

    if strategy == "uniform":
        weights = uniform_weights(len(ref.stack))
    elif strategy == "zero_shot":
        try:
            weights = zero_shot_confidence_weights(real_val, y_val, task)
        except NotApplicableError:
            return None
    elif strategy == "greedy":
        weights = greedy_search_weights(real_val, y_val, task)
    elif strategy == "sample_aware":
        y_fit = ref.normalize(y_val) if task.kind == "regression" else y_val
        gate = fit_sample_aware(cfg, run.prepared.gate_inputs[run.val_idx], logits_val,
                                y_fit, task, run.seed)
        w = gate_forward(gate, Tensor(run.prepared.gate_inputs[run.test_idx]))
        combined = ensemble_combine(Tensor(np.transpose(real_test, (1, 0, 2))), w).data
        return tk.metric_from_logits(task, combined, y_test)
    else:
        raise UsageError(f"unknown strategy {strategy!r}")
    return _static_metric(task, real_test, weights, y_test)


@dataclass
class StrategyComparison:
    """Rows = tasks, columns = weighting strategies; regression rows mark
    zero-shot as not applicable."""
    tasks: list[str]
    strategies: list[str]
    cells: dict[str, dict[str, TaskResult]]

    def to_json(self) -> str:
        doc = {"tasks": self.tasks, "strategies": self.strategies, "results": {}}
        for task in self.tasks:
            doc["results"][task] = {}
            for strat in self.strategies:
                cell = self.cells[task][strat]
                doc["results"][task][strat] = (
                    NOT_APPLICABLE if cell.mean is None
                    else {"mean": cell.mean, "std": cell.std, "values": cell.values})
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        lines = ["task,metric," + ",".join(f"{s}_mean,{s}_std" for s in self.strategies)]
        for task in self.tasks:
            row = [task, tk.task_by_name(task).metric]
            for strat in self.strategies:
                row += self.cells[task][strat].csv_fields()
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def compare_strategies(cfg: ExperimentConfig, runs: list[SuiteRun] | None = None,
                       strategies=COMPARED_STRATEGIES) -> StrategyComparison:
    """Table of test metrics (mean +- std over seeds) per task and strategy:
    the one place strategy scores are aggregated over a suite's seeds."""
    runs = run_suite(cfg, strategies) if runs is None else runs
    cells: dict[str, dict[str, TaskResult]] = {}
    for task_name in cfg.tasks:
        metric = tk.task_by_name(task_name).metric
        cells[task_name] = {}
        for strat in strategies:
            values = [strategy_score(cfg, run, strat, task_name) for run in runs]
            cells[task_name][strat] = (
                TaskResult(task_name, metric, None, None, []) if any(v is None for v in values)
                else TaskResult(task_name, metric, float(np.mean(values)), float(np.std(values)),
                                [float(v) for v in values]))
    return StrategyComparison(list(cfg.tasks), list(strategies), cells)

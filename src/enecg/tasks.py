"""The five downstream tasks: kinds, losses, metrics and label access.

rr and age are regressions trained on mean squared error and scored by MAE;
sex and potassium are binary classifications trained on weighted BCE and
scored by positive-class F1 (threshold 0.5 on the sigmoid); arrhythmia is a
15-way classification trained on cross-entropy and scored by top-1 accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import UsageError
from .signal import LabelSet


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str          # regression | binary | multiclass
    output_dim: int
    metric: str        # mae | f1 | accuracy

    @property
    def higher_is_better(self) -> bool:
        return self.kind != "regression"


TASKS: dict[str, TaskSpec] = {
    "rr": TaskSpec("rr", "regression", 1, "mae"),
    "age": TaskSpec("age", "regression", 1, "mae"),
    "sex": TaskSpec("sex", "binary", 1, "f1"),
    "potassium": TaskSpec("potassium", "binary", 1, "f1"),
    "arrhythmia": TaskSpec("arrhythmia", "multiclass", 15, "accuracy"),
}


def task_by_name(name: str) -> TaskSpec:
    if name not in TASKS:
        raise UsageError(f"unknown task {name!r}; expected one of {sorted(TASKS)}")
    return TASKS[name]


def label_value(task: TaskSpec, labels: LabelSet) -> float:
    return {
        "rr": labels.rr_ms,
        "age": labels.age_years,
        "sex": float(labels.sex),
        "potassium": float(labels.potassium_abnormal),
        "arrhythmia": float(labels.arrhythmia_class),
    }[task.name]


def label_vector(task: TaskSpec, labels: list[LabelSet]) -> np.ndarray:
    return np.array([label_value(task, l) for l in labels])


def class_weights(y: np.ndarray) -> tuple[float, float]:
    """Balanced binary weights proportional to inverse prevalence."""
    n = y.size
    n_pos = float(y.sum())
    n_neg = n - n_pos
    w_pos = n / (2.0 * n_pos) if n_pos > 0 else 1.0
    w_neg = n / (2.0 * n_neg) if n_neg > 0 else 1.0
    return w_pos, w_neg


def task_loss(logits: Tensor, slices) -> tuple[Tensor, list[float]]:
    """Mean loss of each (B, L) slice of ``logits`` (*lead, B, L), in
    row-major order, against its task's raw target values, as one autodiff
    node whose output is their sum (``autodiff.slice_losses``, tagged by the
    loss's name for a single slice); returns the node and each slice's value.
    ``slices`` holds a (task, targets) or (task, targets, pos_weight,
    neg_weight) per slice.

    Regression targets are whatever scale the caller trains in (the pipeline
    standardizes them); binary/multiclass targets are class indices, and a
    binary target's weight is ``pos_weight`` or ``neg_weight`` by its class
    (1 without them). The losses use the targets as given: the fits check
    them for finiteness once.
    """
    terms = []
    for task, targets, *weights in slices:
        if task.kind == "regression":
            terms.append(("mse", targets))
        elif task.kind == "binary":
            pos_weight, neg_weight = weights or (1.0, 1.0)
            terms.append(("weighted_bce_with_logits", targets,
                          np.where(targets > 0.5, pos_weight, neg_weight)))
        else:
            terms.append(("cross_entropy", targets))
    return ad.slice_losses(logits, terms)


def predictions(task: TaskSpec, logits: np.ndarray) -> np.ndarray:
    """Point predictions from raw logits (regression values still in the
    training scale; the caller un-standardizes)."""
    if task.kind == "regression":
        return logits[:, 0]
    if task.kind == "binary":
        return (logits[:, 0] >= 0.0).astype(np.float64)  # sigmoid >= 0.5
    return logits.argmax(axis=1).astype(np.float64)


def mae(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - y)))


def f1_score(pred: np.ndarray, y: np.ndarray) -> float:
    tp = float(np.sum((pred > 0.5) & (y > 0.5)))
    fp = float(np.sum((pred > 0.5) & (y <= 0.5)))
    fn = float(np.sum((pred <= 0.5) & (y > 0.5)))
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def accuracy(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(pred.astype(int) == y.astype(int)))


def task_metric(task: TaskSpec, pred: np.ndarray, y: np.ndarray) -> float:
    if task.metric == "mae":
        return mae(pred, y)
    if task.metric == "f1":
        return f1_score(pred, y)
    return accuracy(pred, y)


def metric_from_logits(task: TaskSpec, logits: np.ndarray, y: np.ndarray) -> float:
    return task_metric(task, predictions(task, logits), y)

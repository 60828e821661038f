"""Integrated-gradients attribution over input samples.

The path integral from a baseline to the input is approximated with the
midpoint Riemann rule: the gradient of the target scalar is evaluated at
m interpolation points (t - 0.5)/m along the straight line and averaged,
then scaled by (x - baseline). The completeness gap |sum(IG) - (F(x) -
F(baseline))| is computed and stored rather than hidden.

All m interpolation points are pushed through the model as one batch; the
sum of the m scalar outputs is differentiated once, which yields each
point's input gradient in a single backward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .autodiff import Tensor, Tape, backward
from .errors import DimensionError, ParseError, UsageError, read_lines
from .experts import ExpertModel
from .pipeline import _raw_forward


@dataclass
class SaliencyMap:
    attributions: np.ndarray        # same shape as the model input
    baseline: str
    steps: int
    completeness_gap: float
    target_value: float             # F(x)
    baseline_value: float           # F(baseline)


def integrated_gradients(model, x: Tensor, baseline: Tensor | None = None,
                         steps: int = 64) -> SaliencyMap:
    """Midpoint-rule integrated gradients of a scalar-valued model.

    ``model(t)`` must return a single-element Tensor built from the
    primitives, where ``t`` may carry a leading batch axis (each batch row
    then contributes one scalar; their sum is differentiated).
    """
    if steps < 1:
        raise UsageError(f"integrated gradients needs steps >= 1, got {steps}")
    base = Tensor(np.zeros_like(x.data)) if baseline is None else baseline
    if base.shape != x.shape:
        raise DimensionError(f"baseline shape {base.shape} != input shape {x.shape}")
    diff = x.data - base.data

    alphas = (np.arange(steps) + 0.5) / steps
    probe = Tensor(base.data[None, ...] + alphas.reshape((-1,) + (1,) * x.data.ndim) * diff[None, ...],
                   requires_grad=True)
    with Tape() as tape:
        out = model(probe)
        if out.data.size != steps:
            raise UsageError(f"model returned {out.data.size} values for {steps} points; "
                             "expected one scalar per interpolation point")
        total = ad.reduce_sum(out)
        backward(total, tape)
    mean_grad = probe.grad.mean(axis=0)
    attributions = diff * mean_grad

    f_x = float(model(Tensor(x.data[None, ...])).data.reshape(-1)[0])
    f_base = float(model(Tensor(base.data[None, ...])).data.reshape(-1)[0])
    gap = abs(attributions.sum() - (f_x - f_base))
    label = "zeros" if baseline is None else f"tensor{base.shape}"
    return SaliencyMap(attributions, label, steps, gap, f_x, f_base)


def scalar_target(task: tk.TaskSpec, logits: Tensor, class_index: int | None = None) -> Tensor:
    """Designated scalar per task kind: the regression value, the binary
    logit, or the logit of a chosen class. A multiclass task needs a
    ``class_index`` in 0..L-1; no other task takes one."""
    n = logits.shape[0]
    if task.kind != "multiclass":
        if class_index is not None:
            raise UsageError(f"class_index applies only to a multiclass task, not "
                             f"{task.kind} task {task.name!r}")
        return ad.reshape(logits, (n,))
    if class_index is None:
        raise UsageError("multiclass attribution needs a class_index")
    if (isinstance(class_index, bool) or not isinstance(class_index, (int, np.integer))
            or not 0 <= class_index < task.output_dim):
        raise UsageError(f"class_index must be an integer in 0..{task.output_dim - 1} for "
                         f"task {task.name!r}, got {class_index!r}")
    pick = np.zeros((1, task.output_dim))
    pick[0, class_index] = 1.0
    return ad.reduce_sum(ad.mul(logits, Tensor(pick)), axis=1)


def ensemble_scalar_model(experts: list[ExpertModel], model, task: tk.TaskSpec,
                          expert_index: int | None = None, class_index: int | None = None):
    """Scalar model over a raw (B,C,T) record batch for IG attribution.

    Attributes the combined logit by default, or a single expert's logit
    when ``expert_index`` is given. Regression outputs stay in the
    standardized training scale; attribution shape follows the raw record.
    """
    def run(block: Tensor) -> Tensor:
        stacked, _, combined = _raw_forward(model, experts, block)
        if expert_index is None:
            return scalar_target(task, combined, class_index)
        one = ad.take_rows(stacked, [expert_index], axis=1)
        single = ad.reshape(one, (stacked.shape[0], task.output_dim))
        return scalar_target(task, single, class_index)

    return run


def export_saliency(smap: SaliencyMap, csv_path, json_path=None) -> None:
    """CSV of (lead, sample_index, attribution) plus a JSON sidecar."""
    att = smap.attributions
    if att.ndim != 2:
        raise DimensionError(f"expected (C,T) attributions, got shape {att.shape}")
    with open(csv_path, "w") as fh:
        fh.write("lead,sample_index,attribution\n")
        for lead in range(att.shape[0]):
            for i, v in enumerate(att[lead]):
                fh.write(f"{lead},{i},{float(v)!r}\n")
    sidecar = {
        "baseline": smap.baseline,
        "steps": smap.steps,
        "completeness_gap": smap.completeness_gap,
        "target_value": smap.target_value,
        "baseline_value": smap.baseline_value,
        "shape": list(att.shape),
    }
    path = json_path if json_path is not None else str(csv_path) + ".json"
    with open(path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_saliency_csv(csv_path) -> np.ndarray:
    lines = read_lines(csv_path)
    if not lines or lines[0] != "lead,sample_index,attribution":
        raise ParseError(f"{csv_path}:1: not a saliency CSV")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{csv_path}:{i}: expected 3 fields")
        try:
            row = (int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as e:
            raise ParseError(f"{csv_path}:{i}: {e}") from e
        if row[0] < 0 or row[1] < 0:
            raise ParseError(f"{csv_path}:{i}: negative lead or sample index")
        rows.append(row)
    if not rows:
        raise ParseError(f"{csv_path}: no attribution rows after the header")
    n_leads = max(r[0] for r in rows) + 1
    n_samples = max(r[1] for r in rows) + 1
    out = np.zeros((n_leads, n_samples))
    for lead, idx, val in rows:
        out[lead, idx] = val
    return out

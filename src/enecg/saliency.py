"""Integrated-gradients attribution over input samples.

The path integral from a baseline to the input is approximated with the
midpoint Riemann rule: the gradient of the target scalar is evaluated at
m interpolation points (t - 0.5)/m along the straight line and averaged,
then scaled by (x - baseline). The completeness gap |sum(IG) - (F(x) -
F(baseline))| is stored rather than hidden, with the IG paper's 5% limit.

The model is any callable; each chunk of ``IG_CHUNK`` points is one
``autodiff.line`` over the baseline, on one tape. The straight-line path
commutes with a linear map (Sundararajan et al. 2017, arXiv 1703.01365),
so linear primitives carry the line rather than form its points (see
``autodiff.line``): an ensemble map forms neither its raw nor its spectral points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import tasks as tk
from .autodiff import Tensor, Tape, backward
from .errors import DimensionError, ParseError, UsageError, read_lines
from .experts import ExpertModel
from .pipeline import _block_features, _check_experts, _forward_grouped, _gated, _standardized

# interpolation points per tape: bounds IG's working set by the chunk, not
# by the step count. No primitive forms a chunk's raw or statistical-view
# points whole, so a wider chunk costs little memory and saves tapes: an
# m=256 map on a 12x5000 record (2 vCPU) took 0.085 s in 8 chunks of 32
# and 0.056 s in 2 of 128, peaking at 9.0 and 26.6 MB (tracemalloc)
IG_CHUNK = 128


@dataclass
class SaliencyMap:
    attributions: np.ndarray        # same shape as the model input
    baseline: str
    steps: int
    completeness_gap: float
    target_value: float             # F(x)
    baseline_value: float           # F(baseline)

    @property
    def completeness_limit(self) -> float:
        """The IG paper's criterion for enough steps (sec. 3): a completeness
        gap within 5% of the output scale max(|F(x) - F(b)|, |F(x)|, |F(b)|)."""
        fx, fb = self.target_value, self.baseline_value
        return 0.05 * max(abs(fx - fb), abs(fx), abs(fb))


def integrated_gradients(model, x: Tensor, baseline: Tensor | None = None,
                         steps: int = 64) -> SaliencyMap:
    """Midpoint-rule integrated gradients of a scalar-valued model.

    ``model(t)`` must return one scalar per row of ``t``, a batch of inputs
    along a new leading axis, built from the primitives. ``x`` and
    ``baseline`` may be Tensors or arrays. Each chunk of ``IG_CHUNK``
    points is one ``line`` over the baseline leaf on one tape, whose summed
    output is differentiated once into that leaf.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise UsageError(f"integrated gradients needs an integer steps >= 1, got {steps!r}")
    x = ad.as_tensor(x)
    base = Tensor(np.zeros_like(x.data)) if baseline is None else ad.as_tensor(baseline)
    if base.shape != x.shape:
        raise DimensionError(f"baseline shape {base.shape} != input shape {x.shape}")
    diff = x.data - base.data
    if not np.isfinite(diff).all():
        raise UsageError("integrated gradients needs finite views of the input and baseline")

    alphas = (np.arange(steps) + 0.5) / steps
    # each chunk's backward sums its points' gradients into this leaf
    leaf = ad._make(base.data[None], True)
    for lo in range(0, steps, IG_CHUNK):
        chunk = alphas[lo:lo + IG_CHUNK]
        with Tape() as tape:
            out = model(ad.line(leaf, diff[None], chunk))
            if out.data.size != chunk.size:
                raise UsageError(f"model returned {out.data.size} values for {chunk.size} points; "
                                 "expected one scalar per interpolation point")
            backward(ad.reduce_sum(out), tape)
    # an input the target does not read gets no gradient
    attributions = diff * (0.0 if leaf.grad is None else leaf.grad[0] / steps)
    f_x, f_base = (float(model(Tensor(v[None, ...])).data.reshape(-1)[0]) for v in (x.data, base.data))
    gap = abs(attributions.sum() - (f_x - f_base))
    label = "zeros" if baseline is None else f"tensor{base.shape}"
    return SaliencyMap(attributions, label, int(steps), gap, f_x, f_base)


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
                          expert_index: int | None = None,
                          class_index: int | None = None) -> Callable[[Tensor], Tensor]:
    """Scalar model over a raw (B,C,T) record batch for IG attribution.

    Attributes the combined logit by default, or a single expert's logit
    when ``expert_index``, an integer in 0..N-1, is given. Regression
    outputs stay in the standardized training scale; attribution shape
    follows the raw record. The model is the raw-record forward of
    ``forward_enecg``: ``_block_features``, ``_standardized``, ``_forward_grouped``.
    """
    gate = _gated(model)
    if expert_index is not None and (
            isinstance(expert_index, bool) or not isinstance(expert_index, (int, np.integer))
            or not 0 <= expert_index < len(experts)):
        raise UsageError(f"expert_index must be an integer in 0..{len(experts) - 1}, "
                         f"got {expert_index!r}")

    def scalar(block: Tensor) -> Tensor:
        _check_experts(model, experts)
        features, gate_in = _block_features(experts, block, gate.lead_indices, gate.pooled_len)
        stacked, _, combined = _forward_grouped(model, *_standardized(model, features, gate_in))
        if expert_index is None:
            return scalar_target(task, combined, class_index)
        one = ad.take_rows(stacked, [expert_index], axis=1)
        single = ad.reshape(one, (stacked.shape[0], task.output_dim))
        return scalar_target(task, single, class_index)

    return scalar


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
        "completeness_limit": smap.completeness_limit,
        "completeness_ok": bool(smap.completeness_gap <= smap.completeness_limit),
        "shape": list(att.shape),
    }
    path = json_path if json_path is not None else str(csv_path) + ".json"
    with open(path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_saliency_csv(csv_path) -> np.ndarray:
    """The (C,T) attributions of an ``export_saliency`` CSV. Every
    (lead, sample_index) cell of the grid its largest indices span must
    appear exactly once: a repeated or missing row is a ParseError."""
    lines = read_lines(csv_path)
    if not lines or lines[0] != "lead,sample_index,attribution":
        raise ParseError(f"{csv_path}:1: not a saliency CSV")
    cells: dict[tuple[int, int], float] = {}
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{csv_path}:{i}: expected 3 fields")
        try:
            lead, idx, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ParseError(f"{csv_path}:{i}: {e}") from e
        if lead < 0 or idx < 0:
            raise ParseError(f"{csv_path}:{i}: negative lead or sample index")
        if not np.isfinite(val):
            raise ParseError(f"{csv_path}:{i}: attribution {parts[2]!r} is not finite")
        if (lead, idx) in cells:
            raise ParseError(f"{csv_path}:{i}: repeated row for lead {lead}, sample_index {idx}")
        cells[lead, idx] = val
    if not cells:
        raise ParseError(f"{csv_path}: no attribution rows after the header")
    n_leads, n_samples = (max(axis) + 1 for axis in zip(*cells))
    if len(cells) != n_leads * n_samples:
        raise ParseError(f"{csv_path}: {n_leads} leads x {n_samples} samples need "
                         f"{n_leads * n_samples} rows, found {len(cells)}")
    out = np.zeros((n_leads, n_samples))
    out[tuple(zip(*cells))] = list(cells.values())
    return out

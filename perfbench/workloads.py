"""The three benchmark workloads: fit, infer and saliency.

Each workload is a closed loop with one caller: the next unit starts when
the previous one has finished. ``setup(seed, workdir)`` makes every input
from the workload seed; ``unit(i, timed)`` runs unit ``i`` and checks its
outputs. The unit wraps each call into enecg that a user waits for in
``with timed(phase):``; the runner times those blocks (and, in the traced
pass, records spans inside them), so checks are never timed or traced.
``timed`` yields the span recorder in the traced pass and None otherwise.

One unit is one timing sample of ``op_s``:

* fit: one ``enecg train`` run, phases prepare, train and save (five
  checkpoints). Five operations, one per task fitted.
* infer: one 32-record batch scored through ``forward_enecg`` for all five
  tasks, phase score. Five operations, one per (batch, task).
* saliency: one m=256 integrated-gradients map, phase ig. One operation.

``RECORDS_PHASE`` names the phase that pushes raw records through the
expert stack, ``ROWS_PHASE`` the one that runs the heads and gate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from enecg import pipeline as pl
from enecg import saliency as sal
from enecg import signal
from enecg import tasks as tk

TASKS = pl.DEFAULT_TASKS

# fit: the default config with fewer records and epochs, sized so that
# preparation and training each take roughly half of one fit
FIT_RECORDS = 200
FIT_EPOCHS = 15

# infer and saliency score checkpoints of a small fit at a fixed seed; the
# workload seed only picks the records they score
CKPT_SEED = 20251129
CKPT_RECORDS = 128
CKPT_EPOCHS = 2

INFER_BATCH = 32
INFER_BATCHES = 4          # 128 records (61 MB) cycled by the loop

IG_STEPS = 256
# Completeness check: |sum(IG) - (F(x) - F(b))| within 5% (the IG paper's
# criterion for enough steps, arXiv 1703.01365 sec. 3) of the output scale
# max(|F(x) - F(b)|, |F(x)|, |F(b)|). Dividing by |F(x) - F(b)| alone is
# ill-conditioned when the two endpoints are close: over 90 maps (seeds
# 1-30) that ratio reached 5.5e-2 while the gap itself stayed under 7e-3.
IG_GAP_TOLERANCE = 0.05
REGRESSION_RTOL = 1e-9


@dataclass
class UnitResult:
    records: int                    # raw records through the expert stack
    task_rows: int                  # (record, task) rows through heads and gate
    attempted: int                  # operations
    failed: int
    notes: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def _fail(notes: list[str], message: str) -> int:
    notes.append(message)
    return 1


def _small_fit_checkpoints(workdir: str):
    """Train the fixed-seed model, write its checkpoints, read them back."""
    cfg = pl.ExperimentConfig(seed=CKPT_SEED, n_records=CKPT_RECORDS, epochs=CKPT_EPOCHS)
    experts = pl.build_experts(cfg)
    trained = pl.train(cfg, seed=cfg.seed, experts=experts)
    models = {}
    for name, model in trained.tasks.items():
        path = os.path.join(workdir, f"{name}.ckpt")
        pl.save_task_model(model, path)
        models[name] = pl.load_task_model(path)
    return cfg, pl.TrainedModel(cfg=cfg, experts=experts, tasks=models)


class Fit:
    name = "fit"
    RECORDS_PHASE = "prepare"
    ROWS_PHASE = "train"

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cfg = pl.ExperimentConfig(seed=seed, n_records=FIT_RECORDS, epochs=FIT_EPOCHS)
        self.experts = pl.build_experts(self.cfg)
        n_train = int(FIT_RECORDS * self.cfg.split[0])
        self.train_rows = n_train * FIT_EPOCHS * len(self.cfg.tasks)
        # one tiny fit fills the one-off caches (DFT tables, allocator pools)
        # so the first timed fit is not a cold outlier
        warm = replace(self.cfg, n_records=32, epochs=1)
        pl.train(warm, seed=seed, experts=self.experts)

    def unit(self, i: int, timed) -> UnitResult:
        cfg, experts = self.cfg, self.experts
        notes: list[str] = []
        paths = {name: os.path.join(self.workdir, f"fit_{name}.ckpt") for name in cfg.tasks}
        n_tasks = len(cfg.tasks)
        try:
            with timed("prepare"):
                prepared = pl.prepare_dataset(cfg, experts, seed=self.seed)
            with timed("train"):
                trained = pl.train(cfg, seed=self.seed, prepared=prepared, experts=experts)
            with timed("save"):
                for name, model in trained.tasks.items():
                    pl.save_task_model(model, paths[name])
            _, _, test_idx = pl.split_indices(prepared.n, cfg.split, self.seed)
            in_memory = pl.evaluate(trained, prepared, test_idx)
        except Exception as e:  # a failed fit fails every task
            return UnitResult(0, 0, n_tasks, n_tasks, [f"fit raised {type(e).__name__}: {e}"])
        failed = 0
        quality = {}
        for name in cfg.tasks:
            try:
                final = trained.train_loss[name][-1]
                quality[f"final_loss.{name}"] = final
                if not math.isfinite(final):
                    failed += _fail(notes, f"{name}: final loss {final} is not finite")
                    continue
                loaded = pl.TrainedModel(cfg=cfg, experts=experts,
                                         tasks={name: pl.load_task_model(paths[name])})
                again = pl.evaluate(loaded, prepared, test_idx, (name,))[name]
                if again != in_memory[name]:
                    failed += _fail(notes, f"{name}: evaluate gives {in_memory[name]!r} in memory "
                                           f"but {again!r} after save and load")
            except Exception as e:
                failed += _fail(notes, f"{name}: check raised {type(e).__name__}: {e}")
        return UnitResult(prepared.n, self.train_rows, n_tasks, failed, notes, quality)


class Infer:
    name = "infer"
    RECORDS_PHASE = ROWS_PHASE = "score"

    def setup(self, seed: int, workdir: str) -> None:
        n = INFER_BATCH * INFER_BATCHES
        self.cfg, self.trained = _small_fit_checkpoints(workdir)
        gen = replace(self.cfg.data, seed=seed, n_records=n)
        pairs = signal.generate(gen)
        self.records = [r for r, _ in pairs]
        self.labels = {name: tk.label_vector(tk.task_by_name(name), [l for _, l in pairs])
                       for name in TASKS}
        # reference: evaluate() on features that prepare_dataset computes
        # from the same seed and records
        prepared = pl.prepare_dataset(replace(self.cfg, n_records=n), self.trained.experts, seed=seed)
        self.reference = []
        for b in range(INFER_BATCHES):
            idx = np.arange(b * INFER_BATCH, (b + 1) * INFER_BATCH)
            self.reference.append(pl.evaluate(self.trained, prepared, idx))

    def unit(self, i: int, timed) -> UnitResult:
        b = i % INFER_BATCHES
        lo = b * INFER_BATCH
        batch = self.records[lo:lo + INFER_BATCH]
        experts = self.trained.experts
        outputs = {}
        notes: list[str] = []
        failed = 0
        with timed("score"):
            for name in TASKS:
                try:
                    outputs[name] = pl.forward_enecg(batch, experts, self.trained.tasks[name])
                except Exception as e:
                    failed += _fail(notes, f"batch {b} {name}: forward_enecg raised "
                                           f"{type(e).__name__}: {e}")
        for name, outs in outputs.items():
            try:
                failed += self._check(b, name, outs, notes)
            except Exception as e:
                failed += _fail(notes, f"batch {b} {name}: check raised {type(e).__name__}: {e}")
        return UnitResult(len(batch), len(batch) * len(TASKS), len(TASKS), failed, notes)

    def _check(self, b: int, name: str, outs, notes: list[str]) -> int:
        model = self.trained.tasks[name]
        task = model.task
        weights = np.stack([o.weights for o in outs])
        if weights.min() < 0 or np.max(np.abs(weights.sum(axis=1) - 1.0)) > 1e-12:
            return _fail(notes, f"batch {b} {name}: gate weights are not a distribution over experts")
        logits = np.stack([o.combined for o in outs])
        pred = tk.predictions(task, logits)
        if task.kind == "regression":
            pred = model.denormalize(pred)
        lo = b * INFER_BATCH
        metric = tk.task_metric(task, pred, self.labels[name][lo:lo + INFER_BATCH])
        want = self.reference[b][name]
        if task.kind == "regression":
            ok = abs(metric - want) <= REGRESSION_RTOL * max(abs(want), 1e-300)
        else:
            ok = metric == want
        if not ok:
            return _fail(notes, f"batch {b} {name}: forward_enecg metric {metric!r} "
                                f"!= evaluate {want!r}")
        return 0


class Saliency:
    name = "saliency"
    RECORDS_PHASE = ROWS_PHASE = "ig"

    def setup(self, seed: int, workdir: str) -> None:
        self.cfg, self.trained = _small_fit_checkpoints(workdir)
        gen = replace(self.cfg.data, seed=seed, n_records=3)
        pairs = signal.generate(gen)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x16)))
        arrhythmia_class = pairs[1][1].arrhythmia_class
        expert_index = int(rng.integers(len(self.trained.experts)))
        # (label, record, task, expert_index, class_index)
        self.targets = [
            ("ensemble rr", pairs[0][0], "rr", None, None),
            (f"ensemble arrhythmia class {arrhythmia_class}", pairs[1][0], "arrhythmia",
             None, arrhythmia_class),
            (f"expert {expert_index} sex", pairs[2][0], "sex", expert_index, None),
        ]

    def unit(self, i: int, timed) -> UnitResult:
        label, record, task_name, expert_index, class_index = self.targets[i % len(self.targets)]
        task = tk.task_by_name(task_name)
        model = sal.ensemble_scalar_model(self.trained.experts, self.trained.tasks[task_name],
                                          task, expert_index=expert_index, class_index=class_index)
        notes: list[str] = []
        try:
            with timed("ig") as tracer:
                if tracer is not None:
                    model = tracer.wrap_ig_model(model, IG_STEPS)
                smap = sal.integrated_gradients(model, record.leads, steps=IG_STEPS)
        except Exception as e:
            return UnitResult(0, 0, 1, 1, [f"{label}: integrated_gradients raised "
                                           f"{type(e).__name__}: {e}"])
        rows = IG_STEPS + 2        # interpolation points plus F(x) and F(b)
        att = smap.attributions
        gap = smap.completeness_gap
        delta = smap.target_value - smap.baseline_value
        scale = max(abs(delta), abs(smap.target_value), abs(smap.baseline_value))
        failed = 0
        if att.shape != record.leads.shape or not np.all(np.isfinite(att)):
            failed = _fail(notes, f"{label}: attributions have shape {att.shape} "
                                  f"or non-finite values")
        elif not gap <= IG_GAP_TOLERANCE * scale:
            failed = _fail(notes, f"{label}: completeness gap {gap:.3e} exceeds "
                                  f"{IG_GAP_TOLERANCE:g} x output scale {scale:.3e}")
        rel_gap = gap / abs(delta) if delta != 0 else math.inf
        return UnitResult(rows, rows, 1, failed, notes, {"ig_completeness_gap": rel_gap})


WORKLOADS = {w.name: w for w in (Fit, Infer, Saliency)}

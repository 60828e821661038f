"""Outside-in tracing of the enecg layers for the traced benchmark run.

Spans are recorded by replacing public functions and methods of the enecg
modules with timing wrappers. A function that another module imported by
name (``signal`` binds ``mean_pool``, ``pipeline`` binds ``head_forward``)
is replaced at every module attribute that holds it, so calls through
either name are seen. Nothing inside ``src/`` changes.

Each span stores (name, start, end, parent, operation id, phase) in flat
arrays kept in memory; ``write`` saves them once, when the run ends. Self
time is a span's duration minus the durations of its direct children.
Counters that are not spans (bytes scanned by ``Tensor()``, tape sizes,
expert rows) are accumulated at the same boundaries.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

AUTODIFF_OPS = {
    # function name -> op tag carried by the tape node
    "add": "add", "sub": "sub", "mul": "mul", "neg": "neg",
    "matmul": "matmul", "transpose": "transpose", "reshape": "reshape",
    "concat": "concat", "take_rows": "take_rows", "relu": "relu",
    "softplus": "softplus", "sqrt": "sqrt", "softmax": "softmax",
    "log_softmax": "log_softmax", "conv1d": "conv1d", "mean_pool": "mean_pool",
    "max_pool": "max_pool", "dft_magnitude": "dft_magnitude",
    "reduce_sum": "sum", "reduce_mean": "mean",
}

ARCHS = ("spectral", "convolutional", "statistical")

SETUP, MEASURE = 0, 1


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase_of = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.phase = SETUP
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.step_ms: list[float] = []
        self.tape_nodes: list[int] = []
        self.tape_bytes: list[int] = []
        self._step_start: float | None = None
        self._seen_rows: set = set()
        self.distinct_rows = 0
        self._plan = None

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.phase, key)] += value

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            i = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int) -> None:
        """Tag later spans with ``op_id``; expert-row reuse is judged within
        one operation (one unit: the inputs its calls share)."""
        self.op_id = op_id
        self.distinct_rows += len(self._seen_rows)
        self._seen_rows = set()

    def wrap_ig_model(self, model, steps: int):
        """An IG scalar model whose batched call (``steps`` rows) and endpoint
        calls (one row each) record separate spans."""
        forward = self.wrap("saliency.forward", model)
        endpoint = self.wrap("saliency.endpoint", model)

        def run(block):
            return (forward if block.shape[0] == steps else endpoint)(block)

        return run

    def distinct_expert_rows(self) -> int:
        """Distinct (expert, input row) pairs seen, summed over reuse groups."""
        return self.distinct_rows + len(self._seen_rows)

    # -- patching ------------------------------------------------------------

    def _build_plan(self, enecg) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every wrapped entry
        point of every enecg layer."""
        ad, optim, signal = enecg.autodiff, enecg.optim, enecg.signal
        experts, adapters, gating = enecg.experts, enecg.adapters, enecg.gating
        tasks, pipeline, saliency = enecg.tasks, enecg.pipeline, enecg.saliency
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "enecg" or name.startswith("enecg."))]
        plan = []

        def everywhere(owner, attr, replacement, skip=()):
            # also every module that bound the same object with `from .x import y`
            original = getattr(owner, attr)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original and (mod, key) not in skip:
                        plan.append((mod, key, original, replacement))

        def method(cls, attr, replacement):
            plan.append((cls, attr, cls.__dict__[attr], replacement))

        for fname, tag in AUTODIFF_OPS.items():
            everywhere(ad, fname, self.wrap(f"autodiff.op.{tag}", getattr(ad, fname)))
        backward = self._traced_backward(ad.backward)
        everywhere(ad, "backward", backward, skip={(saliency, "backward")})
        plan.append((saliency, "backward", ad.backward, self.wrap("saliency.backward", backward)))
        method(ad.Tensor, "__init__", self._traced_tensor_init(ad.Tensor.__init__))

        method(optim.Adam, "zero_grad", self._traced_zero_grad(optim.Adam.zero_grad))
        method(optim.Adam, "step", self._traced_adam_step(optim.Adam.step))

        everywhere(signal, "iter_records", self._traced_iter_records(signal.iter_records))
        everywhere(signal, "downsample", self.wrap("signal.downsample", signal.downsample))

        everywhere(experts, "expert_forward", self._traced_expert_forward(experts.expert_forward))

        everywhere(adapters, "head_forward", self.wrap("adapters.head_forward", adapters.head_forward))
        method(adapters.LoraLinear, "forward",
               self.wrap("adapters.lora_forward", adapters.LoraLinear.forward))
        everywhere(adapters, "write_tensors", self._traced_write(adapters.write_tensors))
        everywhere(adapters, "read_tensors", self.wrap("adapters.ckpt_read", adapters.read_tensors))

        everywhere(gating, "gate_input", self.wrap("gating.gate_input", gating.gate_input))
        everywhere(gating, "gate_forward", self.wrap("gating.gate_forward", gating.gate_forward))
        everywhere(gating, "ensemble_combine", self.wrap("gating.combine", gating.ensemble_combine))

        everywhere(tasks, "task_loss", self.wrap("tasks.loss", tasks.task_loss))

        for fname in ("prepare_dataset", "train", "forward_enecg", "evaluate",
                      "save_task_model", "load_task_model"):
            everywhere(pipeline, fname, self.wrap(f"pipeline.{fname}", getattr(pipeline, fname)))

        everywhere(saliency, "integrated_gradients",
                   self.wrap("saliency.integrated_gradients", saliency.integrated_gradients))
        return plan

    @contextlib.contextmanager
    def installed(self, enecg, phase: int):
        """Record spans of ``phase`` while the block runs; the enecg
        modules are restored on exit."""
        if self._plan is None:
            self._plan = self._build_plan(enecg)
        self.phase = phase
        for obj, key, _, replacement in self._plan:
            setattr(obj, key, replacement)
        try:
            yield self
        finally:
            for obj, key, original, _ in reversed(self._plan):
                setattr(obj, key, original)

    # -- wrappers that also count ----------------------------------------------

    def _traced_backward(self, fn):
        timed = self.wrap("autodiff.backward", fn)

        def backward(scalar, tape):
            if self.phase == MEASURE:
                self.tape_nodes.append(len(tape.nodes))
                self.tape_bytes.append(_tape_bytes(tape))
            return timed(scalar, tape)

        backward.__wrapped__ = fn
        return backward

    def _traced_tensor_init(self, fn):
        counters = self.counters

        def __init__(tensor, data, requires_grad=False):
            fn(tensor, data, requires_grad)
            counters[(self.phase, "autodiff.tensor_check_bytes")] += tensor.data.nbytes

        return __init__

    def _traced_zero_grad(self, fn):
        def zero_grad(opt):
            self._step_start = time.perf_counter()
            return fn(opt)

        return zero_grad

    def _traced_adam_step(self, fn):
        timed = self.wrap("optim.step", fn)

        def step(opt):
            try:
                return timed(opt)
            finally:
                if self._step_start is not None and self.phase == MEASURE:
                    self.step_ms.append((time.perf_counter() - self._step_start) * 1e3)
                self._step_start = None

        return step

    def _traced_iter_records(self, fn):
        nid = self._nid("signal.synth")

        def iter_records(cfg):
            it = fn(cfg)
            while True:
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.count("signal.records")
                yield item

        return iter_records

    def _traced_expert_forward(self, fn):
        wrapped = {arch: self.wrap(f"experts.{arch}.forward", fn) for arch in ARCHS}

        def expert_forward(model, x):
            rows = x.data.reshape(-1, *x.data.shape[-2:])
            self.count(f"experts.{model.arch}.rows", rows.shape[0])
            if self.phase == MEASURE:
                for row in rows:
                    self._seen_rows.add((model.name, hash(row.tobytes())))
            return wrapped[model.arch](model, x)

        return expert_forward

    def _traced_write(self, fn):
        timed = self.wrap("adapters.ckpt_write", fn)

        def write_tensors(path, tensors, scalars):
            timed(path, tensors, scalars)
            self.count("adapters.ckpt_bytes", os.path.getsize(path))

        return write_tensors

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8),
            "dur": dur, "self": dur - child,
        }

    def write(self, path) -> None:
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **s)


def _tape_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape holds: node outputs and inputs."""
    seen: dict[int, int] = {}
    for node in tape.nodes:
        seen[id(node.output.data)] = node.output.data.nbytes
        for t in node.inputs:
            seen[id(t.data)] = t.data.nbytes
    return sum(seen.values())


# name, unit, better. Totals are per unit of work (one fit, one 32-record
# batch or one IG map) so that a faster commit, which runs more units in
# the same seconds, reports comparable values; checkpoint I/O is per file.
PER_LAYER = (
    [(f"autodiff.op.{tag}.{kind}", unit, "lower")
     for tag in AUTODIFF_OPS.values() for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("autodiff.nodes_per_step", "count", "lower"),
        ("autodiff.activation_bytes_per_step", "B", "lower"),
        ("autodiff.backward_s", "s", "lower"),
        ("autodiff.backward_calls", "count", "lower"),
        ("autodiff.tensor_check_bytes", "B", "lower"),
        ("optim.step_s", "s", "lower"),
        ("optim.steps", "count", "lower"),
        ("signal.synth_s", "s", "lower"),
        ("signal.records", "count", "lower"),
        ("signal.downsample_s", "s", "lower"),
        ("signal.downsample_calls", "count", "lower"),
    ]
    + [(f"experts.{arch}.{kind}", unit, "lower")
       for arch in ARCHS for kind, unit in (("forward_s", "s"), ("rows", "count"))]
    + [
        ("experts.feature_reuse", "ratio", "higher"),
        ("adapters.head_forward_s", "s", "lower"),
        ("adapters.head_forward_calls", "count", "lower"),
        ("adapters.lora_forward_s", "s", "lower"),
        ("adapters.lora_forward_calls", "count", "lower"),
        ("adapters.ckpt_write_s", "s", "lower"),
        ("adapters.ckpt_read_s", "s", "lower"),
        ("adapters.ckpt_bytes", "B", "lower"),
        ("gating.gate_input_s", "s", "lower"),
        ("gating.gate_forward_s", "s", "lower"),
        ("gating.combine_s", "s", "lower"),
        ("tasks.loss_s", "s", "lower"),
        ("tasks.loss_calls", "count", "lower"),
        ("pipeline.prepare_s", "s", "lower"),
        ("pipeline.train_s", "s", "lower"),
        ("pipeline.forward_enecg_s", "s", "lower"),
        ("pipeline.self_s", "s", "lower"),
        ("pipeline.step_ms.p50", "ms", "lower"),
        ("pipeline.step_ms.tail", "ms", "lower"),
        ("pipeline.step_ms.tail_pct", "%", "higher"),
        ("pipeline.step_ms.samples", "count", "higher"),
        ("saliency.forward_s", "s", "lower"),
        ("saliency.backward_s", "s", "lower"),
        ("saliency.endpoint_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    + [(f"quality.final_loss.{task}", "loss", "lower")
       for task in ("rr", "age", "sex", "potassium", "arrhythmia")]
    + [
        ("quality.ig_completeness_gap", "ratio", "lower"),
        ("quality.error_share", "ratio", "lower"),
    ]
)

# (metric, span) pairs whose value is the total span time per unit
_SPAN_SECONDS = {
    "autodiff.backward_s": "autodiff.backward",
    "optim.step_s": "optim.step",
    "signal.synth_s": "signal.synth",
    "signal.downsample_s": "signal.downsample",
    "adapters.head_forward_s": "adapters.head_forward",
    "adapters.lora_forward_s": "adapters.lora_forward",
    "gating.gate_input_s": "gating.gate_input",
    "gating.gate_forward_s": "gating.gate_forward",
    "gating.combine_s": "gating.combine",
    "tasks.loss_s": "tasks.loss",
    "pipeline.prepare_s": "pipeline.prepare_dataset",
    "pipeline.train_s": "pipeline.train",
    "pipeline.forward_enecg_s": "pipeline.forward_enecg",
    "saliency.forward_s": "saliency.forward",
    "saliency.backward_s": "saliency.backward",
    "saliency.endpoint_s": "saliency.endpoint",
}
_SPAN_CALLS = {
    "autodiff.backward_calls": "autodiff.backward",
    "optim.steps": "optim.step",
    "signal.downsample_calls": "signal.downsample",
    "adapters.head_forward_calls": "adapters.head_forward",
    "adapters.lora_forward_calls": "adapters.lora_forward",
    "tasks.loss_calls": "tasks.loss",
}


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return None


def layer_metrics(tracer: Tracer, units: int, traced_s: float) -> dict[str, float]:
    """Per-layer values of the measured phase, per unit of work.

    Checkpoint I/O (``adapters.ckpt_*``) is per checkpoint file and also
    counts set-up, because on infer and saliency it happens only there."""
    s = tracer.spans()
    by_name = {n: i for i, n in enumerate(tracer.names)}
    k = len(tracer.names)

    def totals(mask):
        ids = s["name_id"][mask]
        return (np.bincount(ids, minlength=k), np.bincount(ids, weights=s["dur"][mask], minlength=k),
                np.bincount(ids, weights=s["self"][mask], minlength=k))

    calls, dur, self_s = totals(s["phase"] == MEASURE)
    all_calls, all_dur, _ = totals(np.ones_like(s["phase"], dtype=bool))
    per = 1.0 / max(units, 1)

    def get(arr, span):
        return float(arr[by_name[span]]) if span in by_name else 0.0

    out: dict[str, float] = {}
    for tag in AUTODIFF_OPS.values():
        out[f"autodiff.op.{tag}.calls"] = get(calls, f"autodiff.op.{tag}") * per
        out[f"autodiff.op.{tag}.self_s"] = get(self_s, f"autodiff.op.{tag}") * per
    out["autodiff.nodes_per_step"] = float(np.mean(tracer.tape_nodes)) if tracer.tape_nodes else 0.0
    out["autodiff.activation_bytes_per_step"] = float(np.mean(tracer.tape_bytes)) if tracer.tape_bytes else 0.0
    out["autodiff.tensor_check_bytes"] = tracer.counters[(MEASURE, "autodiff.tensor_check_bytes")] * per
    for metric, span in _SPAN_SECONDS.items():
        out[metric] = get(dur, span) * per
    for metric, span in _SPAN_CALLS.items():
        out[metric] = get(calls, span) * per
    out["signal.records"] = tracer.counters[(MEASURE, "signal.records")] * per
    rows = 0.0
    for arch in ARCHS:
        out[f"experts.{arch}.forward_s"] = get(dur, f"experts.{arch}.forward") * per
        arch_rows = tracer.counters[(MEASURE, f"experts.{arch}.rows")]
        out[f"experts.{arch}.rows"] = arch_rows * per
        rows += arch_rows
    out["experts.feature_reuse"] = tracer.distinct_expert_rows() / rows if rows else 0.0
    files_written = get(all_calls, "adapters.ckpt_write")
    files_read = get(all_calls, "adapters.ckpt_read")
    out["adapters.ckpt_write_s"] = get(all_dur, "adapters.ckpt_write") / max(files_written, 1)
    out["adapters.ckpt_read_s"] = get(all_dur, "adapters.ckpt_read") / max(files_read, 1)
    out["adapters.ckpt_bytes"] = (tracer.counters[(SETUP, "adapters.ckpt_bytes")]
                                  + tracer.counters[(MEASURE, "adapters.ckpt_bytes")]) / max(files_written, 1)
    out["pipeline.self_s"] = get(self_s, "pipeline.train") * per
    steps = np.asarray(tracer.step_ms)
    out["pipeline.step_ms.samples"] = float(steps.size)
    out["pipeline.step_ms.p50"] = float(np.median(steps)) if steps.size else 0.0
    pct = tail_percentile(steps.size)
    out["pipeline.step_ms.tail_pct"] = pct or 0.0
    out["pipeline.step_ms.tail"] = float(np.percentile(steps, pct)) if pct else 0.0
    root = (s["phase"] == MEASURE) & (s["parent"] < 0)
    out["trace.unattributed_s"] = (traced_s - float(s["dur"][root].sum())) * per
    return out

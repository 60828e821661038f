"""Command-line entry point: gen | train | eval | bench | compare-ensembles
| saliency, driven by one config file.

Every run writes an effective-config echo and a manifest of produced files
under the output directory. Failures exit with a stable per-error-class
code and a one-line machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import tasks as tk
from .config import echo_config, load_config
from .errors import (
    ConfigError, DimensionError, InvariantError, NonFiniteLossError,
    NotApplicableError, ParseError, UsageError,
)
from .pipeline import (
    TaskResult, TrainedModel, bench, build_experts, compare_strategies, evaluate,
    load_task_model, prepare_dataset, run_experiment, save_task_model, split_indices, train,
)
from .saliency import ensemble_scalar_model, export_saliency, integrated_gradients
from .signal import generate, iter_records, save_manifest, save_records

EXIT_CODES = {
    "ok": 0,
    "internal": 1,
    "usage": 2,
    "config": 3,
    "parse": 4,
    "dimension": 5,
    "not_applicable": 6,
    "nonfinite": 7,
    "invariant": 8,
}

_ERROR_CLASSES = [
    (ConfigError, "config"),
    (ParseError, "parse"),
    (DimensionError, "dimension"),
    (NotApplicableError, "not_applicable"),
    (NonFiniteLossError, "nonfinite"),
    (InvariantError, "invariant"),
    (UsageError, "usage"),
]

RECORDS_PER_FILE = 1000


class _Out:
    """Output directory with a manifest of every file written."""

    def __init__(self, root: str):
        self.root = root
        self.files: list[str] = []
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.root, name)
        self.files.append(name)
        return p

    def write_text(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def finish(self) -> None:
        with open(os.path.join(self.root, "manifest.txt"), "w") as fh:
            for name in self.files:
                fh.write(name + "\n")


def _progress(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr, flush=True)


def cmd_gen(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    gen_cfg = replace(cfg.data, seed=cfg.seed, n_records=cfg.n_records)
    chunk: list = []
    paths: list[str] = []
    index = 0

    def flush():
        nonlocal index
        if not chunk:
            return
        name = f"records_{index:04d}.txt"
        save_records(chunk, out.path(name))
        paths.append(name)
        chunk.clear()
        index += 1

    for pair in iter_records(gen_cfg):
        chunk.append(pair)
        if len(chunk) >= RECORDS_PER_FILE:
            flush()
            _progress(verbose, f"wrote {index * RECORDS_PER_FILE} records")
    flush()
    save_manifest(paths, out.path("dataset.manifest"))
    return 0


def _checkpoint_name(task_name: str) -> str:
    return f"checkpoints/{task_name}.ckpt"


def cmd_train(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    t0 = time.perf_counter()
    experts = build_experts(cfg)
    prepared = prepare_dataset(cfg, experts, seed=cfg.seed)
    _progress(verbose, f"prepared {prepared.n} records")
    trained = train(cfg, seed=cfg.seed, prepared=prepared, experts=experts)
    os.makedirs(os.path.join(out.root, "checkpoints"), exist_ok=True)
    for name, model in trained.tasks.items():
        save_task_model(model, out.path(_checkpoint_name(name)))
    out.write_text("train_history.json", json.dumps(trained.history, indent=2))
    _progress(verbose, f"trained {len(trained.tasks)} tasks in {time.perf_counter() - t0:.1f}s")
    return 0


def _load_trained(cfg, out: _Out):
    experts = build_experts(cfg)
    models = {}
    for name in cfg.tasks:
        path = os.path.join(out.root, _checkpoint_name(name))
        if not os.path.exists(path):
            raise UsageError(f"no checkpoint for task {name!r} under {out.root}; run train first")
        models[name] = load_task_model(path)
    return TrainedModel(cfg=cfg, experts=experts, tasks=models)


def cmd_eval(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    t0 = time.perf_counter()
    if cfg.ensemble != "moe":
        # static/tuned strategies have no checkpointable artifact: fine-tune
        # each expert alone, weight on the validation split, score on test
        report, _ = run_experiment(replace(cfg, repeats=1))
    else:
        trained = _load_trained(cfg, out)
        prepared = prepare_dataset(cfg, trained.experts, seed=cfg.seed)
        _, _, test_idx = split_indices(prepared.n, cfg.split, cfg.seed)
        scores = evaluate(trained, prepared, test_idx)
        report = bench(trained, prepared, test_idx)
        report.tasks = [TaskResult(task=name, metric=tk.task_by_name(name).metric,
                                   mean=value, std=0.0, values=[value])
                        for name, value in scores.items()]
    report.wallclock_s = time.perf_counter() - t0
    out.write_text("metrics.json", report.to_json())
    out.write_text("metrics.csv", report.to_csv())
    _progress(verbose, f"eval done in {report.wallclock_s:.1f}s")
    return 0


def cmd_bench(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    t0 = time.perf_counter()
    trained = _load_trained(cfg, out)
    prepared = prepare_dataset(cfg, trained.experts, seed=cfg.seed)
    _, _, test_idx = split_indices(prepared.n, cfg.split, cfg.seed)
    report = bench(trained, prepared, test_idx, wallclock_s=time.perf_counter() - t0)
    report.wallclock_s = time.perf_counter() - t0
    out.write_text("bench.json", report.to_json())
    return 0


def cmd_compare(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    comparison = compare_strategies(cfg)
    out.write_text("ensemble_comparison.json", comparison.to_json())
    out.write_text("ensemble_comparison.csv", comparison.to_csv())
    return 0


def cmd_saliency(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    task_name = saliency_opts.get("task", "rr")
    steps = saliency_opts.get("steps", 256)
    record_index = saliency_opts.get("record_index", 0)
    expert_index = saliency_opts.get("expert_index")
    class_index = saliency_opts.get("class_index")
    task = tk.task_by_name(task_name)
    if task.kind == "multiclass" and class_index is None:
        class_index = 0
    trained = _load_trained(cfg, out)
    gen_cfg = replace(cfg.data, seed=cfg.seed, n_records=record_index + 1)
    record, _ = generate(gen_cfg)[record_index]
    model_fn = ensemble_scalar_model(trained.experts, trained.tasks[task_name], task,
                                     expert_index=expert_index, class_index=class_index)
    smap = integrated_gradients(model_fn, record.leads, steps=steps)
    tag = "ensemble" if expert_index is None else f"expert{expert_index}"
    csv_path = out.path(f"saliency_{task_name}_{tag}.csv")
    json_path = out.path(f"saliency_{task_name}_{tag}.json")
    export_saliency(smap, csv_path, json_path)
    _progress(verbose, f"completeness gap {smap.completeness_gap:.3e} "
                       f"over delta {smap.target_value - smap.baseline_value:.3e}")
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "compare-ensembles": cmd_compare,
    "saliency": cmd_saliency,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enecg",
        description="Frozen-expert ensemble with LoRA heads and MoE gating "
                    "for multi-task ECG-like signals.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg, saliency_opts = load_config(args.config, seed_override=args.seed)
        out = _Out(args.out)
        out.write_text("config.echo.txt", echo_config(cfg, saliency_opts))
        code = COMMANDS[args.command](cfg, saliency_opts, out, args.verbose)
        out.finish()
        return code
    except Exception as e:  # one JSON line; anything unclassified is internal
        label = next((label for klass, label in _ERROR_CLASSES if isinstance(e, klass)), "internal")
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return EXIT_CODES[label]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

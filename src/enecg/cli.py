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
from itertools import islice

import numpy as np

from . import tasks as tk
from .config import echo_config, load_config
from .errors import (
    ConfigError, DimensionError, InvariantError, NonFiniteLossError,
    NotApplicableError, ParseError, UsageError, read_lines,
)
from .pipeline import (
    TaskResult, TrainedModel, _prepare_records, bench, build_experts, compare_strategies,
    evaluate, load_task_model, run_suite, save_task_model, split_indices, train,
)
from .saliency import ensemble_scalar_model, export_saliency, integrated_gradients
from .signal import iter_records, save_records, synthesize

# (class, label, exit code), most specific first: a ConfigError is a UsageError,
# and anything unclassified is internal
_ERROR_CODES = [
    (ConfigError, "config", 3),
    (ParseError, "parse", 4),
    (DimensionError, "dimension", 5),
    (NotApplicableError, "not_applicable", 6),
    (NonFiniteLossError, "nonfinite", 7),
    (InvariantError, "invariant", 8),
    (UsageError, "usage", 2),
    (Exception, "internal", 1),
]

EXIT_CODES = {"ok": 0, **{label: code for _, label, code in _ERROR_CODES}}

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
        """Write manifest.txt: the files earlier commands listed there, then
        this command's, each once, so a directory that train, eval and
        saliency share lists all their outputs."""
        path = os.path.join(self.root, "manifest.txt")
        listed = read_lines(path) if os.path.exists(path) else []
        with open(path, "w") as fh:
            for name in dict.fromkeys(listed + self.files):
                fh.write(name + "\n")


def _progress(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr, flush=True)


def cmd_gen(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    records = iter_records(replace(cfg.data, seed=cfg.seed, n_records=cfg.n_records))
    written = 0
    while chunk := list(islice(records, RECORDS_PER_FILE)):
        save_records(chunk, out.path(f"records_{written // RECORDS_PER_FILE:04d}.txt"))
        written += len(chunk)
        _progress(verbose, f"wrote {written} records")
    return 0


def _checkpoint_name(task_name: str) -> str:
    return f"checkpoints/{task_name}.ckpt"


def cmd_train(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    t0 = time.perf_counter()
    trained = train(cfg, seed=cfg.seed)
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
        gate = models[name].gate
        # evaluate scores gate inputs built from the config, so both must agree
        if (tuple(gate.lead_indices), gate.pooled_len) != (cfg.gate_leads, cfg.gate_pooled_len):
            raise UsageError(f"{path}: gate reads leads {gate.lead_indices} pooled to "
                             f"{gate.pooled_len}; config has gating.leads {cfg.gate_leads}, "
                             f"gating.pooled_len {cfg.gate_pooled_len}")
    return TrainedModel(cfg=cfg, experts=experts, tasks=models)


def _load_with_test_split(cfg, out: _Out):
    """The trained checkpoints and the config's test rows, prepared alone:
    each record is a pure function of (seed, index), and the input
    statistics come from the checkpoints. Returns (trained, prepared, all
    row indices of prepared)."""
    test_idx = split_indices(cfg.n_records, cfg.split, cfg.seed)[2]
    trained = _load_trained(cfg, out)
    gen = replace(cfg.data, seed=cfg.seed)
    prepared = _prepare_records(cfg, trained.experts, (synthesize(gen, int(i)) for i in test_idx))
    return trained, prepared, np.arange(prepared.n)


def cmd_eval(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    t0 = time.perf_counter()
    if cfg.ensemble != "moe":
        # static/tuned strategies have no checkpointable artifact: per seed,
        # fine-tune each expert alone, weight on validation, score on test
        runs = run_suite(cfg, (cfg.ensemble,))
        table = compare_strategies(cfg, runs, (cfg.ensemble,))
        report = bench(runs[-1].singles, runs[-1].prepared, runs[-1].test_idx)  # the last seed's
        report.tasks = [table.cells[name][cfg.ensemble] for name in cfg.tasks]
    else:
        trained, prepared, test_idx = _load_with_test_split(cfg, out)
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
    report = bench(*_load_with_test_split(cfg, out))
    report.wallclock_s = time.perf_counter() - t0
    out.write_text("bench.json", report.to_json())
    return 0


def cmd_compare(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    comparison = compare_strategies(cfg)
    out.write_text("ensemble_comparison.json", comparison.to_json())
    out.write_text("ensemble_comparison.csv", comparison.to_csv())
    return 0


def cmd_saliency(cfg, saliency_opts, out: _Out, verbose: bool) -> int:
    # every option is checked against the config before any checkpoint loads
    task_name = saliency_opts.get("task", "rr")
    if task_name not in cfg.tasks:
        raise ConfigError(f"saliency.task must be one of experiment.tasks "
                          f"{','.join(cfg.tasks)}, got {task_name!r}")
    task = tk.task_by_name(task_name)
    classes = task.output_dim if task.kind == "multiclass" else 0
    opts = {"steps": 256, "record_index": 0, "expert_index": None,
            "class_index": 0 if classes else None, **saliency_opts}
    # key -> (lowest value, one past the highest; None: no upper bound, 0: unset)
    bounds = {"steps": (1, None), "record_index": (0, None),
              "expert_index": (0, len(cfg.experts)), "class_index": (0, classes)}
    for key, (lo, hi) in bounds.items():
        value = opts[key]
        if value is not None and not (lo <= value and (hi is None or value < hi)):
            allowed = (f">= {lo}" if hi is None else f"in {lo}..{hi - 1}" if hi
                       else f"unset for the {task.kind} task {task_name}")
            raise ConfigError(f"saliency.{key} must be {allowed}, got {value}")
    expert_index = opts["expert_index"]
    trained = _load_trained(cfg, out)
    record, _ = synthesize(replace(cfg.data, seed=cfg.seed), opts["record_index"])
    model_fn = ensemble_scalar_model(trained.experts, trained.tasks[task_name], task,
                                     expert_index=expert_index, class_index=opts["class_index"])
    smap = integrated_gradients(model_fn, record.leads, steps=opts["steps"])
    tag = "ensemble" if expert_index is None else f"expert{expert_index}"
    csv_path = out.path(f"saliency_{task_name}_{tag}.csv")
    json_path = out.path(f"saliency_{task_name}_{tag}.json")
    export_saliency(smap, csv_path, json_path)
    verdict = "meets" if smap.completeness_gap <= smap.completeness_limit else "exceeds"
    _progress(verbose, f"completeness gap {smap.completeness_gap:.3e} {verdict} the limit "
                       f"{smap.completeness_limit:.3e} (delta {smap.target_value - smap.baseline_value:.3e})")
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
        # no numpy warning ahead of the JSON line; non-finite losses raise anyway
        with np.errstate(all="ignore"):
            code = COMMANDS[args.command](cfg, saliency_opts, out, args.verbose)
        out.finish()
        return code
    except Exception as e:  # one JSON line
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return next(code for klass, _, code in _ERROR_CODES if isinstance(e, klass))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""CLI runs end to end: gen determinism, train+eval report, compare table,
saliency export, exit codes and manifests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from enecg import tasks as tk
from enecg.cli import EXIT_CODES, run
from enecg.config import load_config
from enecg.pipeline import build_experts

SMALL_CFG = """
[experiment]
seed = 4
n_records = 160
epochs = 2
batch_size = 16
repeats = 1
[experts]
roster = spec:spectral:1:128:16; stat:statistical:2:128:16
[heads]
hidden_dim = 16
rank = 2
[gating]
pooled_len = 25
hidden_dim = 16
[data]
duration_s = 2.0
fs_hz = 100.0
[saliency]
task = rr
steps = 16
record_index = 0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_gen_writes_dataset_and_rerun_is_byte_identical(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["gen", "--config", cfg_path, "--out", out1]) == 0
    assert run(["gen", "--config", cfg_path, "--out", out2]) == 0
    for name in ("records_0000.txt", "config.echo.txt"):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name
    manifest = open(os.path.join(out1, "manifest.txt")).read().splitlines()
    assert manifest == ["config.echo.txt", "records_0000.txt"]
    assert not os.path.exists(os.path.join(out1, "dataset.manifest"))


def test_train_then_eval_emits_full_metrics_report(cfg_path, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "checkpoints", "rr.ckpt"))
    assert run(["eval", "--config", cfg_path, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "metrics.json")).read())
    tasks = {entry["task"] for entry in doc["tasks"]}
    assert tasks == {"rr", "age", "sex", "potassium", "arrhythmia"}
    for key in ("params_trainable", "params_total", "throughput_sps", "wallclock_s"):
        assert key in doc
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    manifest = open(os.path.join(out, "manifest.txt")).read().splitlines()
    assert {"checkpoints/rr.ckpt", "metrics.json", "metrics.csv"} <= set(manifest)
    assert len(manifest) == len(set(manifest))


def test_eval_synthesizes_only_the_test_rows(tmp_path, monkeypatch):
    import enecg.cli
    import enecg.signal
    from enecg import pipeline as pl
    from enecg import tasks as tk
    from enecg.config import load_config

    path = tmp_path / "eighty.cfg"
    path.write_text(SMALL_CFG.replace("n_records = 160", "n_records = 80"))
    out = str(tmp_path / "run")
    assert run(["train", "--config", str(path), "--out", out]) == 0
    cfg, _ = load_config(str(path))
    test_idx = pl.split_indices(cfg.n_records, cfg.split, cfg.seed)[2]
    experts = pl.build_experts(cfg)
    trained = pl.TrainedModel(cfg=cfg, experts=experts, tasks={
        name: pl.load_task_model(os.path.join(out, "checkpoints", f"{name}.ckpt")) for name in cfg.tasks})
    want = pl.evaluate(trained, pl.prepare_dataset(cfg, experts, seed=cfg.seed), test_idx)

    calls = []
    synthesize = enecg.signal.synthesize

    def counted(gen, index):
        calls.append(index)
        return synthesize(gen, index)

    monkeypatch.setattr(enecg.signal, "synthesize", counted)
    monkeypatch.setattr(enecg.cli, "synthesize", counted)
    assert run(["eval", "--config", str(path), "--out", out]) == 0
    assert sorted(calls) == sorted(test_idx.tolist())
    doc = json.loads(open(os.path.join(out, "metrics.json")).read())
    for entry in doc["tasks"]:
        name, got = entry["task"], entry["mean"]
        if tk.task_by_name(name).kind == "regression":
            assert abs(got - want[name]) <= 1e-12 * abs(want[name])
        else:
            assert got == want[name]


def test_eval_without_checkpoints_is_usage_error(cfg_path, tmp_path):
    out = str(tmp_path / "empty")
    assert run(["eval", "--config", cfg_path, "--out", out]) == EXIT_CODES["usage"]


def test_eval_is_deterministic(cfg_path, tmp_path):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    docs = []
    for _ in range(2):
        assert run(["eval", "--config", cfg_path, "--out", out]) == 0
        docs.append(json.loads(open(os.path.join(out, "metrics.json")).read()))
    values = [[(t["task"], t["mean"]) for t in d["tasks"]] for d in docs]
    assert values[0] == values[1]


def test_compare_ensembles_emits_table_with_na_markers(cfg_path, tmp_path):
    out = str(tmp_path / "cmp")
    assert run(["compare-ensembles", "--config", cfg_path, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "ensemble_comparison.json")).read())
    assert doc["strategies"] == ["zero_shot", "greedy", "sample_aware", "moe"]
    assert set(doc["tasks"]) == {"rr", "age", "sex", "potassium", "arrhythmia"}
    assert doc["results"]["rr"]["zero_shot"] == "n/a"
    assert doc["results"]["age"]["zero_shot"] == "n/a"
    assert doc["results"]["sex"]["zero_shot"] != "n/a"
    for strat in ("greedy", "sample_aware", "moe"):
        assert "mean" in doc["results"]["rr"][strat]
    csv = open(os.path.join(out, "ensemble_comparison.csv")).read()
    assert csv.splitlines()[0].startswith("task,metric,zero_shot_mean")


def test_saliency_exports_csv_and_sidecar(cfg_path, tmp_path):
    out = str(tmp_path / "sal")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    assert run(["saliency", "--config", cfg_path, "--out", out]) == 0
    csv_path = os.path.join(out, "saliency_rr_ensemble.csv")
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "lead,sample_index,attribution"
    assert len(lines) == 12 * 200 + 1  # C x T rows for the 2 s / 100 Hz config
    sidecar = json.loads(open(os.path.join(out, "saliency_rr_ensemble.json")).read())
    assert np.isfinite(sidecar["completeness_gap"])
    assert sidecar["steps"] == 16


def test_saliency_sidecar_states_whether_the_map_meets_the_completeness_limit(tmp_path, capsys):
    # the spectral expert's map at the config's 16 steps misses the IG
    # paper's 5% criterion; at 64 steps it meets it
    out = str(tmp_path / "run")
    verdicts = {}
    for steps in (16, 64):
        path = tmp_path / f"expert0_{steps}.cfg"
        path.write_text(SMALL_CFG.replace("record_index = 0", "record_index = 0\nexpert_index = 0")
                        .replace("steps = 16", f"steps = {steps}"))
        if not verdicts:
            assert run(["train", "--config", str(path), "--out", out]) == 0
        capsys.readouterr()
        assert run(["saliency", "--config", str(path), "--out", out, "-v"]) == 0
        err = capsys.readouterr().err
        doc = json.loads(open(os.path.join(out, "saliency_rr_expert0.json")).read())
        fx, fb = doc["target_value"], doc["baseline_value"]
        assert doc["completeness_limit"] == 0.05 * max(abs(fx - fb), abs(fx), abs(fb))
        assert doc["completeness_ok"] == (doc["completeness_gap"] <= doc["completeness_limit"])
        verb = "meets" if doc["completeness_ok"] else "exceeds"
        assert f"{verb} the limit {doc['completeness_limit']:.3e}" in err
        verdicts[steps] = doc["completeness_ok"]
    assert verdicts == {16: False, 64: True}


def test_saliency_single_expert_attribution(cfg_path, tmp_path):
    expert_cfg = tmp_path / "expert.cfg"
    expert_cfg.write_text(SMALL_CFG.replace("record_index = 0",
                                            "record_index = 0\nexpert_index = 1"))
    out = str(tmp_path / "sal1")
    assert run(["train", "--config", str(expert_cfg), "--out", out]) == 0
    assert run(["saliency", "--config", str(expert_cfg), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "saliency_rr_expert1.csv"))


def test_hand_edited_checkpoint_exits_with_parse(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoints", "sex.ckpt")
    text = open(ckpt).read()
    with open(ckpt, "w") as fh:
        fh.write(text.replace("scalar task_id 2.0", "scalar task_id abc"))
    assert run(["eval", "--config", cfg_path, "--out", out]) == EXIT_CODES["parse"] == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ParseError"
    assert "sex.ckpt" in record["message"] and "task_id" in record["message"]


def test_roster_mismatch_exits_with_usage(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    wider = tmp_path / "wider.cfg"
    wider.write_text(SMALL_CFG.replace("stat:statistical:2:128:16",
                                       "stat:statistical:2:128:16; spec2:spectral:3:128:16"))
    assert run(["eval", "--config", str(wider), "--out", out]) == EXIT_CODES["usage"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["message"] == "3 experts but 2 heads"


def test_roster_feature_width_differing_from_checkpoint_exits_with_usage(cfg_path, tmp_path,
                                                                         capsys):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(SMALL_CFG.replace("spec:spectral:1:128:16", "spec:spectral:1:128:8"))
    for command, expert in (("eval", "expert 0"), ("bench", "expert 0"), ("saliency", "expert 'spec'")):
        assert run([command, "--config", str(narrow), "--out", out]) == EXIT_CODES["usage"], command
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, command
        record = json.loads(lines[0])
        assert record["error"] == "UsageError", command
        assert record["message"] == (f"{expert} has feature width 8, but the model's "
                                     f"statistics for it have width 16"), command


def test_diverging_training_exits_with_nonfinite(tmp_path, capsys):
    path = tmp_path / "diverge.cfg"
    path.write_text(SMALL_CFG.replace("batch_size = 16", "batch_size = 16\nlearning_rate = 1e200"))
    out = str(tmp_path / "run")
    assert run(["train", "--config", str(path), "--out", out]) == EXIT_CODES["nonfinite"] == 7
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "NonFiniteLossError"
    assert record["message"].startswith("task rr: non-finite loss at epoch 0")


def test_diverging_console_run_prints_one_json_line(tmp_path):
    # a fresh interpreter, where nothing captures numpy's warnings
    path = tmp_path / "diverge.cfg"
    path.write_text(SMALL_CFG.replace("batch_size = 16", "batch_size = 16\nlearning_rate = 1e200"))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "enecg.cli", "train", "--config", str(path),
                           "--out", str(tmp_path / "run")], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_CODES["nonfinite"]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "NonFiniteLossError"


def test_eval_of_a_static_ensemble_reports_every_single(tmp_path):
    path = tmp_path / "uniform.cfg"
    path.write_text(SMALL_CFG.replace("repeats = 1", "repeats = 1\nensemble = uniform"))
    assert run(["eval", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    doc = json.loads(open(tmp_path / "run" / "metrics.json").read())
    cfg, _ = load_config(path)
    hidden, rank = cfg.head_hidden, cfg.head_rank
    trainable = frozen = 0
    for expert in build_experts(cfg):
        frozen += sum(p.data.size for p in expert.params.values())
        for name in cfg.tasks:
            k, out = expert.feature_dim, tk.task_by_name(name).output_dim
            r = min(rank, out)
            # two LoRA layers k -> hidden -> out: factors and biases train, w0 is frozen
            trainable += (rank * k + hidden * rank + hidden) + (r * hidden + out * r + out)
            frozen += hidden * k + out * hidden
    assert (doc["params_trainable"], doc["params_frozen"]) == (trainable, frozen) == (1098, 40064)
    assert doc["params_total"] == trainable + frozen


def test_eval_marks_a_strategy_that_does_not_apply_null_and_na(tmp_path):
    path = tmp_path / "zero_shot.cfg"
    path.write_text(SMALL_CFG.replace("repeats = 1", "repeats = 1\nensemble = zero_shot"))
    out = tmp_path / "run"
    assert run(["eval", "--config", str(path), "--out", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"metrics.json holds {name}")

    doc = json.loads((out / "metrics.json").read_text(), parse_constant=no_constant)
    rows = {t["task"]: t for t in doc["tasks"]}
    for name in ("rr", "age"):  # zero-shot weighting does not apply to regression
        assert (rows[name]["mean"], rows[name]["std"], rows[name]["values"]) == (None, None, [])
    assert all(isinstance(rows[name]["mean"], float) for name in ("sex", "potassium", "arrhythmia"))
    csv = {line.split(",")[0]: line.split(",") for line in (out / "metrics.csv").read_text().splitlines()}
    assert csv["rr"][2:4] == csv["age"][2:4] == ["n/a", "n/a"]


def test_static_eval_scores_every_repeat_as_compare_ensembles_does(tmp_path):
    path = tmp_path / "greedy.cfg"
    path.write_text(SMALL_CFG.replace("repeats = 1", "repeats = 2\nensemble = greedy"))
    assert run(["eval", "--config", str(path), "--out", str(tmp_path / "eval")]) == 0
    assert run(["compare-ensembles", "--config", str(path), "--out", str(tmp_path / "cmp")]) == 0
    rows = json.loads((tmp_path / "eval" / "metrics.json").read_text())["tasks"]
    table = json.loads((tmp_path / "cmp" / "ensemble_comparison.json").read_text())["results"]
    for row in rows:
        assert len(row["values"]) == 2
        cell = table[row["task"]]["greedy"]
        assert (row["mean"], row["std"], row["values"]) == (cell["mean"], cell["std"], cell["values"])


@pytest.mark.parametrize("old,new", [
    ("pooled_len = 25", "pooled_len = 25\nleads = 0"),
    ("pooled_len = 25", "pooled_len = 20"),
], ids=["other-lead", "other-pooled-len"])
def test_gate_settings_differing_from_checkpoint_exit_with_usage(cfg_path, tmp_path, capsys,
                                                                old, new):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(SMALL_CFG.replace(old, new))
    for command in ("eval", "bench", "saliency"):
        assert run([command, "--config", str(other), "--out", out]) == EXIT_CODES["usage"]
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "UsageError" and "gating.leads" in record["message"]


def test_checkpoint_lead_beyond_the_data_exits_with_usage(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoints", "rr.ckpt")
    lines = open(ckpt).read().splitlines()
    at = lines.index("tensor gate.leads 1")
    lines[at + 1] = "12.0"
    with open(ckpt, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run(["eval", "--config", cfg_path, "--out", out]) == EXIT_CODES["usage"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "rr.ckpt" in record["message"] and "[12]" in record["message"]


# every documented switch at its non-default value, added after the line it
# follows in SMALL_CFG; the ensemble selector applies to eval only
SWITCHES = [
    ("pooled_len = 25", "per_coordinate = false"),
    ("repeats = 1", "normalize_targets = false"),
    ("repeats = 1", "class_weighted_bce = false"),
    ("rank = 2", "train_bias = false"),
    ("pooled_len = 25", "leads = 0,1,6"),
    ("repeats = 1", "ensemble = zero_shot"),
    ("repeats = 1", "ensemble = greedy"),
    ("repeats = 1", "ensemble = sample_aware"),
]


@pytest.mark.parametrize("anchor,setting", SWITCHES, ids=[s for _, s in SWITCHES])
def test_every_switch_runs_train_eval_saliency(tmp_path, anchor, setting):
    path = tmp_path / "switch.cfg"
    path.write_text(SMALL_CFG.replace(anchor, f"{anchor}\n{setting}"))
    out = str(tmp_path / "run")
    for command in ("train", "eval", "saliency"):
        assert run([command, "--config", str(path), "--out", out]) == 0, command
    doc = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert all(np.isfinite(t["mean"]) for t in doc["tasks"] if t["values"])


def test_bench_writes_the_report_keys_and_lists_them(cfg_path, tmp_path):
    from dataclasses import fields
    from enecg.pipeline import MetricsReport
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg_path, "--out", out]) == 0
    assert run(["bench", "--config", cfg_path, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "bench.json")).read())
    assert list(doc) == [f.name for f in fields(MetricsReport)]
    assert doc["tasks"] == []
    assert "bench.json" in open(os.path.join(out, "manifest.txt")).read().splitlines()


@pytest.mark.parametrize("old,new,name", [
    ("repeats = 1", "repeats = 1\ntasks = rr,rr", "rr"),
    ("stat:statistical:2:128:16", "spec:statistical:2:128:16", "spec"),
], ids=["task", "expert"])
def test_repeated_task_or_expert_name_exits_with_config(tmp_path, capsys, old, new, name):
    path = tmp_path / "repeat.cfg"
    path.write_text(SMALL_CFG.replace(old, new))
    for command in ("train", "eval", "compare-ensembles"):
        code = run([command, "--config", str(path), "--out", str(tmp_path / command)])
        assert code == EXIT_CODES["config"], command
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, command
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError" and f"names {name!r} more than once" in record["message"]


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nseed = 1\nsplit = 0.7,0.2,0.2\n")
    out = str(tmp_path / "o")
    assert run(["gen", "--config", str(bad), "--out", out]) == EXIT_CODES["config"]


@pytest.mark.parametrize("old,new", [
    ("pooled_len = 25", "pooled_len = 25\nleads = 1,1"),
    ("pooled_len = 25", "pooled_len = 25\nleads = 12"),
    ("repeats = 1", "repeats = 1\nsplit = 1.0"),
    ("repeats = 1", "repeats = 1\nsplit = 0.2,0.2,0.2,0.4"),
    ("repeats = 1", "repeats = 1\nsplit = nan,0.5,0.5"),
    ("repeats = 1", "repeats = 1\ntasks = ,"),
    ("fs_hz = 100.0", "fs_hz = 100.0\nnoise_amplitude = nan"),
    ("fs_hz = 100.0", "fs_hz = 100.0\nnoise_amplitude = inf"),
    ("fs_hz = 100.0", "fs_hz = 100.0\nnoise_amplitude = -0.5"),
], ids=["duplicate-lead", "lead-out-of-range", "one-ratio", "four-ratios", "nan-ratio", "no-tasks",
        "nan-noise", "infinite-noise", "negative-noise"])
def test_bad_gate_leads_or_split_exits_with_config(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace(old, new))
    assert run(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


@pytest.mark.parametrize("value", ["nan", "inf", "-0.001", "0"])
def test_learning_rate_not_finite_and_positive_exits_with_config(tmp_path, capsys, value):
    path = tmp_path / "lr.cfg"
    path.write_text(SMALL_CFG.replace("batch_size = 16", f"batch_size = 16\nlearning_rate = {value}"))
    out = tmp_path / "run"
    assert run(["train", "--config", str(path), "--out", str(out)]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"] == (f"experiment.learning_rate must be finite and positive, "
                                 f"got {float(value)}")
    assert not (out / "checkpoints").exists()


@pytest.mark.parametrize("old,new,message", [
    ("rank = 2", "rank = 0", "heads.rank must be >= 1, got 0"),
    ("rank = 2", "rank = -1", "heads.rank must be >= 1, got -1"),
    ("hidden_dim = 16\nrank", "hidden_dim = 0\nrank", "heads.hidden_dim must be >= 1, got 0"),
    ("pooled_len = 25\nhidden_dim = 16", "pooled_len = 25\nhidden_dim = 0",
     "gating.hidden_dim must be >= 1, got 0"),
    ("pooled_len = 25", "pooled_len = 0", "gating.pooled_len must be >= 1, got 0"),
    ("stat:statistical:2:128:16", "stat:statistical:2:128:0",
     "experts.roster feature_dim of 'stat' must be >= 1, got 0"),
], ids=["rank-0", "rank-negative", "head-hidden-0", "gate-hidden-0", "pooled-len-0", "feature-dim-0"])
def test_width_below_one_exits_with_config_naming_its_key(tmp_path, capsys, old, new, message):
    path = tmp_path / "width.cfg"
    path.write_text(SMALL_CFG.replace(old, new))
    out = tmp_path / "run"
    assert run(["train", "--config", str(path), "--out", str(out)]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["error"], record["message"]) == ("ConfigError", message)
    assert not (out / "checkpoints").exists()


# (old, new, message): 200-sample records, so each edit reached train and failed there
SHAPE_MISTAKES = [
    ("stat:statistical:2:128:16", "stat:transformer:2:128:16",
     "experts.roster arch of 'stat' must be in ('spectral', 'convolutional', 'statistical'), "
     "got 'transformer'"),
    ("spec:spectral:1:128:16", "spec:spectral:1:1:16",
     "experts.roster input_len of 'spec' must be >= 64, got 1"),
    ("stat:statistical:2:128:16", "stat:statistical:2:8:16",
     "experts.roster input_len of 'stat' must be >= 32, got 8"),
    ("stat:statistical:2:128:16", "stat:convolutional:2:219:16",
     "experts.roster input_len of 'stat' must be >= 220, got 219"),
    ("spec:spectral:1:128:16", "spec:spectral:1:10000:16",
     "experts.roster input_len of 'spec' must be <= 200 (the samples per record, "
     "data.duration_s * data.fs_hz), got 10000"),
    ("stat:statistical:2:128:16", "stat:statistical:2:-:16",
     "experts.roster input_len of 'stat' must be <= 200 (the samples per record, "
     "data.duration_s * data.fs_hz), got 2500"),
    ("pooled_len = 25", "pooled_len = 10000",
     "gating.pooled_len must be <= 200 (the samples per record, data.duration_s * data.fs_hz), "
     "got 10000"),
    ("rank = 2", "rank = 20",
     "heads.rank must be <= 16 (heads.hidden_dim and every roster feature_dim), got 20"),
    ("stat:statistical:2:128:16", "stat:statistical:2:128:1",
     "heads.rank must be <= 1 (heads.hidden_dim and every roster feature_dim), got 2"),
    # the gate's first layer would have trained at rank 1
    ("pooled_len = 25\nhidden_dim = 16", "pooled_len = 25\nhidden_dim = 1",
     "heads.rank must be <= 1 (gating.hidden_dim and the gate input width, "
     "gating.leads x gating.pooled_len), got 2"),
    ("pooled_len = 25", "pooled_len = 1",
     "heads.rank must be <= 1 (gating.hidden_dim and the gate input width, "
     "gating.leads x gating.pooled_len), got 2"),
]


@pytest.mark.parametrize("old,new,message", SHAPE_MISTAKES,
                         ids=["unknown-arch", "spectral-input-1", "statistical-input-8",
                              "convolutional-input-219", "input-beyond-record", "default-input-beyond-record",
                              "pooled-len-beyond-record", "rank-above-hidden", "rank-above-feature-dim",
                              "rank-above-gate-hidden", "rank-above-gate-input"])
def test_roster_and_width_mistakes_exit_with_config_naming_their_key(tmp_path, capsys, old, new,
                                                                     message):
    path = tmp_path / "shape.cfg"
    path.write_text(SMALL_CFG.replace(old, new))
    out = tmp_path / "run"
    assert run(["train", "--config", str(path), "--out", str(out)]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}
    assert not (out / "checkpoints").exists()


@pytest.mark.parametrize("old,new,message", [
    ("fs_hz = 100.0", "fs_hz = 100.0\npotassium_rate = 1.5", "data.potassium_rate must lie in [0,1], got 1.5"),
    ("fs_hz = 100.0", "fs_hz = 100.0\nsex_ratio = -0.5", "data.sex_ratio must lie in [0,1], got -0.5"),
    ("pooled_len = 25", "pooled_len = 25\nleads = 1,1",
     "gating.leads must be distinct indices in 0..11, got (1, 1)"),
    ("repeats = 1", "repeats = 1\nensemble = vote",
     "experiment.ensemble: unknown strategy 'vote'; expected one of "
     "('moe', 'zero_shot', 'greedy', 'sample_aware', 'uniform')"),
    ("epochs = 2", "epochs = -1", "experiment.epochs must be >= 0, got -1"),
    ("batch_size = 16", "batch_size = 0", "experiment.batch_size must be >= 1, got 0"),
    ("repeats = 1", "repeats = 0", "experiment.repeats must be >= 1, got 0"),
    ("seed = 4", "seed = -1", "experiment.seed must be >= 0, got -1"),
    ("spec:spectral:1:128:16", "spec:spectral:-1:128:16",
     "experts.roster seed of 'spec' must be >= 0, got -1"),
], ids=["potassium-rate", "sex-ratio", "leads", "ensemble", "epochs", "batch-size", "repeats",
        "seed", "expert-seed"])
def test_config_error_names_its_key(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace(old, new))
    assert run(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize("command,via", [("train", "flag"), ("gen", "flag"), ("train", "env")])
def test_negative_seed_from_flag_or_env_exits_with_config(tmp_path, capsys, monkeypatch, command, via):
    # validate bounds the seed before np.random.SeedSequence, which refuses it
    path = tmp_path / "seedless.cfg"
    path.write_text(SMALL_CFG.replace("seed = 4\n", ""))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if via == "env":
        monkeypatch.setenv("ENECG_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    assert run(argv) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError",
                                    "message": "experiment.seed must be >= 0, got -1"}


def test_shape_bounds_admit_their_limits(tmp_path):
    # input_len and pooled_len equal to the record's 200 samples, rank equal to every width
    path = tmp_path / "limits.cfg"
    path.write_text(SMALL_CFG.replace("stat:statistical:2:128:16", "stat:statistical:2:200:16")
                    .replace("pooled_len = 25", "pooled_len = 200").replace("rank = 2", "rank = 16"))
    load_config(path)


def test_error_raised_inside_validate_keeps_its_class(cfg_path, tmp_path, capsys, monkeypatch):
    from enecg.pipeline import ExperimentConfig

    def validate(self):
        raise RuntimeError("a bug in a check")

    monkeypatch.setattr(ExperimentConfig, "validate", validate)
    assert run(["train", "--config", cfg_path, "--out", str(tmp_path / "t")]) == EXIT_CODES["internal"] == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "RuntimeError", "message": "a bug in a check"}


def test_negative_record_count_exits_with_config_from_gen(tmp_path, capsys):
    path = tmp_path / "negative.cfg"
    path.write_text(SMALL_CFG.replace("n_records = 160", "n_records = -1"))
    assert run(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ConfigError", "message": "experiment.n_records must be >= 0, got -1"}


@pytest.mark.parametrize("line", ["duration_s = 2.0", "fs_hz = 100.0"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_duration_or_rate_exits_with_config(tmp_path, capsys, line, value):
    path = tmp_path / "data.cfg"
    path.write_text(SMALL_CFG.replace(line, f"{line.split()[0]} = {value}"))
    assert run(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert "must be finite and positive" in record["message"]


@pytest.mark.parametrize("duration, rate", [("1e200", "1e200"), ("0.001", "100.0")])
def test_sample_count_not_finite_or_below_two_exits_with_config(tmp_path, capsys, duration, rate):
    path = tmp_path / "data.cfg"
    path.write_text(SMALL_CFG.replace("duration_s = 2.0", f"duration_s = {duration}")
                    .replace("fs_hz = 100.0", f"fs_hz = {rate}"))
    assert run(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert "must round to a finite count >= 2" in record["message"]


def test_empty_split_exits_with_usage(tmp_path, capsys):
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(SMALL_CFG.replace("n_records = 160", "n_records = 4"))
    assert run(["train", "--config", str(tiny), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "validation 0" in record["message"]


def test_train_splits_before_it_prepares(tmp_path, capsys, monkeypatch):
    import enecg.cli
    import enecg.pipeline

    def prepare_dataset(*args, **kwargs):
        raise AssertionError("records prepared before the split was checked")

    monkeypatch.setattr(enecg.cli, "_prepare_records", prepare_dataset)
    monkeypatch.setattr(enecg.pipeline, "_prepare_records", prepare_dataset)
    monkeypatch.setattr(enecg.pipeline, "prepare_dataset", prepare_dataset)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(SMALL_CFG.replace("n_records = 160", "n_records = 4"))
    assert run(["train", "--config", str(tiny), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "empty split" in record["message"]


# (old, new, key): each value lies outside the range of saliency.<key>
BAD_SALIENCY = [
    ("record_index = 0", "record_index = -1", "record_index"),
    ("record_index = 0", "record_index = -3", "record_index"),
    ("task = rr", "task = arrhythmia\nclass_index = 15", "class_index"),
    ("task = rr", "task = arrhythmia\nclass_index = -1", "class_index"),
    ("record_index = 0", "record_index = 0\nclass_index = 0", "class_index"),
    ("record_index = 0", "record_index = 0\nexpert_index = 2", "expert_index"),
    ("record_index = 0", "record_index = 0\nexpert_index = -1", "expert_index"),
    ("task = rr", "[experiment]\ntasks = rr,age\n[saliency]\ntask = sex", "task"),
    ("task = rr", "task = bogus", "task"),
    ("steps = 16", "steps = 0", "steps"),
]


@pytest.mark.parametrize("old,new,key", BAD_SALIENCY, ids=[n.replace("\n", "; ") for _, n, _ in BAD_SALIENCY])
def test_bad_saliency_option_exits_with_config(tmp_path, capsys, old, new, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace(old, new))
    # no checkpoints under --out: the options are checked before any loads
    assert run(["saliency", "--config", str(bad), "--out", str(tmp_path / "s")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and f"saliency.{key} " in record["message"]


def test_frozen_checksum_drift_exits_with_invariant(cfg_path, tmp_path, capsys, monkeypatch):
    from enecg.experts import ExpertModel
    drift = iter(range(1000))
    monkeypatch.setattr(ExpertModel, "checksum", lambda self: f"sum{next(drift)}")
    code = run(["train", "--config", cfg_path, "--out", str(tmp_path / "d")])
    assert code == EXIT_CODES["invariant"] == 8
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvariantError"


def test_unknown_flag_exits_with_usage(cfg_path, tmp_path, capsys):
    code = run(["gen", "--config", cfg_path, "--out", str(tmp_path / "x"), "--bogus"])
    assert code == 2


def test_eval_honors_strategy_selector(cfg_path, tmp_path):
    uniform_cfg = tmp_path / "uniform.cfg"
    uniform_cfg.write_text(SMALL_CFG.replace("seed = 4", "seed = 4\nensemble = uniform"))
    out = str(tmp_path / "uni")
    assert run(["eval", "--config", str(uniform_cfg), "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert {t["task"] for t in doc["tasks"]} == {"rr", "age", "sex", "potassium", "arrhythmia"}


def test_seed_override_changes_dataset(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert run(["gen", "--config", cfg_path, "--out", out1, "--seed", "11"]) == 0
    assert run(["gen", "--config", cfg_path, "--out", out2, "--seed", "12"]) == 0
    a = open(os.path.join(out1, "records_0000.txt")).read()
    b = open(os.path.join(out2, "records_0000.txt")).read()
    assert a != b

"""CLI runs end to end: gen determinism, train+eval report, compare table,
saliency export, exit codes and manifests."""

import json
import os

import numpy as np
import pytest

from enecg.cli import EXIT_CODES, run

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
    ("repeats = 1", "joint = true"),
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
], ids=["duplicate-lead", "lead-out-of-range", "one-ratio", "four-ratios"])
def test_bad_gate_leads_or_split_exits_with_config(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace(old, new))
    assert run(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == EXIT_CODES["config"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


def test_empty_split_exits_with_usage(tmp_path, capsys):
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(SMALL_CFG.replace("n_records = 160", "n_records = 4"))
    assert run(["train", "--config", str(tiny), "--out", str(tmp_path / "t")]) == EXIT_CODES["usage"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "validation 0" in record["message"]


def test_train_splits_before_it_prepares(tmp_path, capsys, monkeypatch):
    import enecg.cli
    import enecg.pipeline

    def prepare_dataset(*args, **kwargs):
        raise AssertionError("prepare_dataset called before the split was checked")

    monkeypatch.setattr(enecg.cli, "prepare_dataset", prepare_dataset)
    monkeypatch.setattr(enecg.pipeline, "prepare_dataset", prepare_dataset)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(SMALL_CFG.replace("n_records = 160", "n_records = 4"))
    assert run(["train", "--config", str(tiny), "--out", str(tmp_path / "t")]) == EXIT_CODES["usage"]
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "UsageError" and "empty split" in record["message"]


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

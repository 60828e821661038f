"""Strict config parsing: defaults, errors with key names, echo round-trip."""

from dataclasses import fields

import pytest

from enecg.config import _SCHEMA, ENV_SEED, echo_config, load_config
from enecg.errors import ConfigError, UsageError
from enecg.pipeline import ExperimentConfig
from enecg.signal import GeneratorConfig


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg, saliency = load_config(write(tmp_path, "[experiment]\nseed = 7\n"))
    assert cfg.seed == 7
    assert cfg.epochs == 30 and cfg.batch_size == 32
    assert cfg.split == (0.7, 0.2, 0.1)
    assert len(cfg.experts) == 3
    assert saliency == {}


def test_bad_split_sum_is_named(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\nsplit = 0.7,0.2,0.2\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        load_config(path)


@pytest.mark.parametrize("rates", ["60", "50,60,70"])
def test_heart_rate_range_of_other_than_two_rates_names_its_key(tmp_path, rates):
    path = write(tmp_path, f"[experiment]\nseed = 1\n[data]\nheart_rate_bpm = {rates}\n")
    with pytest.raises(ConfigError, match="data.heart_rate_bpm must be two positive, ordered rates"):
        load_config(path)


def test_config_error_is_a_usage_error():
    # library callers that catch UsageError catch every refused config value
    assert issubclass(ConfigError, UsageError)


def test_unknown_key_is_error_with_name(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\nepochz = 3\n")
    with pytest.raises(ConfigError, match="epochz"):
        load_config(path)


def test_unknown_section_is_error(tmp_path):
    path = write(tmp_path, "[experimant]\nseed = 1\n")
    with pytest.raises(ConfigError, match="experimant"):
        load_config(path)


def test_type_mismatch_names_key_and_line(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\nepochs = many\n")
    with pytest.raises(ConfigError, match=r":3.*experiment\.epochs"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "[experiment]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_missing_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    path = write(tmp_path, "[experiment]\nepochs = 2\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_env_seed_is_lowest_priority(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "99")
    cfg, _ = load_config(write(tmp_path, "[experiment]\nepochs = 2\n"))
    assert cfg.seed == 99
    cfg, _ = load_config(write(tmp_path, "[experiment]\nseed = 5\n"))
    assert cfg.seed == 5
    cfg, _ = load_config(write(tmp_path, "[experiment]\nseed = 5\n"), seed_override=3)
    assert cfg.seed == 3


def test_ensemble_selector(tmp_path):
    cfg, _ = load_config(write(tmp_path, "[experiment]\nseed = 1\nensemble = moe\n"))
    assert cfg.ensemble == "moe"
    path = write(tmp_path, "[experiment]\nseed = 1\nensemble = voting\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_roster_parsing(tmp_path):
    text = ("[experiment]\nseed = 1\n[experts]\n"
            "roster = a:spectral:4:-:32; b:statistical:5:128:16\n")
    cfg, _ = load_config(write(tmp_path, text))
    assert [s.name for s in cfg.experts] == ["a", "b"]
    assert cfg.experts[0].input_len is None
    assert cfg.experts[1].input_len == 128


def test_echo_roundtrip(tmp_path):
    text = ("[experiment]\nseed = 3\nepochs = 7\ntasks = rr,sex\n"
            "[heads]\nrank = 2\n[gating]\nleads = 0,2\n"
            "[data]\nnoise_amplitude = 0.01\n[saliency]\nsteps = 32\n")
    cfg, sal = load_config(write(tmp_path, text))
    echoed = write(tmp_path, echo_config(cfg, sal))
    cfg2, sal2 = load_config(echoed)
    assert cfg == cfg2
    assert sal2 == {"steps": 32}


@pytest.mark.parametrize("section,key", [("heads", "depth = 1"), ("heads", "lora_only = false"),
                                         ("experiment", "joint = true")],
                         ids=["depth = 1", "lora_only = false", "joint = true"])
def test_retired_head_keys_are_unknown(tmp_path, section, key):
    path = write(tmp_path, f"[experiment]\nseed = 1\n[{section}]\n{key}\n")
    with pytest.raises(ConfigError, match=rf":4: unknown key {section}\.{key.split()[0]}"):
        load_config(path)


# config.echo.txt of the default config as written while experiment.joint existed
ECHO_WITH_JOINT = """# effective configuration (auto-generated)
[experiment]
seed = 1
n_records = 1000
epochs = 30
batch_size = 32
learning_rate = 0.001
split = 0.7,0.2,0.1
tasks = rr,age,sex,potassium,arrhythmia
ensemble = moe
repeats = 3
joint = false
normalize_targets = true
class_weighted_bce = true

[experts]
roster = spectral-a:spectral:11:-:64; conv-a:convolutional:12:-:64; stats-a:statistical:13:-:64

[heads]
hidden_dim = 64
rank = 4
train_bias = true

[gating]
leads = 1
pooled_len = 250
hidden_dim = 64
per_coordinate = true

[data]
duration_s = 10.0
fs_hz = 500.0
heart_rate_bpm = 50.0,110.0
noise_amplitude = 0.05
potassium_rate = 0.03
sex_ratio = 0.5
"""


def test_echo_naming_joint_is_rejected_and_loads_without_it(tmp_path):
    with pytest.raises(ConfigError, match=r":12: unknown key experiment\.joint"):
        load_config(write(tmp_path, ECHO_WITH_JOINT))
    cfg, _ = load_config(write(tmp_path, ECHO_WITH_JOINT.replace("joint = false\n", "")))
    assert echo_config(cfg) == ECHO_WITH_JOINT.replace("joint = false\n", "")


def test_echo_lists_every_schema_key(tmp_path):
    cfg, _ = load_config(write(tmp_path, "[experiment]\nseed = 1\n"))
    saliency = {"task": "sex", "steps": 8, "record_index": 2, "expert_index": 0, "class_index": 1}
    echo = echo_config(cfg, saliency)
    section = None
    keys = set()
    for line in echo.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif " = " in line:
            keys.add((section, line.split(" = ")[0]))
    assert keys == set(_SCHEMA)
    cfg2, sal2 = load_config(write(tmp_path, echo))
    assert (cfg2, sal2) == (cfg, saliency)
    # every setting is a key, so the echo records the whole run
    targets = {target for _, target in _SCHEMA.values()}
    assert {f.name for f in fields(ExperimentConfig)} - {"data"} <= targets
    assert {f"data.{f.name}" for f in fields(GeneratorConfig)} - {"data.seed", "data.n_records"} \
        == {t for t in targets if t.startswith("data.")}

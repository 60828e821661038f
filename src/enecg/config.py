"""Strict experiment-config parsing: flat key = value lines in sections.

Unknown sections or keys are errors (no silent typos), every value is
type-checked with its line number, and the effective configuration can be
echoed back out in the same format for exact reruns.
"""

from __future__ import annotations

import os

from .errors import ConfigError, read_lines
from .pipeline import ExperimentConfig, ExpertSpec
from .signal import GeneratorConfig

ENV_SEED = "ENECG_SEED"


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_roster(text: str) -> tuple[ExpertSpec, ...]:
    """name:tag:seed:input_len:feature_dim entries separated by ';'.

    input_len '-' means the architecture default."""
    specs = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = [p.strip() for p in entry.split(":")]
        if len(parts) != 5:
            raise ValueError(f"roster entry needs name:tag:seed:input_len:feature_dim, got {entry!r}")
        input_len = None if parts[3] == "-" else int(parts[3])
        specs.append(ExpertSpec(parts[0], parts[1], int(parts[2]), input_len, int(parts[4])))
    if not specs:
        raise ValueError("empty roster")
    return tuple(specs)


# (section, key) -> (parser, experiment-config field or data.* field)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("experiment", "seed"): (int, "seed"),
    ("experiment", "n_records"): (int, "n_records"),
    ("experiment", "epochs"): (int, "epochs"),
    ("experiment", "batch_size"): (int, "batch_size"),
    ("experiment", "learning_rate"): (float, "learning_rate"),
    ("experiment", "split"): (_parse_floats, "split"),
    ("experiment", "tasks"): (_parse_names, "tasks"),
    ("experiment", "ensemble"): (str, "ensemble"),
    ("experiment", "repeats"): (int, "repeats"),
    ("experiment", "normalize_targets"): (_parse_bool, "normalize_targets"),
    ("experiment", "class_weighted_bce"): (_parse_bool, "class_weighted_bce"),
    ("experts", "roster"): (_parse_roster, "experts"),
    ("heads", "hidden_dim"): (int, "head_hidden"),
    ("heads", "rank"): (int, "head_rank"),
    ("heads", "train_bias"): (_parse_bool, "train_bias"),
    ("gating", "leads"): (_parse_ints, "gate_leads"),
    ("gating", "pooled_len"): (int, "gate_pooled_len"),
    ("gating", "hidden_dim"): (int, "gate_hidden"),
    ("gating", "per_coordinate"): (_parse_bool, "per_coordinate_weights"),
    ("data", "duration_s"): (float, "data.duration_s"),
    ("data", "fs_hz"): (float, "data.fs_hz"),
    ("data", "heart_rate_bpm"): (_parse_floats, "data.heart_rate_bpm"),
    ("data", "noise_amplitude"): (float, "data.noise_amplitude"),
    ("data", "potassium_rate"): (float, "data.potassium_rate"),
    ("data", "sex_ratio"): (float, "data.sex_ratio"),
    ("saliency", "class_index"): (int, "saliency.class_index"),
    ("saliency", "expert_index"): (int, "saliency.expert_index"),
    ("saliency", "record_index"): (int, "saliency.record_index"),
    ("saliency", "steps"): (int, "saliency.steps"),
    ("saliency", "task"): (str, "saliency.task"),
}

_SECTIONS = {section for section, _ in _SCHEMA}

# value parser -> the text it parses back, for echo_config
_FORMATS = {
    int: str,
    float: repr,
    str: str,
    _parse_bool: lambda v: str(v).lower(),
    _parse_floats: lambda v: ",".join(map(repr, v)),
    _parse_ints: lambda v: ",".join(map(str, v)),
    _parse_names: ",".join,
    _parse_roster: lambda specs: "; ".join(
        f"{s.name}:{s.arch}:{s.seed}:{'-' if s.input_len is None else s.input_len}:{s.feature_dim}"
        for s in specs),
}


def load_config(path, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a config file.

    Returns the ExperimentConfig plus a dict of saliency options. The seed
    is resolved as: explicit override > config value > ENECG_SEED env var;
    a missing seed is a config error.
    """
    try:
        lines = read_lines(path, ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e

    raw: dict[str, object] = {}
    section = None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (p.strip() for p in text.split("=", 1))
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {section}.{key}")
        parser, field_name = _SCHEMA[(section, key)]
        try:
            parsed = parser(value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {section}.{key}: {e}") from e
        if field_name in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {section}.{key}")
        raw[field_name] = parsed

    if seed_override is not None:
        raw["seed"] = int(seed_override)
    elif "seed" not in raw:
        env = os.environ.get(ENV_SEED)
        if env is None:
            raise ConfigError(f"missing required key experiment.seed "
                              f"(set it in {path}, via --seed, or via {ENV_SEED})")
        try:
            raw["seed"] = int(env)
        except ValueError as e:
            raise ConfigError(f"bad {ENV_SEED} value {env!r}") from e

    data_kwargs = {name.split(".", 1)[1]: value for name, value in raw.items()
                   if name.startswith("data.")}
    saliency = {name.split(".", 1)[1]: value for name, value in raw.items()
                if name.startswith("saliency.")}
    exp_kwargs = {name: value for name, value in raw.items()
                  if "." not in name}
    if data_kwargs:
        exp_kwargs["data"] = GeneratorConfig(**data_kwargs)
    cfg = ExperimentConfig(**exp_kwargs)
    cfg.validate()
    return cfg, saliency


def echo_config(cfg: ExperimentConfig, saliency: dict | None = None) -> str:
    """Render the effective configuration, every ``_SCHEMA`` key in order
    (saliency keys only when set); load_config(echo) reproduces it."""
    saliency = saliency or {}
    lines = ["# effective configuration (auto-generated)"]
    section = None
    for (sec, key), (parser, field_name) in _SCHEMA.items():
        scope, _, name = field_name.rpartition(".")
        if scope == "saliency" and name not in saliency:
            continue
        value = (saliency[name] if scope == "saliency"
                 else getattr(cfg.data if scope == "data" else cfg, name))
        if sec != section:
            lines += [""] * (section is not None) + [f"[{sec}]"]
            section = sec
        lines.append(f"{key} = {_FORMATS[parser](value)}")
    return "\n".join(lines) + "\n"

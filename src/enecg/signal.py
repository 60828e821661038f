"""Synthetic 12-lead ECG-like records with oracle labels, plus
downsampling and the text record format.

Each record is a train of Gaussian P-QRS-T complexes rendered into three
source rows (P, QRS, T), mixed into 12 leads through a fixed matrix and
topped with white noise. Labels are exact by construction: the RR interval
is 60000 / heart rate, age is an affine function of the per-record R-to-T
interval, sex flips the P-amplitude regime, a potassium abnormality doubles
the T amplitude, and the arrhythmia class selects one of 15 beat templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .autodiff import Tensor, mean_pool
from .errors import DimensionError, ParseError, UsageError, read_lines


@dataclass(frozen=True)
class WaveShape:
    amplitude_mv: float
    offset_s: float     # center relative to the R peak
    width_s: float


@dataclass(frozen=True)
class BeatTemplate:
    """Per-class modifiers applied on top of the sinus beat."""
    name: str
    rr_jitter: float = 0.0        # per-beat uniform +-fraction of the RR interval
    p_scale: float = 1.0
    drop_p_every: int = 0         # k>0: suppress the P wave of every k-th beat
    qrs_width_scale: float = 1.0
    qrs_amp_scale: float = 1.0
    t_amp_scale: float = 1.0
    t_shift_s: float = 0.0
    hr_scale: float = 1.0
    premature_every: int = 0      # k>0: every k-th beat arrives early, wide, with a pause after


DEFAULT_WAVES: dict[str, WaveShape] = {
    # Q/S sit clear of the R apex so peak-finding stays sample-accurate
    "P": WaveShape(0.18, -0.200, 0.030),
    "Q": WaveShape(-0.12, -0.055, 0.012),
    "R": WaveShape(1.10, 0.000, 0.020),
    "S": WaveShape(-0.28, 0.055, 0.014),
    "T": WaveShape(0.35, 0.320, 0.065),   # offset is replaced by the per-record R-to-T draw
}

DEFAULT_TEMPLATES: tuple[BeatTemplate, ...] = (
    BeatTemplate("sinus"),
    BeatTemplate("sinus_irregular", rr_jitter=0.15),
    BeatTemplate("afib_like", rr_jitter=0.30, p_scale=0.0),
    BeatTemplate("junctional", p_scale=0.0),
    BeatTemplate("blocked_p", drop_p_every=2),
    BeatTemplate("wide_qrs", qrs_width_scale=2.5),
    BeatTemplate("vt_like", qrs_width_scale=2.5, rr_jitter=0.20, hr_scale=1.4),
    BeatTemplate("low_voltage", qrs_amp_scale=0.45),
    BeatTemplate("t_inversion", t_amp_scale=-1.0),
    BeatTemplate("bradycardia", hr_scale=0.6),
    BeatTemplate("tachycardia", hr_scale=1.7),
    BeatTemplate("ivcd", qrs_width_scale=1.8, p_scale=0.5),
    BeatTemplate("long_qt", t_shift_s=0.10),
    BeatTemplate("peaked_p", p_scale=2.2),
    BeatTemplate("pvc_pattern", premature_every=3, rr_jitter=0.05),
)

# rows: I, II, III, aVR, aVL, aVF, V1..V6; columns: P, QRS, T source rows
DEFAULT_LEAD_MIX: tuple[tuple[float, float, float], ...] = (
    (0.70, 0.60, 0.60),
    (1.00, 1.00, 1.00),
    (0.40, 0.50, 0.50),
    (-0.90, -0.80, -0.80),
    (0.30, 0.20, 0.20),
    (0.70, 0.75, 0.75),
    (0.50, -0.70, -0.40),
    (0.60, -0.30, 0.90),
    (0.65, 0.40, 1.10),
    (0.70, 1.10, 1.00),
    (0.75, 1.20, 0.80),
    (0.80, 1.00, 0.70),
)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_records: int = 1000
    duration_s: float = 10.0
    fs_hz: float = 500.0
    heart_rate_bpm: tuple[float, float] = (50.0, 110.0)
    waves: dict[str, WaveShape] = field(default_factory=lambda: dict(DEFAULT_WAVES))
    lead_mix: tuple[tuple[float, float, float], ...] = DEFAULT_LEAD_MIX
    noise_amplitude: float = 0.05
    potassium_rate: float = 0.03
    sex_ratio: float = 0.5
    sex_p_factors: tuple[float, float] = (0.70, 1.80)
    p_amp_jitter: float = 0.22          # lognormal sigma on the P regime
    amp_jitter: float = 0.10            # lognormal sigma on overall gain
    t_amp_jitter: float = 0.15
    t_width_jitter: float = 0.30
    rt_range_s: tuple[float, float] = (0.26, 0.42)   # per-record R-to-T interval
    age_noise_years: float = 2.0
    templates: tuple[BeatTemplate, ...] = DEFAULT_TEMPLATES

    def validate(self) -> None:
        if self.n_records < 0:
            raise UsageError("n_records must be nonnegative")
        lo, hi = self.heart_rate_bpm
        if not (0 < lo <= hi):
            raise UsageError(f"heart-rate range must be positive and ordered, got {self.heart_rate_bpm}")
        for name, rate in (("potassium_rate", self.potassium_rate), ("sex_ratio", self.sex_ratio)):
            if not 0.0 <= rate <= 1.0:
                raise UsageError(f"{name} must lie in [0,1], got {rate}")
        if self.duration_s <= 0 or self.fs_hz <= 0:
            raise UsageError("duration and sampling rate must be positive")
        if len(self.lead_mix) < 1:
            raise UsageError("lead_mix needs at least one lead row")
        if not self.templates:
            raise UsageError("at least one beat template is required")


@dataclass
class LabelSet:
    rr_ms: float
    age_years: float
    sex: int
    potassium_abnormal: int
    arrhythmia_class: int

    def __post_init__(self):
        if self.rr_ms <= 0:
            raise UsageError(f"rr_ms must be positive, got {self.rr_ms}")
        if not 0.0 <= self.age_years <= 110.0:
            raise UsageError(f"age_years must lie in [0,110], got {self.age_years}")
        if self.sex not in (0, 1) or self.potassium_abnormal not in (0, 1):
            raise UsageError("sex and potassium_abnormal are binary")
        if not 0 <= self.arrhythmia_class < 15:
            raise UsageError(f"arrhythmia_class must lie in 0..14, got {self.arrhythmia_class}")


@dataclass
class EcgRecord:
    leads: Tensor              # C x T, millivolts
    sampling_rate_hz: float
    record_id: str

    def __post_init__(self):
        if self.leads.data.ndim != 2:
            raise DimensionError(f"record leads must be 2-D, got shape {self.leads.shape}")
        c, t = self.leads.shape
        if c < 1 or t < 2:
            raise DimensionError(f"record needs C >= 1 and T >= 2, got {c}x{t}")
        if self.sampling_rate_hz <= 0:
            raise UsageError("sampling rate must be positive")

    @property
    def n_leads(self) -> int:
        return self.leads.shape[0]

    @property
    def n_samples(self) -> int:
        return self.leads.shape[1]


def _add_gaussian(row: np.ndarray, fs: float, center_s: float, amp: float, width_s: float) -> None:
    if amp == 0.0:
        return
    t_len = row.shape[0]
    lo = max(0, int(math.floor((center_s - 4.5 * width_s) * fs)))
    hi = min(t_len, int(math.ceil((center_s + 4.5 * width_s) * fs)) + 1)
    if hi <= lo:
        return
    t = np.arange(lo, hi) / fs
    row[lo:hi] += amp * np.exp(-0.5 * ((t - center_s) / width_s) ** 2)


def _record_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def synthesize(cfg: GeneratorConfig, index: int) -> tuple[EcgRecord, LabelSet]:
    """Record ``index`` of the dataset ``cfg.seed`` describes; ``cfg.n_records``
    plays no part."""
    rng = _record_rng(cfg.seed, index)
    t_len = int(round(cfg.duration_s * cfg.fs_hz))

    # label draws, in a fixed order
    cls = int(rng.integers(len(cfg.templates)))
    tpl = cfg.templates[cls]
    heart_rate = float(rng.uniform(*cfg.heart_rate_bpm)) * tpl.hr_scale
    sex = int(rng.random() < cfg.sex_ratio)
    potassium = int(rng.random() < cfg.potassium_rate)
    rt_s = float(rng.uniform(*cfg.rt_range_s))
    lo, hi = cfg.rt_range_s
    age = 100.0 * (rt_s - lo) / (hi - lo) + float(rng.uniform(-cfg.age_noise_years, cfg.age_noise_years))
    age = float(np.clip(age, 0.0, 110.0))
    labels = LabelSet(
        rr_ms=60000.0 / heart_rate,
        age_years=age,
        sex=sex,
        potassium_abnormal=potassium,
        arrhythmia_class=cls,
    )

    # per-record morphology jitters; an abnormal potassium gives a peaked T:
    # twice the amplitude at half the width, which survives fine-grained
    # max-pooling but is attenuated by coarse mean-pooled views
    gain = float(np.exp(rng.normal(0.0, cfg.amp_jitter)))
    p_factor = cfg.sex_p_factors[sex] * float(np.exp(rng.normal(0.0, cfg.p_amp_jitter)))
    t_factor = tpl.t_amp_scale * (2.0 if potassium else 1.0) * float(np.exp(rng.normal(0.0, cfg.t_amp_jitter)))
    t_width_factor = (0.5 if potassium else 1.0) * float(np.exp(rng.normal(0.0, cfg.t_width_jitter)))

    rr_s = 60.0 / heart_rate
    centers: list[float] = []
    wide: list[bool] = []
    c = float(rng.uniform(0.1, 0.9)) * rr_s
    k = 0
    while c < cfg.duration_s + 0.5:
        centers.append(c)
        premature_next = tpl.premature_every > 0 and (k + 1) % tpl.premature_every == 0
        wide.append(tpl.premature_every > 0 and k % tpl.premature_every == 0 and k > 0)
        interval = rr_s * (1.0 + float(rng.uniform(-tpl.rr_jitter, tpl.rr_jitter)))
        if premature_next:
            interval *= 0.55
        elif tpl.premature_every > 0 and k % tpl.premature_every == 0 and k > 0:
            interval *= 1.45   # compensatory pause after the early beat
        c += interval
        k += 1

    waves = cfg.waves
    sources = np.zeros((3, t_len))
    for k, center in enumerate(centers):
        drop_p = tpl.drop_p_every > 0 and k % tpl.drop_p_every == 0
        wscale = tpl.qrs_width_scale * (2.2 if wide[k] else 1.0)
        if not drop_p:
            p = waves["P"]
            _add_gaussian(sources[0], cfg.fs_hz, center + p.offset_s,
                          gain * p.amplitude_mv * tpl.p_scale * p_factor, p.width_s)
        for name in ("Q", "R", "S"):
            w = waves[name]
            _add_gaussian(sources[1], cfg.fs_hz, center + w.offset_s * wscale,
                          gain * w.amplitude_mv * tpl.qrs_amp_scale, w.width_s * wscale)
        t_wave = waves["T"]
        _add_gaussian(sources[2], cfg.fs_hz, center + rt_s + tpl.t_shift_s,
                      gain * t_wave.amplitude_mv * t_factor, t_wave.width_s * t_width_factor)

    mix = np.asarray(cfg.lead_mix, dtype=np.float64)
    leads = mix @ sources
    if cfg.noise_amplitude > 0:
        leads = leads + cfg.noise_amplitude * rng.standard_normal(leads.shape)

    record = EcgRecord(
        leads=Tensor(leads),
        sampling_rate_hz=cfg.fs_hz,
        record_id=f"rec{index:06d}",
    )
    return record, labels


def iter_records(cfg: GeneratorConfig) -> Iterator[tuple[EcgRecord, LabelSet]]:
    """Yield records one at a time; each is a pure function of (seed, index)."""
    cfg.validate()
    for i in range(cfg.n_records):
        yield synthesize(cfg, i)


def generate(cfg: GeneratorConfig) -> list[tuple[EcgRecord, LabelSet]]:
    return list(iter_records(cfg))


# ---------------------------------------------------------------------------
# preprocessing

def _leads_of(x) -> Tensor:
    return x.leads if isinstance(x, EcgRecord) else x


def downsample(x, target_len: int) -> Tensor:
    """Window mean-pooling to exactly ``target_len`` samples per lead.

    Window = floor(T / target_len); trailing remainder samples are dropped.
    Differentiable, so saliency can attribute through it.
    """
    leads = _leads_of(x)
    if target_len < 1:
        raise UsageError(f"downsample target length must be positive, got {target_len}")
    t_len = leads.shape[-1]
    if target_len > t_len:
        raise DimensionError(f"downsample target {target_len} exceeds signal length {t_len}")
    window = t_len // target_len
    return mean_pool(leads, window, count=target_len)


# ---------------------------------------------------------------------------
# record file format
#
#   ENECG1 <record_id> <C> <T> <fs_hz>
#   <C lines of T comma-separated floats, full round-trip precision>
#   rr_ms,age_years,sex,potassium_abnormal,arrhythmia_class
#
# Records concatenate.

_MAGIC = "ENECG1"


def save_records(pairs: Iterable[tuple[EcgRecord, LabelSet]], path) -> None:
    with open(path, "w") as fh:
        for record, labels in pairs:
            c, t = record.leads.shape
            fh.write(f"{_MAGIC} {record.record_id} {c} {t} {record.sampling_rate_hz!r}\n")
            for row in record.leads.data:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
            fh.write(f"{labels.rr_ms!r},{labels.age_years!r},{labels.sex},"
                     f"{labels.potassium_abnormal},{labels.arrhythmia_class}\n")


def load_records(path) -> list[tuple[EcgRecord, LabelSet]]:
    lines = read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty record file")
    out: list[tuple[EcgRecord, LabelSet]] = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "":
            i += 1
            continue
        header = lines[i].split()
        if len(header) != 5 or header[0] != _MAGIC:
            raise ParseError(f"{path}:{i + 1}: expected '{_MAGIC} <id> <C> <T> <fs>' header")
        try:
            n_leads, t_len, fs = int(header[2]), int(header[3]), float(header[4])
        except ValueError as e:
            raise ParseError(f"{path}:{i + 1}: malformed header numbers: {e}") from e
        end = i + 1
        while end < len(lines) and not lines[end].startswith(_MAGIC + " "):
            end += 1
        block = [(i + 1 + k, lines[i + 1 + k]) for k in range(end - i - 1) if lines[i + 1 + k].strip()]
        if n_leads < 1 or len(block) != n_leads + 1:
            raise ParseError(f"{path}:{i + 1}: header declares {n_leads} lead rows "
                             f"(+1 label line) but found {len(block)} lines")
        rows = []
        for (idx, line) in block[:n_leads]:
            fields = line.split(",")
            if len(fields) != t_len:
                raise ParseError(f"{path}:{idx + 1}: expected {t_len} samples, found {len(fields)}")
            try:
                rows.append(np.array(fields, dtype=np.float64))
            except ValueError as e:
                raise ParseError(f"{path}:{idx + 1}: unreadable float: {e}") from e
            if not np.isfinite(rows[-1]).all():
                raise ParseError(f"{path}:{idx + 1}: non-finite sample")
        label_no = block[n_leads][0] + 1
        fields = block[n_leads][1].split(",")
        if len(fields) != 5:
            raise ParseError(f"{path}:{label_no}: expected 5 label fields, found {len(fields)}")
        try:
            labels = LabelSet(float(fields[0]), float(fields[1]),
                              int(fields[2]), int(fields[3]), int(fields[4]))
        except (ValueError, UsageError) as e:
            raise ParseError(f"{path}:{label_no}: bad label line: {e}") from e
        try:
            record = EcgRecord(Tensor(np.stack(rows)), fs, header[1])
        except (DimensionError, UsageError) as e:  # too few samples, or fs <= 0
            raise ParseError(f"{path}:{i + 1}: bad record: {e}") from e
        out.append((record, labels))
        i = end
    return out


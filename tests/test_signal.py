"""Generator label oracles, preprocessing contracts and record file I/O."""

import numpy as np
import pytest

from enecg.errors import DimensionError, ParseError, UsageError
from enecg.signal import (
    DEFAULT_TEMPLATES, EcgRecord, GeneratorConfig, LabelSet, Tensor,
    downsample, generate, iter_records, load_records, save_records, synthesize,
)


def small_cfg(**kw):
    base = dict(seed=11, n_records=8, duration_s=4.0, fs_hz=100.0)
    base.update(kw)
    return GeneratorConfig(**base)


def detect_r_peaks(lead: np.ndarray) -> np.ndarray:
    """Independent threshold detector: argmax of each run above 60% of max.

    Runs touching the record boundary are truncated beats without a true
    apex and are discarded."""
    thresh = 0.6 * lead.max()
    above = np.flatnonzero(lead > thresh)
    peaks = []
    start = 0
    for j in range(1, len(above) + 1):
        if j == len(above) or above[j] != above[j - 1] + 1:
            run = above[start:j]
            if run[0] > 0 and run[-1] < len(lead) - 1:
                peaks.append(run[lead[run].argmax()])
            start = j
    return np.asarray(peaks)


def test_rr_label_is_60000_over_heart_rate():
    cfg = small_cfg(heart_rate_bpm=(60.0, 60.0), templates=(DEFAULT_TEMPLATES[0],))
    for _, labels in iter_records(cfg):
        assert labels.rr_ms == 1000.0


def test_peak_detector_recovers_rr_on_noiseless_sinus():
    cfg = GeneratorConfig(seed=3, n_records=6, noise_amplitude=0.0,
                          templates=(DEFAULT_TEMPLATES[0],))
    period_ms = 1000.0 / cfg.fs_hz
    for record, labels in iter_records(cfg):
        lead_ii = record.leads.data[1]
        peaks = detect_r_peaks(lead_ii)
        assert len(peaks) >= 3
        gaps_ms = np.diff(peaks) * period_ms
        assert np.all(np.abs(gaps_ms - labels.rr_ms) <= period_ms + 1e-9)


def test_label_prevalences_match_config():
    # labels are drawn before signal assembly, so a tiny signal grid is fine
    cfg = GeneratorConfig(seed=5, n_records=10000, duration_s=1.0, fs_hz=20.0)
    labels = [lab for _, lab in iter_records(cfg)]
    potassium = np.mean([l.potassium_abnormal for l in labels])
    assert abs(potassium - 0.03) <= 0.005
    sex = np.mean([l.sex for l in labels])
    assert abs(sex - 0.5) <= 3 * 0.005
    classes = np.bincount([l.arrhythmia_class for l in labels], minlength=15)
    assert classes.min() > 0


def test_generation_is_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    for (ra, la), (rb, lb) in zip(a, b):
        assert np.array_equal(ra.leads.data, rb.leads.data)
        assert (la.rr_ms, la.age_years, la.sex, la.potassium_abnormal, la.arrhythmia_class) == \
               (lb.rr_ms, lb.age_years, lb.sex, lb.potassium_abnormal, lb.arrhythmia_class)


def test_synthesize_builds_one_record_of_the_dataset():
    record, labels = synthesize(small_cfg(), 3)
    want_record, want_labels = generate(small_cfg(n_records=4))[3]
    assert record.record_id == want_record.record_id
    assert np.array_equal(record.leads.data, want_record.leads.data)
    assert labels == want_labels


def test_age_tracks_r_to_t_interval():
    cfg = GeneratorConfig(seed=9, n_records=200, duration_s=1.0, fs_hz=20.0, age_noise_years=0.0)
    lo, hi = cfg.rt_range_s
    ages = np.array([lab.age_years for _, lab in iter_records(cfg)])
    assert ages.min() >= 0.0 and ages.max() <= 110.0
    assert ages.std() > 10.0  # spread across the affine range


def test_downsample_shapes_and_windows():
    cfg = GeneratorConfig(seed=2, n_records=1)
    record, _ = generate(cfg)[0]
    assert record.leads.shape == (12, 5000)
    out = downsample(record, 500)
    assert out.shape == (12, 500)
    np.testing.assert_allclose(out.data[:, 0], record.leads.data[:, :10].mean(axis=1))


def test_downsample_identity_and_constant():
    x = Tensor(np.full((3, 40), 0.7))
    rec = EcgRecord(x, 10.0, "const")
    np.testing.assert_array_equal(downsample(rec, 40).data, x.data)
    np.testing.assert_allclose(downsample(rec, 7).data, 0.7)


def test_downsample_errors():
    rec = EcgRecord(Tensor(np.zeros((2, 10))), 10.0, "r")
    with pytest.raises(UsageError):
        downsample(rec, 0)
    with pytest.raises(DimensionError):
        downsample(rec, 11)


def test_record_roundtrip_is_value_exact(tmp_path):
    pairs = generate(GeneratorConfig(seed=7, n_records=100, duration_s=2.0, fs_hz=50.0))
    path = tmp_path / "records.txt"
    save_records(pairs, path)
    loaded = load_records(path)
    assert len(loaded) == 100
    for (r0, l0), (r1, l1) in zip(pairs, loaded):
        assert r0.record_id == r1.record_id
        assert np.array_equal(r0.leads.data, r1.leads.data)
        assert (l0.rr_ms, l0.age_years) == (l1.rr_ms, l1.age_years)
        assert (l0.sex, l0.potassium_abnormal, l0.arrhythmia_class) == \
               (l1.sex, l1.potassium_abnormal, l1.arrhythmia_class)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        load_records(path)


def test_missing_lead_row_names_count(tmp_path):
    pairs = generate(GeneratorConfig(seed=1, n_records=1, duration_s=1.0, fs_hz=20.0))
    path = tmp_path / "bad.txt"
    save_records(pairs, path)
    lines = path.read_text().splitlines()
    del lines[5]  # drop one of the 12 lead rows
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"12"):
        load_records(path)


def test_unreadable_float_names_line(tmp_path):
    pairs = generate(GeneratorConfig(seed=1, n_records=1, duration_s=1.0, fs_hz=20.0))
    path = tmp_path / "bad.txt"
    save_records(pairs, path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = "not-a-float"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r":3"):
        load_records(path)


@pytest.mark.parametrize("text,line", [
    ("ENECG1 r 1 3 100.0\n0.1,nan,0.2\n800.0,40.0,0,0,0\n", 2),
    ("ENECG1 r 1 1 100.0\n0.1\n800.0,40.0,0,0,0\n", 1),
], ids=["nan-sample", "one-sample"])
def test_unusable_record_is_parse_error_naming_line(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"bad.txt:{line}:"):
        load_records(path)


def test_config_validation():
    with pytest.raises(UsageError):
        GeneratorConfig(heart_rate_bpm=(0.0, 60.0)).validate()
    with pytest.raises(UsageError):
        GeneratorConfig(potassium_rate=1.5).validate()


def test_label_set_validation():
    with pytest.raises(UsageError):
        LabelSet(rr_ms=-1.0, age_years=40.0, sex=0, potassium_abnormal=0, arrhythmia_class=0)
    with pytest.raises(UsageError):
        LabelSet(rr_ms=800.0, age_years=40.0, sex=0, potassium_abnormal=0, arrhythmia_class=15)

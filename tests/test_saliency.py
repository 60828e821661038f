"""Integrated-gradients exactness, completeness trend and export format."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from enecg import autodiff as ad
from enecg import pipeline as pl
from enecg import saliency
from enecg import tasks as tk
from enecg.autodiff import Tape, Tensor, backward
from enecg.errors import DimensionError, ParseError, UsageError
from enecg.saliency import (
    IG_CHUNK, SaliencyMap, ensemble_scalar_model, export_saliency, integrated_gradients,
    load_saliency_csv,
)
from enecg.signal import EcgRecord, GeneratorConfig, synthesize


def linear_model(w):
    """F(x) = sum(w * x) per batch row."""
    wt = Tensor(w)

    def run(batch):
        b = batch.shape[0]
        flat = ad.reshape(batch, (b, w.size))
        return ad.matmul(flat, Tensor(w.reshape(-1)))

    return run


def quadratic_model(scale=1.0):
    def run(batch):
        b = batch.shape[0]
        flat = ad.reshape(batch, (b, -1))
        sq = ad.mul(flat, flat)
        return ad.mul(ad.reduce_sum(sq, axis=1), scale)

    return run


def test_input_equal_to_baseline_gives_zero_attributions():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 8)))
    smap = integrated_gradients(quadratic_model(), x, baseline=Tensor(x.data.copy()), steps=16)
    np.testing.assert_array_equal(smap.attributions, np.zeros((2, 8)))


def test_linear_model_is_exact_for_any_step_count():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 5))
    x = Tensor(rng.normal(size=(3, 5)))
    for steps in (1, 2, 7):
        smap = integrated_gradients(linear_model(w), x, steps=steps)
        np.testing.assert_allclose(smap.attributions, w * x.data, atol=1e-12)
        assert smap.completeness_gap <= 1e-10


def cubic_model():
    """F(x) = sum(x^3): its gradient is curved, so quadrature error is real."""
    def run(batch):
        b = batch.shape[0]
        flat = ad.reshape(batch, (b, -1))
        cube = ad.mul(ad.mul(flat, flat), flat)
        return ad.reduce_sum(cube, axis=1)

    return run


def test_completeness_gap_shrinks_with_steps():
    rng = np.random.default_rng(2)
    gaps_small = []
    gaps_large = []
    for trial in range(20):
        x = Tensor(rng.normal(size=(1, 6)))
        model = cubic_model()
        gaps_small.append(integrated_gradients(model, x, steps=32).completeness_gap)
        gaps_large.append(integrated_gradients(model, x, steps=512).completeness_gap)
    assert np.mean(gaps_large) <= np.mean(gaps_small)
    assert all(b <= s + 1e-12 for s, b in zip(gaps_small, gaps_large))


def test_midpoint_rule_is_exact_for_quadratics():
    # the midpoint rule integrates the linear gradient of x^2 exactly
    x = Tensor(np.array([[2.0, -3.0]]))
    smap = integrated_gradients(quadratic_model(), x, steps=4)
    np.testing.assert_allclose(smap.attributions, x.data**2, atol=1e-12)


def test_scalar_target_picks_the_chosen_class():
    from enecg import tasks as tk
    from enecg.saliency import scalar_target
    logits = Tensor(np.arange(30.0).reshape(2, 15))
    out = scalar_target(tk.TASKS["arrhythmia"], logits, class_index=3)
    np.testing.assert_array_equal(out.data, [3.0, 18.0])
    with pytest.raises(UsageError):
        scalar_target(tk.TASKS["arrhythmia"], logits)
    reg = scalar_target(tk.TASKS["rr"], Tensor([[2.5], [1.5]]))
    np.testing.assert_array_equal(reg.data, [2.5, 1.5])


def test_scalar_target_rejects_a_class_index_it_cannot_use():
    from enecg import tasks as tk
    from enecg.saliency import scalar_target
    logits = Tensor(np.arange(30.0).reshape(2, 15))
    for bad in (-1, 15, 2.0, True):
        with pytest.raises(UsageError, match="class_index must be an integer in 0..14"):
            scalar_target(tk.TASKS["arrhythmia"], logits, class_index=bad)
    for name in ("rr", "sex"):
        with pytest.raises(UsageError, match="only to a multiclass task"):
            scalar_target(tk.TASKS[name], Tensor([[2.5], [1.5]]), class_index=0)


def test_deterministic_under_fixed_inputs():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 5)))
    model = quadratic_model()
    a = integrated_gradients(model, x, steps=32)
    b = integrated_gradients(model, x, steps=32)
    np.testing.assert_array_equal(a.attributions, b.attributions)
    assert a.completeness_gap == b.completeness_gap


def test_step_and_shape_validation():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(UsageError):
        integrated_gradients(quadratic_model(), x, steps=0)
    with pytest.raises(DimensionError):
        integrated_gradients(quadratic_model(), x, baseline=Tensor(np.zeros((2, 5))))


@pytest.mark.parametrize("steps", [2.5, np.float64(4.0), "8", True, False, np.int64(0)])
def test_steps_must_be_an_integer_of_at_least_one(steps):
    x = Tensor(np.ones((2, 4)))
    with pytest.raises(UsageError, match=re.escape(f"got {steps!r}")):
        integrated_gradients(quadratic_model(), x, steps=steps)


def test_input_minus_baseline_must_be_finite():
    # each value is finite, their difference is not
    x, base = Tensor(np.array([[1e308, 0.0]])), Tensor(np.array([[-1e308, 0.0]]))
    with np.errstate(over="ignore"):
        with pytest.raises(UsageError, match="needs finite views of the input and baseline"):
            integrated_gradients(linear_model(np.ones((1, 2))), x, baseline=base, steps=4)


def test_numpy_integer_steps_equal_int_steps():
    x = Tensor(np.array([[2.0, -3.0]]))
    a = integrated_gradients(cubic_model(), x, steps=np.int64(5))
    b = integrated_gradients(cubic_model(), x, steps=5)
    np.testing.assert_array_equal(a.attributions, b.attributions)
    assert type(a.steps) is int and a.steps == 5


def test_numpy_input_and_baseline_give_the_map_of_tensors():
    rng = np.random.default_rng(5)
    x, base = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    for baseline in (None, base):
        want = integrated_gradients(cubic_model(), Tensor(x), steps=8,
                                    baseline=None if baseline is None else Tensor(baseline))
        got = integrated_gradients(cubic_model(), x, baseline=baseline, steps=8)
        np.testing.assert_array_equal(got.attributions, want.attributions)
        assert (got.target_value, got.baseline_value, got.baseline) == (
            want.target_value, want.baseline_value, want.baseline)


def test_export_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    att = rng.normal(size=(4, 6))
    smap = SaliencyMap(att, "zeros", 32, 1.5e-4, 2.0, 0.0)
    csv_path = tmp_path / "map.csv"
    export_saliency(smap, csv_path)
    back = load_saliency_csv(csv_path)
    np.testing.assert_array_equal(back, att)
    with open(str(csv_path) + ".json") as fh:
        sidecar = fh.read()
    assert '"completeness_gap"' in sidecar and '"steps": 32' in sidecar
    n_lines = len(csv_path.read_text().splitlines())
    assert n_lines == 4 * 6 + 1


@pytest.mark.parametrize("body", ["", "0,1,nan-ish\n", "0,x,1.0\n", "-1,0,1.0\n"])
def test_malformed_saliency_csv_is_a_parse_error(tmp_path, body):
    csv_path = tmp_path / "map.csv"
    csv_path.write_text("lead,sample_index,attribution\n" + body)
    with pytest.raises(ParseError):
        load_saliency_csv(csv_path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_attribution_is_a_parse_error_naming_its_line(tmp_path, value):
    csv_path = tmp_path / "map.csv"
    csv_path.write_text(f"lead,sample_index,attribution\n0,0,1.0\n0,1,{value}\n")
    with pytest.raises(ParseError, match=rf"map\.csv:3: attribution '{value}' is not finite"):
        load_saliency_csv(csv_path)


@pytest.mark.parametrize("body, message", [
    # (0, 1) missing from the 2 x 2 grid
    ("0,0,1.0\n1,0,2.0\n1,1,3.0\n", r"map\.csv: 2 leads x 2 samples need 4 rows, found 3"),
    # a hand-edited map repeats (0, 1) on line 4
    ("0,0,1.0\n0,1,2.0\n0,1,3.0\n", r"map\.csv:4: repeated row for lead 0, sample_index 1"),
], ids=["missing row", "repeated row"])
def test_truncated_or_repeated_saliency_csv_is_a_parse_error(tmp_path, body, message):
    csv_path = tmp_path / "map.csv"
    csv_path.write_text("lead,sample_index,attribution\n" + body)
    with pytest.raises(ParseError, match=message):
        load_saliency_csv(csv_path)


# ---------------------------------------------------------------------------
# the ensemble's split model against the raw-space computation

# (task, expert_index, class_index): a combined regression logit, a combined
# class logit, and one expert's logit, which neither the gate nor the other
# experts' views feed
ENSEMBLE_TARGETS = [("rr", None, None), ("arrhythmia", None, 4), ("sex", 1, None)]


@pytest.fixture(scope="module")
def small_ensemble():
    """A briefly trained three-expert run on 500-sample records whose gate
    reads two leads, and one record with a nonzero baseline."""
    cfg = pl.ExperimentConfig(
        seed=4, n_records=40, epochs=2, batch_size=16, tasks=("rr", "sex", "arrhythmia"),
        experts=(pl.ExpertSpec("spec", "spectral", 1, 128, 16),
                 pl.ExpertSpec("conv", "convolutional", 2, 224, 16),
                 pl.ExpertSpec("stat", "statistical", 3, 128, 16)),
        head_hidden=16, head_rank=2, gate_leads=(1, 3), gate_pooled_len=50, gate_hidden=16,
        data=GeneratorConfig(duration_s=4.0, fs_hz=125.0),
    )
    trained = pl.train(cfg)
    record, _ = synthesize(replace(cfg.data, seed=9), 0)
    rng = np.random.default_rng(12)
    baseline = Tensor(0.2 * rng.normal(size=record.leads.shape))
    return trained, record, baseline


def target_model(trained, task_name, expert_index, class_index):
    task = tk.task_by_name(task_name)
    return ensemble_scalar_model(trained.experts, trained.tasks[task_name], task,
                                 expert_index=expert_index, class_index=class_index)


def relative(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def single_tape_ig(model, x, baseline, steps):
    """Reference: every raw interpolation point through the model on one tape."""
    diff = x.data - baseline.data
    alphas = (np.arange(steps) + 0.5) / steps
    probe = Tensor(baseline.data[None] + alphas.reshape((-1,) + (1,) * x.data.ndim) * diff[None],
                   requires_grad=True)
    with Tape() as tape:
        backward(ad.reduce_sum(model(probe)), tape)
    return diff * probe.grad.mean(axis=0)


# a chunk of 32 points, patched in: the step counts straddle its bounds and
# 100 steps take four tapes, at a quarter of the module's chunk
SMALL_CHUNK = 32


@pytest.mark.parametrize("steps", [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 100])
@pytest.mark.parametrize("task_name, expert_index, class_index", ENSEMBLE_TARGETS)
def test_chunked_map_agrees_with_a_single_tape(small_ensemble, monkeypatch, steps, task_name,
                                               expert_index, class_index):
    monkeypatch.setattr(saliency, "IG_CHUNK", SMALL_CHUNK)
    trained, record, baseline = small_ensemble
    model = target_model(trained, task_name, expert_index, class_index)
    ref = single_tape_ig(model, record.leads, baseline, steps)
    smap = integrated_gradients(model, record.leads, baseline=baseline, steps=steps)
    assert relative(smap.attributions, ref) <= 1e-12


@pytest.mark.parametrize("task_name, expert_index, class_index", ENSEMBLE_TARGETS)
def test_map_one_point_past_the_module_chunk_agrees_with_a_single_tape(
        small_ensemble, task_name, expert_index, class_index):
    steps = IG_CHUNK + 1
    trained, record, baseline = small_ensemble
    model = target_model(trained, task_name, expert_index, class_index)
    ref = single_tape_ig(model, record.leads, baseline, steps)
    smap = integrated_gradients(model, record.leads, baseline=baseline, steps=steps)
    assert relative(smap.attributions, ref) <= 1e-12


@pytest.mark.parametrize("task_name, expert_index, class_index", ENSEMBLE_TARGETS)
def test_line_points_give_the_map_of_plain_points(small_ensemble, monkeypatch, task_name,
                                                  expert_index, class_index):
    # plain points: the same values through add, whose backward also sums
    # into the base, but which patch_stats differentiates point by point
    trained, record, baseline = small_ensemble
    model = target_model(trained, task_name, expert_index, class_index)
    steps = 2 * IG_CHUNK + 5
    fast = integrated_gradients(model, record.leads, baseline=baseline, steps=steps)
    monkeypatch.setattr(ad, "line", lambda base, d, alphas: ad.add(
        base, Tensor(np.reshape(alphas, (-1,) + (1,) * (d.ndim - 1)) * d)))
    plain = integrated_gradients(model, record.leads, baseline=baseline, steps=steps)
    assert relative(fast.attributions, plain.attributions) <= 1e-12
    assert fast.target_value == plain.target_value
    assert fast.baseline_value == plain.baseline_value


@pytest.mark.parametrize("task_name, expert_index, class_index", ENSEMBLE_TARGETS)
def test_endpoint_values_equal_forward_enecg(small_ensemble, task_name, expert_index,
                                             class_index):
    trained, record, baseline = small_ensemble
    model = target_model(trained, task_name, expert_index, class_index)
    smap = integrated_gradients(model, record.leads, baseline=baseline, steps=3)
    pick = 0 if class_index is None else class_index
    for value, leads in ((smap.target_value, record.leads), (smap.baseline_value, baseline)):
        [out] = pl.forward_enecg([EcgRecord(leads, record.sampling_rate_hz, "r")],
                                 trained.experts, trained.tasks[task_name])
        logits = out.combined if expert_index is None else out.expert_logits[expert_index]
        assert np.array_equal(value, logits[pick])


def test_expert_index_must_be_an_integer_naming_an_expert(small_ensemble):
    trained, record, _ = small_ensemble
    for bad in (True, False, 1.7, np.float64(1.0), "1", -1, 3, np.int64(3)):
        with pytest.raises(UsageError, match=re.escape(
                f"expert_index must be an integer in 0..2, got {bad!r}")):
            target_model(trained, "rr", bad, None)
    points = Tensor(np.repeat(record.leads.data[None], 2, axis=0))
    assert np.array_equal(target_model(trained, "rr", np.int64(1), None)(points).data,
                          target_model(trained, "rr", 1, None)(points).data)


def test_ensemble_map_never_forms_the_record_line(small_ensemble, monkeypatch):
    # downsampling and the gate input carry each chunk's line over the raw
    # record, and the experts read their lines without forming points
    trained, record, baseline = small_ensemble
    model = target_model(trained, "rr", None, None)
    blocks, views = [], []
    real = pl.expert_forward

    def seen(m, x):
        views.append((m.arch, x))
        return real(m, x)

    def recorded(block):
        blocks.append(block)
        return model(block)

    monkeypatch.setattr(pl, "expert_forward", seen)
    integrated_gradients(recorded, record.leads, baseline=baseline, steps=2 * IG_CHUNK + 5)
    lines = [b for b in blocks if isinstance(b, ad._Line)]
    assert [b.shape[0] for b in lines] == [IG_CHUNK, IG_CHUNK, 5] and len(blocks) == 5
    assert all(b._points is None for b in lines)
    # each chunk's view of each expert: none forms its points, the
    # statistical one included (patch_stats reads them one lead row at a time)
    lined = [(arch, x) for arch, x in views if isinstance(x, ad._Line)]
    assert sorted(arch for arch, _ in lined) == 3 * ["convolutional"] + 3 * ["spectral"] + 3 * ["statistical"]
    assert all(x._points is None for _, x in lined)


def test_ensemble_map_peaks_below_one_raw_probe():
    # bound: one probe of all 256 raw points of a (12, 5000) record, 123 MB,
    # the size of every intermediate of a map computed in raw sample space
    cfg = pl.ExperimentConfig(seed=1)
    experts = pl.build_experts(cfg)
    task = tk.TASKS["rr"]
    model = ensemble_scalar_model(experts, pl.build_task_model(cfg, experts, task, seed=1), task)
    record, _ = synthesize(cfg.data, 0)
    assert record.leads.shape == (12, 5000)
    tracemalloc.start()
    try:
        integrated_gradients(model, record.leads, steps=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 12 * 5000 * 8

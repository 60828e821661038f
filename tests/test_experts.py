"""Frozen-expert determinism, shapes, heterog/spectral behavior, gradients."""

import numpy as np
import pytest

from enecg.autodiff import Tensor, Tape, backward, reduce_sum
from enecg.errors import DimensionError, UsageError
from enecg.experts import ARCHITECTURES, build_expert, expert_forward
from enecg.optim import finite_diff_grad

SMALL = {"spectral": 64, "convolutional": 224, "statistical": 64}


def small_expert(arch, seed=0, n_leads=2, feature_dim=8):
    return build_expert(arch, seed, required_input_len=SMALL[arch],
                        feature_dim=feature_dim, n_leads=n_leads)


def test_same_tag_and_seed_builds_identical_parameters():
    for arch in ARCHITECTURES:
        a = build_expert(arch, seed=42)
        b = build_expert(arch, seed=42)
        assert a.checksum() == b.checksum()
        c = build_expert(arch, seed=43)
        assert a.checksum() != c.checksum()


def test_forward_output_length_is_feature_dim():
    rng = np.random.default_rng(0)
    for arch in ARCHITECTURES:
        m = build_expert(arch, seed=1, feature_dim=64)
        x = Tensor(rng.normal(size=(1, 12, m.required_input_len)))
        out = expert_forward(m, x)
        assert out.shape == (1, 64)


def test_default_input_lengths_are_distinct():
    lengths = {build_expert(a, 0).required_input_len for a in ARCHITECTURES}
    assert lengths == {512, 1000, 2500}


def test_spectral_expert_separates_frequencies():
    m = build_expert("spectral", seed=2, required_input_len=256, n_leads=1, feature_dim=16)
    t = np.arange(256)
    lo = Tensor(np.sin(2 * np.pi * 5 * t / 256)[None, None, :])
    hi = Tensor(np.sin(2 * np.pi * 20 * t / 256)[None, None, :])
    d = expert_forward(m, lo).data - expert_forward(m, hi).data
    assert np.linalg.norm(d) > 0


def test_zero_input_through_spectral_gives_bias():
    m = small_expert("spectral")
    out = expert_forward(m, Tensor(np.zeros((1, 2, 64))))
    np.testing.assert_array_equal(out.data[0], m.params["b"].data)


def test_forward_is_deterministic_and_pure():
    rng = np.random.default_rng(3)
    for arch in ARCHITECTURES:
        m = small_expert(arch)
        x = Tensor(rng.normal(size=(1, 2, m.required_input_len)))
        before = m.checksum()
        first = expert_forward(m, x).data
        second = expert_forward(m, x).data
        assert np.array_equal(first, second)
        assert m.checksum() == before


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(4)
    for arch in ARCHITECTURES:
        m = small_expert(arch)
        xs = rng.normal(size=(3, 2, m.required_input_len))
        batched = expert_forward(m, Tensor(xs)).data
        for i in range(3):
            single = expert_forward(m, Tensor(xs[i:i + 1])).data
            np.testing.assert_allclose(batched[i:i + 1], single, rtol=1e-12, atol=0)


def test_wrong_input_length_names_expected():
    m = small_expert("spectral")
    with pytest.raises(DimensionError, match="64"):
        expert_forward(m, Tensor(np.zeros((1, 2, 65))))


def test_single_record_input_is_dimension_error():
    m = small_expert("spectral")
    with pytest.raises(DimensionError, match=r"\(B,C,L\)"):
        expert_forward(m, Tensor(np.zeros((2, 64))))


def test_unknown_architecture_rejected():
    with pytest.raises(UsageError):
        build_expert("transformer", seed=0)


def draw_away_from_ties(rng, shape, window, min_gap=1e-3):
    """Random input whose pooling patches have no near-tied values, so the
    finite-difference probe stays away from max/min kinks."""
    while True:
        x = rng.normal(size=shape)
        patches = x[..., : (shape[-1] // window) * window].reshape(shape[0], -1, window)
        gaps = np.abs(np.sort(patches, axis=-1)[..., 1:] - np.sort(patches, axis=-1)[..., :-1])
        if window == 1 or gaps.min() > min_gap:
            return x


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for arch in ARCHITECTURES:
        m = small_expert(arch)
        probe = Tensor(rng.normal(size=(m.feature_dim,)))
        window = m.required_input_len // 32 if arch == "statistical" else 1
        x = Tensor(draw_away_from_ties(rng, (2, m.required_input_len), window)[None],
                   requires_grad=True)

        def scalar(t):
            return reduce_sum(expert_forward(m, t) * probe)

        with Tape() as tape:
            backward(scalar(x), tape)
        analytic = x.grad.copy()
        x.requires_grad = False
        numeric = finite_diff_grad(lambda t: scalar(t).item(), x, h=1e-5).data
        denom = np.maximum(np.abs(numeric), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < 1e-5, f"{arch}: max rel err {rel.max():.2e}"


def test_expert_contributes_no_trainable_parameters():
    for arch in ARCHITECTURES:
        m = small_expert(arch)
        assert all(not p.requires_grad for p in m.params.values())

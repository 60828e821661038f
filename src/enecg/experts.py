"""Frozen surrogate "foundation models": heterogeneous feature extractors.

Three architectures with deliberately different views of the signal:

* ``spectral``: per-lead DFT magnitudes, blind to timing/phase
* ``convolutional``: random conv filters + ReLU over two stages, sees
  local morphology and coarse temporal layout
* ``statistical``: per-patch mean/std/min/max, sees amplitude regimes
  and beat placement but no waveform shape

All parameters are drawn once from the build seed and never trained; the
forward pass is differentiable w.r.t. its input so saliency can attribute
through it. Each architecture declares its own required input length so
the per-expert downsampling path is real work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, UsageError

ARCHITECTURES = ("spectral", "convolutional", "statistical")

DEFAULT_INPUT_LEN = {"spectral": 512, "convolutional": 1000, "statistical": 2500}

SPECTRAL_BINS = 64
CONV_CHANNELS = 12
CONV_WIDTHS = (16, 8)
CONV_STRIDES = (4, 4)
CONV_POOL_COUNT = 12
STAT_PATCHES = 32


@dataclass
class ExpertModel:
    """A frozen feature extractor with a declared input length."""
    name: str
    arch: str
    required_input_len: int
    feature_dim: int
    n_leads: int
    params: dict[str, Tensor] = field(repr=False)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self.params):
            digest.update(key.encode())
            digest.update(self.params[key].data.tobytes())
        return digest.hexdigest()


def _frozen(rng: np.random.Generator, shape, scale: float) -> Tensor:
    t = Tensor(rng.normal(0.0, scale, size=shape))
    t.requires_grad = False
    return t


def _conv_out_len(length: int) -> tuple[int, int]:
    t1 = (length - CONV_WIDTHS[0]) // CONV_STRIDES[0] + 1
    t2 = (t1 - CONV_WIDTHS[1]) // CONV_STRIDES[1] + 1
    return t1, t2


def build_expert(arch: str, seed: int, required_input_len: int | None = None,
                 feature_dim: int = 64, n_leads: int = 12, name: str | None = None) -> ExpertModel:
    if arch not in ARCHITECTURES:
        raise UsageError(f"unknown expert architecture {arch!r}; expected one of {ARCHITECTURES}")
    length = DEFAULT_INPUT_LEN[arch] if required_input_len is None else int(required_input_len)
    rng = np.random.default_rng(np.random.SeedSequence((seed, ARCHITECTURES.index(arch))))
    params: dict[str, Tensor] = {}

    if arch == "spectral":
        if length < SPECTRAL_BINS:
            raise UsageError(f"spectral expert needs input length >= {SPECTRAL_BINS}, got {length}")
        in_dim = n_leads * SPECTRAL_BINS
    elif arch == "convolutional":
        t1, t2 = _conv_out_len(length)
        if t2 < CONV_POOL_COUNT:
            t1_min = (CONV_POOL_COUNT - 1) * CONV_STRIDES[1] + CONV_WIDTHS[1]
            len_min = (t1_min - 1) * CONV_STRIDES[0] + CONV_WIDTHS[0]
            raise UsageError(f"convolutional expert needs input length >= {len_min}, got {length}")
        params["k1"] = _frozen(rng, (CONV_CHANNELS, n_leads, CONV_WIDTHS[0]),
                               1.0 / np.sqrt(n_leads * CONV_WIDTHS[0]))
        params["k2"] = _frozen(rng, (CONV_CHANNELS, CONV_CHANNELS, CONV_WIDTHS[1]),
                               1.0 / np.sqrt(CONV_CHANNELS * CONV_WIDTHS[1]))
        in_dim = CONV_CHANNELS * CONV_POOL_COUNT
    else:  # statistical
        if length < STAT_PATCHES:
            raise UsageError(f"statistical expert needs input length >= {STAT_PATCHES}, got {length}")
        in_dim = n_leads * STAT_PATCHES * 4
    # every architecture ends in one frozen projection to the feature width
    params["w"] = _frozen(rng, (in_dim, feature_dim), 1.0 / np.sqrt(in_dim))
    params["b"] = _frozen(rng, (feature_dim,), 0.05)

    return ExpertModel(
        name=name or f"{arch}-{seed}",
        arch=arch,
        required_input_len=length,
        feature_dim=feature_dim,
        n_leads=n_leads,
        params=params,
    )


def expert_forward(model: ExpertModel, x: Tensor) -> Tensor:
    """Features of a (B,C,L) batch."""
    if x.data.ndim != 3:
        raise DimensionError(f"expert input must be (B,C,L), got shape {x.shape}")
    n, c, length = x.shape
    if length != model.required_input_len:
        raise DimensionError(
            f"expert {model.name!r} requires input length {model.required_input_len}, got {length}")
    if c != model.n_leads:
        raise DimensionError(f"expert {model.name!r} expects {model.n_leads} leads, got {c}")
    p = model.params

    if model.arch == "spectral":
        mags = ad.dft_magnitude(x, SPECTRAL_BINS)
        flat = ad.reshape(mags, (n, c * SPECTRAL_BINS))
    elif model.arch == "convolutional":
        h1 = ad.relu(ad.conv1d(x, p["k1"], stride=CONV_STRIDES[0]))
        h2 = ad.relu(ad.conv1d(h1, p["k2"], stride=CONV_STRIDES[1]))
        t2 = h2.shape[-1]
        pooled = ad.mean_pool(h2, t2 // CONV_POOL_COUNT, count=CONV_POOL_COUNT)
        flat = ad.reshape(pooled, (n, CONV_CHANNELS * CONV_POOL_COUNT))
    else:
        window = length // STAT_PATCHES
        mean = ad.mean_pool(x, window, count=STAT_PATCHES)
        ex2 = ad.mean_pool(ad.mul(x, x), window, count=STAT_PATCHES)
        var = ad.relu(ad.sub(ex2, ad.mul(mean, mean)))
        std = ad.sqrt(ad.add(var, 1e-12))
        mx = ad.max_pool(x, window, count=STAT_PATCHES)
        mn = ad.neg(ad.max_pool(ad.neg(x), window, count=STAT_PATCHES))
        stats = ad.concat([mean, std, mx, mn], axis=-1)
        flat = ad.reshape(stats, (n, c * STAT_PATCHES * 4))
    return ad.add(ad.matmul(flat, p["w"]), p["b"])

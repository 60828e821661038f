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

Each architecture's front is a few tape nodes with analytic backwards:
the spectral magnitudes are one FFT (``dft_magnitude``), each conv stage
is one GEMM over an im2col copy (``conv1d``), and the four patch
statistics are one ``patch_stats`` node over a single view of the input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

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

# shortest input each architecture accepts: one sample per spectral bin or
# statistics patch, and CONV_POOL_COUNT steps out of the second conv stage
MIN_INPUT_LEN = {
    "spectral": SPECTRAL_BINS,
    "convolutional": ((CONV_POOL_COUNT - 1) * CONV_STRIDES[1] + CONV_WIDTHS[1] - 1) * CONV_STRIDES[0]
                     + CONV_WIDTHS[0],
    "statistical": STAT_PATCHES,
}


@dataclass(frozen=True)
class ExpertModel:
    """A frozen feature extractor with a declared input length. Its fields,
    its parameter mapping and its parameter arrays are all read-only, so an
    expert object's identity fixes the features it computes."""
    name: str
    arch: str
    required_input_len: int
    feature_dim: int
    n_leads: int
    params: Mapping[str, Tensor] = field(repr=False)

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self.params):
            digest.update(key.encode())
            digest.update(self.params[key].data.tobytes())
        return digest.hexdigest()


def _frozen(rng: np.random.Generator, shape, scale: float) -> Tensor:
    t = Tensor(rng.normal(0.0, scale, size=shape))
    t.data.flags.writeable = False
    return t


def build_expert(arch: str, seed: int, required_input_len: int | None = None,
                 feature_dim: int = 64, n_leads: int = 12, name: str | None = None) -> ExpertModel:
    if arch not in ARCHITECTURES:
        raise UsageError(f"unknown expert architecture {arch!r}; expected one of {ARCHITECTURES}")
    length = DEFAULT_INPUT_LEN[arch] if required_input_len is None else int(required_input_len)
    if length < MIN_INPUT_LEN[arch]:
        raise UsageError(f"{arch} expert needs input length >= {MIN_INPUT_LEN[arch]}, got {length}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, ARCHITECTURES.index(arch))))
    params: dict[str, Tensor] = {}

    if arch == "spectral":
        in_dim = n_leads * SPECTRAL_BINS
    elif arch == "convolutional":
        params["k1"] = _frozen(rng, (CONV_CHANNELS, n_leads, CONV_WIDTHS[0]),
                               1.0 / np.sqrt(n_leads * CONV_WIDTHS[0]))
        params["k2"] = _frozen(rng, (CONV_CHANNELS, CONV_CHANNELS, CONV_WIDTHS[1]),
                               1.0 / np.sqrt(CONV_CHANNELS * CONV_WIDTHS[1]))
        in_dim = CONV_CHANNELS * CONV_POOL_COUNT
    else:  # statistical
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
        params=MappingProxyType(params),
    )


def expert_forward(model: ExpertModel, x: Tensor) -> Tensor:
    """Features of a (B,C,L) batch."""
    if len(x.shape) != 3:
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
        stats = ad.patch_stats(x, length // STAT_PATCHES, count=STAT_PATCHES)
        flat = ad.reshape(stats, (n, c * STAT_PATCHES * 4))
    return ad.add(ad.matmul(flat, p["w"]), p["b"])

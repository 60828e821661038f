"""Per-expert, per-task output heads adapted through low-rank factors.

Each layer holds a frozen base weight ``w0`` (d x k) plus trainable factors
``lora_a`` (r x k) and ``lora_b`` (d x r). The forward pass computes
``w0 @ x + lora_b @ (lora_a @ x) + bias`` without ever materializing the
dense rank-r update, so the per-sample cost is O(dk + r(d+k)). ``lora_b``
starts at zero, which makes the adapted layer exactly equal to the frozen
base at initialization.

A config switch unfreezes ``w0`` instead (full fine-tune ablation); the
factors then stay at their zero-contribution init and are not trained.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, ParseError, UsageError


class LoraLinear:
    """Frozen d x k base weight with a trainable rank-r update and bias."""

    def __init__(self, d: int, k: int, rank: int, rng: np.random.Generator,
                 train_bias: bool = True, lora_only: bool = True):
        if rank < 1 or rank > min(d, k):
            raise UsageError(f"rank must lie in [1, min(d,k)={min(d, k)}], got {rank}")
        self.d, self.k, self.rank = d, k, rank
        self.lora_only = bool(lora_only)
        self.train_bias = bool(train_bias)
        self.w0 = Tensor(rng.normal(0.0, 1.0 / np.sqrt(k), size=(d, k)))
        self.w0.requires_grad = not self.lora_only
        limit = 1.0 / np.sqrt(k)
        self.lora_a = Tensor(rng.uniform(-limit, limit, size=(rank, k)),
                             requires_grad=self.lora_only)
        self.lora_b = Tensor(np.zeros((d, rank)), requires_grad=self.lora_only)
        self.bias = Tensor(np.zeros(d), requires_grad=self.train_bias)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.k:
            raise DimensionError(f"lora layer expects input width {self.k}, got shape {x.shape}")
        base = ad.matmul(x, ad.transpose(self.w0))
        low = ad.matmul(ad.matmul(x, ad.transpose(self.lora_a)), ad.transpose(self.lora_b))
        return ad.add(ad.add(base, low), self.bias)

    def trainable(self) -> list[Tensor]:
        params = []
        if self.lora_only:
            params += [self.lora_a, self.lora_b]
        else:
            params.append(self.w0)
        if self.train_bias:
            params.append(self.bias)
        return params

    def trainable_count(self) -> int:
        return sum(p.data.size for p in self.trainable())

    def tensors(self) -> dict[str, Tensor]:
        return {"w0": self.w0, "bias": self.bias, "lora_a": self.lora_a, "lora_b": self.lora_b}


@dataclass
class LoraHead:
    """One or two LoRA-adapted linear layers with ReLU between."""
    layers: list[LoraLinear]
    output_dim: int
    in_dim: int = field(init=False)

    def __post_init__(self):
        if not 1 <= len(self.layers) <= 2:
            raise UsageError(f"head depth must be 1 or 2, got {len(self.layers)}")
        self.in_dim = self.layers[0].k
        if self.layers[-1].d != self.output_dim:
            raise UsageError("last layer width does not match the head's output dim")


def build_head(in_dim: int, out_dim: int, rng: np.random.Generator, hidden_dim: int = 64,
               rank: int = 4, depth: int = 2, train_bias: bool = True,
               lora_only: bool = True) -> LoraHead:
    if depth == 1:
        layers = [LoraLinear(out_dim, in_dim, rank, rng, train_bias, lora_only)]
    elif depth == 2:
        layers = [LoraLinear(hidden_dim, in_dim, rank, rng, train_bias, lora_only),
                  LoraLinear(out_dim, hidden_dim, min(rank, out_dim), rng, train_bias, lora_only)]
    else:
        raise UsageError(f"head depth must be 1 or 2, got {depth}")
    return LoraHead(layers=layers, output_dim=out_dim)


def head_forward(head: LoraHead, features: Tensor) -> Tensor:
    """Task logits for (k,) features or a (B,k) batch."""
    h = features
    for i, layer in enumerate(head.layers):
        h = layer.forward(h)
        if i + 1 < len(head.layers):
            h = ad.relu(h)
    return h


def trainable_params(head: LoraHead) -> list[Tensor]:
    """Exactly the low-rank factors (plus biases if enabled); never w0 in
    LoRA mode, never expert parameters."""
    out: list[Tensor] = []
    for layer in head.layers:
        out.extend(layer.trainable())
    return out


def head_checksum(head: LoraHead) -> str:
    """Digest of the frozen base weights only."""
    digest = hashlib.sha256()
    for layer in head.layers:
        digest.update(layer.w0.data.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# checkpoint container: versioned header, named tensors as decimal text
#
#   ENECGCKPT1 <n_entries>
#   scalar <name> <value>
#   tensor <name> <d0>x<d1>x...
#   <row-major floats, comma separated>

_CKPT_MAGIC = "ENECGCKPT1"


def write_tensors(path, tensors: dict[str, Tensor], scalars: dict[str, float]) -> None:
    with open(path, "w") as fh:
        fh.write(f"{_CKPT_MAGIC} {len(tensors) + len(scalars)}\n")
        for name in sorted(scalars):
            fh.write(f"scalar {name} {scalars[name]!r}\n")
        for name in sorted(tensors):
            data = tensors[name].data
            dims = "x".join(str(s) for s in data.shape) or "0"
            fh.write(f"tensor {name} {dims}\n")
            fh.write(",".join(repr(float(v)) for v in data.reshape(-1)))
            fh.write("\n")


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_CKPT_MAGIC):
        raise ParseError(f"{path}:1: not a {_CKPT_MAGIC} checkpoint")
    try:
        n_entries = int(lines[0].split()[1])
    except (IndexError, ValueError) as e:
        raise ParseError(f"{path}:1: malformed checkpoint header") from e
    tensors: dict[str, np.ndarray] = {}
    scalars: dict[str, float] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        fields = lines[i].split()
        if fields[0] == "scalar" and len(fields) == 3:
            try:
                scalars[fields[1]] = float(fields[2])
            except ValueError as e:
                raise ParseError(f"{path}:{i + 1}: scalar {fields[1]} is not a number: "
                                 f"{fields[2]!r}") from e
            i += 1
        elif fields[0] == "tensor" and len(fields) == 3:
            dims = fields[2].split("x")
            if not all(d.isdecimal() for d in dims):
                raise ParseError(f"{path}:{i + 1}: tensor {fields[1]} has a malformed shape "
                                 f"{fields[2]!r}")
            shape = tuple(int(d) for d in dims) if fields[2] != "0" else ()
            if i + 1 >= len(lines):
                raise ParseError(f"{path}:{i + 1}: tensor {fields[1]} has no data line")
            try:
                flat = np.array(lines[i + 1].split(","), dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"{path}:{i + 2}: unreadable float in tensor {fields[1]}") from e
            expected = int(np.prod(shape)) if shape else 1
            if flat.size != expected:
                raise ParseError(f"{path}:{i + 2}: tensor {fields[1]} expects {expected} values, "
                                 f"found {flat.size}")
            tensors[fields[1]] = flat.reshape(shape)
            i += 2
        else:
            raise ParseError(f"{path}:{i + 1}: expected 'scalar' or 'tensor' entry")
    if len(tensors) + len(scalars) != n_entries:
        raise ParseError(f"{path}: header declares {n_entries} entries, "
                         f"found {len(tensors) + len(scalars)}")
    return tensors, scalars


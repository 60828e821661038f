"""Per-expert, per-task output heads adapted through low-rank factors.

Each layer holds a frozen base weight ``w0`` (d x k) plus trainable factors
``lora_a`` (r x k) and ``lora_b`` (d x r). The forward pass is one
``lora_linear`` node computing ``w0 @ x + lora_b @ (lora_a @ x) + bias``
without ever materializing the dense rank-r update, so the per-sample cost
is O(dk + r(d+k)). ``lora_b`` starts at zero, which makes the adapted layer
exactly equal to the frozen base at initialization.

A head is two such layers with ReLU between. ``lora_only=False`` (the
sample-aware baseline's gate) trains ``w0`` instead and freezes the factors.

A task model's expert heads live in a ``HeadStack``: heads of equal shape
(in practice, experts of equal feature width) share one head whose tensors
carry a leading expert axis, so each of its layers is one batched node.
Training stacks the equally shaped heads of several tasks once more, on a
leading task axis (``stack_views``); each task's tensors are views of the
stacked ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, ParseError, UsageError, read_lines


class LoraLinear:
    """Frozen d x k base weight with a trainable rank-r update and bias; a
    stacked layer's four tensors carry one more, leading, expert axis."""

    def __init__(self, d: int, k: int, rank: int, rng: np.random.Generator,
                 train_bias: bool = True, lora_only: bool = True):
        if rank < 1 or rank > min(d, k):
            raise UsageError(f"rank must lie in [1, min(d,k)={min(d, k)}], got {rank}")
        self.w0 = Tensor(rng.normal(0.0, 1.0 / np.sqrt(k), size=(d, k)),
                         requires_grad=not lora_only)
        limit = 1.0 / np.sqrt(k)
        self.lora_a = Tensor(rng.uniform(-limit, limit, size=(rank, k)), requires_grad=lora_only)
        self.lora_b = Tensor(np.zeros((d, rank)), requires_grad=lora_only)
        self.bias = Tensor(np.zeros(d), requires_grad=train_bias)

    @classmethod
    def of(cls, w0: Tensor, bias: Tensor, lora_a: Tensor, lora_b: Tensor) -> "LoraLinear":
        """A layer over existing tensors, keyed as in ``tensors()``."""
        layer = cls.__new__(cls)
        layer.w0, layer.bias, layer.lora_a, layer.lora_b = w0, bias, lora_a, lora_b
        return layer

    @property
    def d(self) -> int:
        return self.w0.shape[-2]

    @property
    def k(self) -> int:
        return self.w0.shape[-1]

    def forward(self, x: Tensor, xw0: np.ndarray | None = None, relu: bool = False) -> Tensor:
        """The layer on ``x``, then a ReLU if ``relu``; ``xw0``, if given, is
        ``x @ w0.T`` already formed."""
        if x.shape[-1:] != (self.k,):
            raise DimensionError(f"lora layer expects input width {self.k}, got shape {x.shape}")
        return ad.lora_linear(x, self.w0, self.lora_a, self.lora_b, self.bias, xw0, relu)

    def trainable(self) -> list[Tensor]:
        return [t for t in (self.lora_a, self.lora_b, self.w0, self.bias) if t.requires_grad]

    def trainable_count(self) -> int:
        return sum(p.data.size for p in self.trainable())

    def tensors(self) -> dict[str, Tensor]:
        return {"w0": self.w0, "bias": self.bias, "lora_a": self.lora_a, "lora_b": self.lora_b}


@dataclass
class LoraHead:
    """Two LoRA-adapted linear layers with ReLU between; its widths are
    those of its layers."""
    layers: list[LoraLinear]

    @property
    def in_dim(self) -> int:
        return self.layers[0].k

    @property
    def output_dim(self) -> int:
        return self.layers[-1].d


def build_head(in_dim: int, out_dim: int, rng: np.random.Generator, hidden_dim: int = 64,
               rank: int = 4, train_bias: bool = True) -> LoraHead:
    return LoraHead(layers=[LoraLinear(hidden_dim, in_dim, rank, rng, train_bias),
                            LoraLinear(out_dim, hidden_dim, min(rank, out_dim), rng, train_bias)])


def head_forward(head: LoraHead, features: Tensor, xw0: np.ndarray | None = None) -> Tensor:
    """Task logits for (k,) features or a (B,k) batch; a stacked head maps
    (N,B,k) to (N,B,L). ``xw0``, if given, is the first layer's ``x @ w0.T``."""
    h = features
    for i, layer in enumerate(head.layers):
        # the ReLU between the layers is the hidden layer's node's own
        h = layer.forward(h, xw0 if i == 0 else None, relu=i + 1 < len(head.layers))
    return h


@dataclass
class HeadStack:
    """The expert heads of a task model, stored stacked: each group is one
    head over the experts in its ``members`` (roster positions, ascending)
    whose tensors carry a leading expert axis."""
    groups: list[LoraHead]
    members: list[list[int]]

    def __len__(self) -> int:
        return sum(len(m) for m in self.members)

    def heads(self) -> list[LoraHead]:
        """One head per expert in roster order, viewing the stacked tensors:
        a write to a view's data is a write to the stack."""
        views: dict[int, LoraHead] = {}
        for group, members in zip(self.groups, self.members):
            for j, i in enumerate(members):
                views[i] = LoraHead([LoraLinear.of(**{key: ad._make(t.data[j], t.requires_grad)
                                                      for key, t in layer.tensors().items()})
                                     for layer in group.layers])
        return [views[i] for i in range(len(self))]

    def group_inputs(self, features: list[Tensor]) -> list[Tensor]:
        """Each group's (n,B,k) input from per-expert (B,k) features."""
        return [ad.stack([features[i] for i in m]) for m in self.members]


def head_shapes(head: LoraHead) -> tuple:
    """The shapes of a head's tensors, layer by layer: heads stack when they agree."""
    return tuple(t.shape for layer in head.layers for t in layer.tensors().values())


def stack_views(heads: list[LoraHead]) -> list[LoraLinear]:
    """The layers of equally shaped heads, stacked on a new leading axis.
    Each head's tensors become views of the stacked ones, so a write to
    either (an Adam step, a best-epoch restore) is a write to both. The
    matrices are stored transposed, the layout ``lora_linear`` multiplies
    by, so it reads them without a copy."""
    layers = []
    for j, first in enumerate(heads[0].layers):
        stacked = {}
        for key, t in first.tensors().items():
            parts = [h.layers[j].tensors()[key].data for h in heads]
            # np.array, not np.stack, which would keep each part's memory order
            data = (np.stack(parts) if key == "bias"
                    else np.array([p.swapaxes(-1, -2) for p in parts]).swapaxes(-1, -2))
            stacked[key] = ad._make(data, t.requires_grad)
        for i, head in enumerate(heads):
            for key, t in stacked.items():
                setattr(head.layers[j], key, ad._make(t.data[i], t.requires_grad))
        layers.append(LoraLinear.of(**stacked))
    return layers


def stack_heads(heads: list[LoraHead]) -> HeadStack:
    """Group heads whose tensors have equal shapes (a roster that mixes
    feature widths gives one group per width) and stack each group."""
    members: dict[tuple, list[int]] = {}
    for i, head in enumerate(heads):
        members.setdefault(head_shapes(head), []).append(i)
    groups = [LoraHead(stack_views([heads[i] for i in m])) for m in members.values()]
    return HeadStack(groups, list(members.values()))


def stack_forward(stack: HeadStack, inputs: list[Tensor], xw0s=None) -> Tensor:
    """(B, N, L) logits of all N expert heads from each group's (n,B,k)
    input; a stack with a leading task axis maps (T,n,B,k) to (T,B,N,L).
    ``xw0s``, if given, holds each group's first-layer ``x @ w0.T``."""
    # expert axis next to last before the groups are joined, so each
    # expert's gradient arrives as a (B,L) view of a (B,N,L) array, as from
    # a per-head loop stacked on axis 1
    outs = []
    for group, x, xw0 in zip(stack.groups, inputs, xw0s or [None] * len(inputs)):
        logits = head_forward(group, x, xw0)
        nd = len(logits.shape)
        outs.append(ad.transpose(logits, (*range(nd - 3), nd - 2, nd - 3, nd - 1)))
    logits = outs[0] if len(outs) == 1 else ad.concat(outs, axis=-2)
    order = [i for m in stack.members for i in m]
    if order != sorted(order):  # groups interleave on the roster
        logits = ad.take_rows(logits, np.argsort(order), axis=-2)
    return logits


def trainable_params(head: LoraHead) -> list[Tensor]:
    """The layers' tensors that require gradients: for a ``build_head`` head
    the low-rank factors (plus biases if enabled), never w0."""
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
    lines = read_lines(path)
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
            # under ten digits: no stored tensor has a billion-long axis
            if not all(d.isdecimal() and len(d) < 10 for d in dims):
                raise ParseError(f"{path}:{i + 1}: tensor {fields[1]} has a malformed shape "
                                 f"{fields[2]!r}")
            shape = tuple(int(d) for d in dims) if fields[2] != "0" else ()
            if i + 1 >= len(lines):
                raise ParseError(f"{path}:{i + 1}: tensor {fields[1]} has no data line")
            try:
                flat = np.array(lines[i + 1].split(","), dtype=np.float64)
            except ValueError as e:
                raise ParseError(f"{path}:{i + 2}: unreadable float in tensor {fields[1]}") from e
            expected = math.prod(shape)
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


"""Reverse-mode automatic differentiation over a fixed primitive set.

Tensors wrap 64-bit numpy arrays. While a Tape is active, every primitive
whose inputs require gradients records itself onto it (define-by-run; the
tape is rebuilt each forward pass). ``backward`` replays the tape in
reverse and accumulates gradients (+=) into the leaves reachable from the
chosen scalar: the requires_grad tensors no node of the tape produced, such
as parameters and input probes. The ``.grad`` of every node output stays
None. Calling ``backward`` twice without zeroing doubles leaf gradients.

Primitives keep the backward table small and auditable: elementwise
arithmetic, matmul, the fused LoRA layer (a hidden layer's ReLU included),
conv1d, relu/softplus/sqrt, softmax/log_softmax, window pooling, patch
statistics, DFT magnitude, row gather, concat/reshape/transpose,
reductions, the weighted sum that combines expert logits, the task losses
(``slice_losses``: mse, weighted BCE with logits or cross-entropy on each
slice of one array, summed in one node for a batch of tasks' outputs) and
the points of a straight line (``line``).
Everything downstream (experts, LoRA heads, gating, saliency) composes
from these. A fused node (the LoRA layer, patch statistics, the weighted
sum, the losses) keeps the numpy expressions of the composition it
replaces, so the two agree bit for bit; on ``line`` points, patch
statistics' mean and std are read in closed form and agree to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, UsageError

__all__ = [
    "Tensor", "Tape", "backward", "as_tensor",
    "add", "sub", "mul", "neg",
    "matmul", "lora_linear", "transpose", "reshape", "concat", "stack", "take_rows", "line",
    "relu", "softplus", "sqrt", "softmax", "log_softmax",
    "conv1d", "mean_pool", "max_pool", "patch_stats", "dft_magnitude",
    "reduce_sum", "reduce_mean", "weighted_sum", "slice_losses",
]


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise UsageError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _scalar_err(t: Tensor):
    raise UsageError(f"item() needs a single-element tensor, got shape {t.shape}")


def _make(arr: np.ndarray, requires_grad: bool = False, cls=Tensor) -> Tensor:
    t = cls.__new__(cls)
    t.data = arr
    t.grad = None
    t.requires_grad = requires_grad
    return t


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("op", "inputs", "needs", "output", "backward")

    def __init__(self, op, inputs, needs, output, backward):
        self.op = op                # backward rule identifier
        self.inputs = inputs
        self.needs = needs          # which inputs require a gradient
        self.output = output
        self.backward = backward   # fn(upstream, needs) -> per-input grads


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Single-owner and single-threaded during construction and backward.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _apply(op, inputs, out_arr, backward, cls=Tensor) -> Tensor:
    needs = tuple(t.requires_grad for t in inputs)
    out = _make(out_arr, any(needs), cls)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(op, inputs, needs, out, backward))
    return out


def backward(scalar: Tensor, tape: Tape) -> None:
    """Replay ``tape`` in reverse from ``scalar`` and accumulate gradients
    into its leaves; node outputs keep ``.grad`` None."""
    if not any(node.output is scalar for node in reversed(tape.nodes)):
        raise UsageError("backward: scalar was not produced on this tape")
    if scalar.data.size != 1:
        raise UsageError(f"backward: expected a single-element tensor, got shape {scalar.shape}")
    # A node is reached only after every node that consumed its output, so
    # what still flows after the loop belongs to leaves.
    flowing: dict[int, np.ndarray] = {id(scalar): np.ones_like(scalar.data)}
    holders: dict[int, Tensor] = {}
    for node in reversed(tape.nodes):
        g = flowing.pop(id(node.output), None)
        if g is None:
            continue
        for t, need, gi in zip(node.inputs, node.needs, node.backward(g, node.needs)):
            if gi is None or not need:
                continue
            key = id(t)
            acc = flowing.get(key)
            flowing[key] = gi if acc is None else acc + gi
            holders[key] = t
    for key, g in flowing.items():
        t = holders[key]
        t.grad = g.copy() if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting, gradient unbroadcast)

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape

    def back(g, needs):
        return (_unbroadcast(g, ash) if needs[0] else None,
                _unbroadcast(g, bsh) if needs[1] else None)

    return _apply("add", (a, b), a.data + b.data, back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape

    def back(g, needs):
        return (_unbroadcast(g, ash) if needs[0] else None,
                _unbroadcast(-g, bsh) if needs[1] else None)

    return _apply("sub", (a, b), a.data - b.data, back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data

    def back(g, needs):
        return (_unbroadcast(g * bd, ad.shape) if needs[0] else None,
                _unbroadcast(g * ad, bd.shape) if needs[1] else None)

    return _apply("mul", (a, b), ad * bd, back)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def back(g, needs):
        return (-g,)

    return _apply("neg", (a,), -a.data, back)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b) -> Tensor:
    """Matrix product for 1-D/2-D operands with the usual promote-squeeze rule."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def back(g, needs):
        A = ad if ad.ndim == 2 else ad[None, :]
        B = bd if bd.ndim == 2 else bd[:, None]
        G = g.reshape(A.shape[0], B.shape[1])
        da = (G @ B.T).reshape(ad.shape) if needs[0] else None
        db = (A.T @ G).reshape(bd.shape) if needs[1] else None
        return da, db

    return _apply("matmul", (a, b), out, back)


def _matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``p @ q``. Over an inner dimension of 1, numpy's matmul leaves BLAS
    for a scalar loop, 0.0 + p q per element, at several times the cost: a
    zero column of p and row of q, appended, keep it in BLAS with the same
    bits, each element one product and exact zeros."""
    if p.shape[-1] != 1:
        return p @ q
    p2 = np.zeros(p.shape[:-1] + (2,))
    p2[..., :1] = p
    q2 = np.zeros(q.shape[:-2] + (2,) + q.shape[-1:])
    q2[..., :1, :] = q
    return p2 @ q2


def lora_linear(x, w0, a, b, bias, xw0=None, relu=False) -> Tensor:
    """One LoRA layer, ``x @ w0.T + (x @ a.T) @ b.T + bias``, as a single node.

    Plain: w0 (d,k), a (r,k), b (d,r), bias (d,) and x (k,) or (B,k).
    Stacked over leading axes S (experts, or tasks then experts): w0
    (*S,d,k), a (*S,r,k), b (*S,d,r), bias (*S,d) and x (*S,B,k), one
    batched product per term, so each slice computes what its layer computes
    alone. The transposed weights are contiguous, as the transpose
    primitive makes them, and the backward forms every product from the
    same operand layouts as the matmul/transpose/add composition of the
    layer, so the two agree bit for bit. Any of the five inputs may require
    a gradient.

    ``xw0``, an array, is the ``x @ w0.T`` term already formed: a fit reads
    each frozen first layer's product once, over every row, and gathers a
    batch's rows. The node adds it in the product's place, in the same
    order; the backward is unchanged. It is refused if ``w0`` requires a
    gradient, as a step would change the product it stands for.

    ``relu`` applies the ``relu`` primitive to the layer's output in the same
    node (a head's hidden layer), and its mask first in the backward: the
    bits of a ``relu`` node after the layer.
    """
    x, w0, a, b, bias = (as_tensor(t) for t in (x, w0, a, b, bias))
    xd = x.data
    lead = w0.shape[:-2]
    ok = w0.data.ndim >= 2 and a.data.ndim == w0.data.ndim
    if ok:
        (d, k), r = w0.shape[-2:], a.shape[-2]
        ok = (b.shape == lead + (d, r) and bias.shape == lead + (d,) and xd.shape[-1:] == (k,)
              and a.shape == lead + (r, k)
              and (xd.shape[:-2] == lead if lead else xd.ndim in (1, 2)))
    if not ok:
        raise DimensionError(f"lora_linear: x {x.shape}, w0 {w0.shape}, a {a.shape}, "
                             f"b {b.shape} and bias {bias.shape} do not form a layer")
    if xw0 is not None and (w0.requires_grad or xw0.shape != xd.shape[:-1] + (d,)):
        raise UsageError(f"lora_linear: a formed x @ w0.T {xw0.shape} needs a frozen w0 and "
                         f"the shape {xd.shape[:-1] + (d,)}")

    def transposed(t: Tensor) -> np.ndarray:
        # a copy unless the weight is stored transposed (adapters.stack_views)
        return np.ascontiguousarray(t.data.swapaxes(-1, -2))

    at, bt = transposed(a), transposed(b)
    w0t = transposed(w0) if xw0 is None or x.requires_grad else None
    xa = xd @ at
    # in place, (x @ w0.T + xa @ b.T) + bias
    out = xa @ bt
    out += xd @ w0t if xw0 is None else xw0
    out += bias.data[..., None, :] if lead else bias.data
    mask = None
    if relu:
        out, mask = _relu(out, out)

    def back(g, needs):
        if mask is not None:
            g = g * mask
        # a single sample is differentiated as a one-row batch
        x2, xa2, g2 = (xd[None], xa[None], g[None]) if xd.ndim == 1 else (xd, xa, g)
        dxa = g2 @ bt.swapaxes(-1, -2) if needs[0] or needs[2] else None
        dx = None
        if needs[0]:
            dx = (_matmul(dxa, at.swapaxes(-1, -2)) + _matmul(g2, w0t.swapaxes(-1, -2))).reshape(xd.shape)
        return (dx,
                (x2.swapaxes(-1, -2) @ g2).swapaxes(-1, -2) if needs[1] else None,
                (x2.swapaxes(-1, -2) @ dxa).swapaxes(-1, -2) if needs[2] else None,
                (xa2.swapaxes(-1, -2) @ g2).swapaxes(-1, -2) if needs[3] else None,
                # contiguous: a strided (...,B,1) view would be summed in
                # another order than each expert's (B,1) column
                np.ascontiguousarray(g2).sum(axis=-2) if needs[4] else None)

    return _apply("lora_linear", (x, w0, a, b, bias), out, back)


def transpose(a, axes=None) -> Tensor:
    """Swap the two axes of a matrix, or permute any tensor's axes by ``axes``."""
    a = as_tensor(a)
    if axes is None and a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    axes = tuple(range(a.data.ndim))[::-1] if axes is None else tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of the axes of {a.shape}")
    inverse = tuple(np.argsort(axes))

    def back(g, needs):
        return (g.transpose(inverse),)

    return _apply("transpose", (a,), a.data.transpose(axes).copy(), back)


def reshape(a, shape) -> Tensor:
    """View as ``shape``; on line points whose axis it keeps, carries the line."""
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if isinstance(a, _Line) and shape[:1] == a.shape[:1]:
        return _carried(a, lambda t: reshape(t, (1,) + shape[1:]))
    if shape.count(-1) > 1:
        raise DimensionError(f"reshape: at most one -1 allowed, got {shape}")
    if -1 in shape:
        known = int(np.prod([s for s in shape if s != -1], dtype=np.int64))
        if known == 0 or a.data.size % known:
            raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
        shape = tuple(a.data.size // known if s == -1 else s for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.data.shape

    def back(g, needs):
        return (g.reshape(old),)

    return _apply("reshape", (a,), a.data.reshape(shape), back)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat of an empty sequence")
    datas = [t.data for t in ts]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat: incompatible shapes {[d.shape for d in datas]}") from e
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def back(g, needs):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if need else None for p, need in zip(pieces, needs))

    return _apply("concat", tuple(ts), out, back)


def stack(tensors, axis: int = 0):
    """Stack along a new axis; composed from reshape + concat."""
    ts = [as_tensor(t) for t in tensors]
    expanded = []
    for t in ts:
        sh = list(t.shape)
        sh.insert(axis if axis >= 0 else len(sh) + 1 + axis, 1)
        expanded.append(reshape(t, sh))
    return concat(expanded, axis=axis)


def take_rows(a, indices, axis: int = 0) -> Tensor:
    """Gather slices of one axis in the given order; carries a line on any axis but its points'."""
    a = as_tensor(a)
    idx = list(int(i) for i in indices)
    if not idx:
        raise DimensionError("take_rows: empty index list")
    axis = _check_axis(a, axis)
    if isinstance(a, _Line) and axis:
        return _carried(a, lambda t: take_rows(t, idx, axis))
    n = a.data.shape[axis]
    for i in idx:
        if i < 0 or i >= n:
            raise DimensionError(f"take_rows: index {i} out of range for axis of length {n}")
    arr = np.asarray(idx, dtype=np.intp)
    shape = a.data.shape
    where = (slice(None),) * axis + (arr,)

    def back(g, needs):
        da = np.zeros(shape)
        np.add.at(da, where, g)
        return (da,)

    return _apply("take_rows", (a,), np.take(a.data, arr, axis=axis), back)


class _Line(Tensor):
    """The output of ``line``: points that remember the line they lie on,
    formed when ``data`` is first read; ``shape`` reads no points."""

    __slots__ = ("base", "direction", "alphas", "_points")

    @property
    def data(self) -> np.ndarray:
        if self._points is None:
            steps = self.alphas.reshape((-1,) + (1,) * (self.direction.ndim - 1))
            self._points = self.base.data + steps * self.direction
        return self._points

    @data.setter
    def data(self, arr) -> None:
        self._points = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.alphas),) + self.direction.shape[1:]


def line(base, direction, alphas) -> Tensor:
    """The points ``base + alphas[p] * direction`` on a new leading axis: a
    (1, ...) base gives (m, ...) points for m ``alphas``. ``direction``
    (an array of base's shape) and ``alphas`` are constants; the backward
    sums the points' gradient over that axis into ``base``. The points are
    formed only when read: linear primitives that keep the point axis carry
    the line (``_carried``), and ``patch_stats`` and ``dft_magnitude``
    differentiate it into ``base`` without a per-point gradient."""
    base = as_tensor(base)
    d = np.asarray(direction, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64).reshape(-1)
    if base.shape[:1] != (1,) or d.shape != base.shape:
        raise DimensionError(f"line: base {base.shape} needs a leading axis of 1 and a "
                             f"direction of its shape, got {d.shape}")

    def back(g, needs):
        return (g.sum(axis=0, keepdims=True),)

    out = _apply("line", (base,), None, back, _Line)
    out.base, out.direction, out.alphas = base, d, alphas
    return out


def _carried(a: _Line, op) -> Tensor:
    """``op``, linear and keeping the point axis, on line points: the line of ``op(base)``
    along ``op(direction)``; only ``op(base)`` is taped, so ``op``'s backward runs once."""
    return line(op(a.base), op(_make(a.direction)).data, a.alphas)


# ---------------------------------------------------------------------------
# nonlinearities

def _relu(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """np.where(x > 0, x, 0.0), into ``out`` if given, and the mask x > 0.
    No branch per element: fmax drops negatives and NaN, and adding 0.0
    turns a -0.0 into 0.0."""
    mask = x > 0.0
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out, mask


def relu(a) -> Tensor:
    a = as_tensor(a)
    out, mask = _relu(a.data)

    def back(g, needs):
        return (g * mask,)

    return _apply("relu", (a,), out, back)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    ad = a.data

    def back(g, needs):
        return (g * _sigmoid(ad),)

    return _apply("softplus", (a,), np.logaddexp(0.0, ad), back)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function from one exp that cannot overflow, exp(-|x|):
    1 / (1 + e) where x >= 0, else e / (1 + e)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0):
        raise UsageError("sqrt requires nonnegative input")
    out = np.sqrt(a.data)

    def back(g, needs):
        # subgradient 0 at exactly zero, mirroring dft_magnitude
        with np.errstate(divide="ignore"):
            d = np.where(out > 0, 0.5 / np.where(out > 0, out, 1.0), 0.0)
        return (g * d,)

    return _apply("sqrt", (a,), out, back)


def _check_axis(a: Tensor, axis: int) -> int:
    nd = len(a.shape)
    if not -nd <= axis < nd:
        raise DimensionError(f"axis {axis} out of range for shape {a.shape}")
    axis = axis % nd
    if a.shape[axis] == 0:
        raise DimensionError(f"empty axis {axis} in shape {a.shape}")
    return axis


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    axis = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g, needs):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _apply("softmax", (a,), out, back)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    axis = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def back(g, needs):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _apply("log_softmax", (a,), out, back)


# ---------------------------------------------------------------------------
# convolution, pooling, spectra (all along the last axis)

def conv1d(x, kernels, stride: int = 1) -> Tensor:
    """Valid cross-correlation of (C,T) or (B,C,T) input with (O,C,w) kernels.
    On (B,C,T) line points, kernels that need no gradient carry the line."""
    x, kernels = as_tensor(x), as_tensor(kernels)
    if isinstance(x, _Line) and len(x.shape) == 3 and not kernels.requires_grad:
        return _carried(x, lambda t: conv1d(t, kernels, stride))
    xd, kd = x.data, kernels.data
    if xd.ndim not in (2, 3) or kd.ndim != 3:
        raise DimensionError(f"conv1d expects (C,T) or (B,C,T) input and (O,C,w) kernels, got {xd.shape}, {kd.shape}")
    if stride < 1:
        raise UsageError(f"conv1d stride must be positive, got {stride}")
    c_in, t_len = xd.shape[-2], xd.shape[-1]
    out_ch, k_in, width = kd.shape
    if k_in != c_in:
        raise DimensionError(f"conv1d: input has {c_in} channels but kernels expect {k_in}")
    if width > t_len:
        raise DimensionError(f"conv1d: kernel width {width} exceeds signal length {t_len}")
    t_out = (t_len - width) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xd, width, axis=-1)[..., ::stride, :]
    # one GEMM of the (O, C*w) kernels with an im2col copy of the windows
    # that lays every batch row side by side, (C*w, rows*t_out); faster than
    # einsum's contraction over the strided view
    cols = windows.reshape(-1, c_in, t_out, width).transpose(1, 3, 0, 2).reshape(c_in * width, -1)
    out = (kd.reshape(out_ch, -1) @ cols).reshape(out_ch, -1, t_out)
    out = np.ascontiguousarray(out.swapaxes(0, 1)).reshape(*xd.shape[:-2], out_ch, t_out)

    def back(g, needs):
        dk = np.einsum("...ot,...itw->oiw", g, windows, optimize=True) if needs[1] else None
        dx = None
        if needs[0]:
            dx = np.zeros_like(xd)
            hi = (t_out - 1) * stride + 1
            for j in range(width):
                dx[..., j:j + hi:stride] += kd[:, :, j].T @ g
        return dx, dk

    return _apply("conv1d", (x, kernels), out, back)


def _pool_view(a: Tensor, window: int, count: int | None):
    if window < 1:
        raise UsageError(f"pool window must be positive, got {window}")
    t_len = a.data.shape[-1]
    if count is None:
        count = t_len // window
    if count < 1:
        raise DimensionError(f"pooling window {window} leaves no complete window over length {t_len}")
    if count * window > t_len:
        raise DimensionError(f"{count} windows of {window} exceed signal length {t_len}")
    lead = a.data.shape[:-1]
    view = a.data[..., :count * window].reshape(*lead, count, window)
    return view, lead, t_len, count


def mean_pool(a, window: int, count: int | None = None) -> Tensor:
    """Non-overlapping window means along the last axis; trailing remainder dropped.

    The forward pass is one BLAS matrix-vector product of the (..., count,
    window) view with a ones vector, divided by ``window``: numpy's own
    reduction over a short trailing axis is several times slower. The backward
    pass broadcasts ``g / window`` into the (count, window) view of a zero
    buffer, so the dropped trailing samples get zero gradient. On line
    points with a time axis of their own, it carries the line."""
    a = as_tensor(a)
    if isinstance(a, _Line) and len(a.shape) > 1:
        return _carried(a, lambda t: mean_pool(t, window, count))
    view, lead, t_len, count = _pool_view(a, window, count)
    out = (view @ np.ones(window)) / window

    def back(g, needs):
        da = np.zeros(lead + (t_len,))
        da[..., :count * window].reshape(*lead, count, window)[...] = (g / window)[..., None]
        return (da,)

    return _apply("mean_pool", (a,), out, back)


def max_pool(a, window: int, count: int | None = None) -> Tensor:
    """Window maxima; gradient routes to the first maximal index per window.

    The forward pass is a plain maximum over the (..., count, window) view.
    The argmax that routes the gradient is taken in the backward pass, so
    a forward without a tape never computes it.
    """
    a = as_tensor(a)
    view, lead, t_len, count = _pool_view(a, window, count)

    def back(g, needs):
        arg = view.argmax(axis=-1)[..., None]  # np.argmax takes the first tie
        da = np.zeros(lead + (t_len,))
        block = da[..., :count * window].reshape(*lead, count, window)
        np.put_along_axis(block, arg, g[..., None], axis=-1)
        return (da,)

    return _apply("max_pool", (a,), view.max(axis=-1), back)


def _line_arg(vb, vd, alphas, ends, slack: float, sign: float) -> np.ndarray:
    """First-index argmax (sign 1) or argmin (sign -1) of each window of the
    line points ``vb + alphas[p] * vd``, with ``vb`` and ``vd`` the (rows,
    count, window) views of base and direction. A sample is linear in
    alpha, so a window whose extreme is one sample at the smallest and the
    largest alpha (``alphas[ends]``), ahead of the runner-up by more than
    ``slack``, has it at every alpha between; only the other windows form
    their points at every alpha."""
    ends = sign * (vb + alphas[ends, None, None, None] * vd)
    arg = ends.argmax(axis=-1)
    top = np.take_along_axis(ends, arg[..., None], axis=-1)[..., 0]
    np.put_along_axis(ends, arg[..., None], -np.inf, axis=-1)
    sure = (arg[0] == arg[1]) & (top - ends.max(axis=-1) > slack).all(axis=0)
    out = np.broadcast_to(arg[0], alphas.shape + sure.shape).copy()
    rest = vb[~sure] + alphas[:, None, None] * vd[~sure]
    out[:, ~sure] = rest.argmax(axis=-1) if sign > 0 else rest.argmin(axis=-1)
    return out


def patch_stats(a, window: int, count: int | None = None) -> Tensor:
    """Per-window mean, std, max and min along the last axis, as one node:
    the four (..., count) blocks concatenated on that axis in that order,
    with ``std = sqrt(max(E[x^2] - mean^2, 0) + 1e-12)``.

    One ``_pool_view`` is read for all four; the two moments are the BLAS
    matrix-vector products ``mean_pool`` uses, so the forward equals the
    composition of ``mean_pool``, ``max_pool`` and elementwise primitives
    bit for bit. The backward is analytic: ``g / window`` for the mean,
    ``g (x - mean) / (window std)`` for the std (0 where the variance is
    not positive), and max and min route to the first tie, as in
    ``max_pool``. Dropped trailing samples get zero gradient.

    On ``line`` points the node's input is the line's base b, and the
    points are not formed: every point's window means and E[x^2] are
    polynomials in alpha of five window sums of b and the direction d, and
    its max and min are ``b + alpha d`` at the argmax and argmin of
    ``_line_arg``. Mean and std equal the forward on plain points to
    rounding, max and min bit for bit. A lead row with a window whose
    variance is within rounding of 0 forms its points and takes the plain
    path's products, so its std and ``var > 0`` switch are the plain
    path's bit for bit. The backward returns the sum over the points
    of the gradient: per window, ``coef + cb * base + cd * direction``,
    with the max and min terms scattered into the base by ``np.bincount``.
    """
    a = as_tensor(a)
    on_line = isinstance(a, _Line) and len(a.shape) > 1
    # the line's base has its points' sample axis, so it takes their checks
    view, lead, t_len, count = _pool_view(a.base if on_line else a, window, count)
    ones = np.ones(window)
    if on_line:
        mid, alphas, al = lead[1:], a.alphas, a.alphas[:, None, None]
        vb, vd = (x.reshape(-1, t_len)[:, :count * window].reshape(-1, count, window)
                  for x in (a.base.data, a.direction))
        stats = np.empty((4, len(alphas), len(vb), count))       # mean, E[x^2], max, min
        args = np.empty((2,) + stats.shape[1:], dtype=np.intp)    # argmax, argmin
        sb, sd, sbb, sbd, sdd = (x @ ones for x in (vb, vd, np.square(vb), vb * vd, np.square(vd)))
        mean, sq = stats[:2]
        mean[...], sq[...] = (sb + al * sd) / window, (sbb + al * (2.0 * sbd + al * sdd)) / window
        # either path's E[x^2] - mean^2 is within about 2^-53 8 (window + 2) K of the exact
        # variance, K = (sum b^2 + alpha^2 sum d^2) / window: above 2^-20 K (any window under
        # 2^28), both are positive and their stds differ by under (window + 2) 2^-40 K^0.5.
        # A lead row with a window at or below it forms its points for the plain path's
        # products (the whole row: BLAS rounds a window's sum by its place in the matrix)
        p, r = np.nonzero((sq - mean * mean <= 2.0 ** -20 * (sbb + al * al * sdd) / window).any(axis=-1))
        pts = vb[r] + alphas[p, None, None] * vd[r]
        mean[p, r], sq[p, r] = (pts @ ones) / window, np.square(pts) @ ones / window
        if stats.size:          # a line with no points or no samples has no windows
            ends = [alphas.argmin(), alphas.argmax()]
            # a point is within 2^-53 (|base| + 2 |alpha direction|) of base + alpha
            # direction; end gaps above 4x that keep the order at every alpha between
            slack = 2.0 ** -49 * (np.abs(vb).max() + np.abs(alphas).max() * np.abs(vd).max())
            for i, sign in enumerate((1.0, -1.0)):
                args[i] = arg = _line_arg(vb, vd, alphas, ends, slack, sign)
                # the extreme's point, b + alpha d, as the points form it
                xb, xd = np.take_along_axis(np.stack([vb, vd])[:, None], arg[None, ..., None], axis=-1)[..., 0]
                stats[2 + i] = xb + al * xd
        mean, sq, *extremes = stats.reshape((4, len(alphas)) + mid + (count,))
        args = args.reshape((2, len(alphas)) + mid + (count,))
    else:
        mean, sq = (view @ ones) / window, np.square(view) @ ones / window   # np.square: view * view is slower
    var = sq - mean * mean
    std = np.sqrt(np.maximum(var, 0.0) + 1e-12)
    if on_line:

        def line_back(g, needs):
            g_mean, g_std, g_max, g_min = np.split(g, 4, axis=-1)
            s = np.where(var > 0, g_std / std, 0.0) / window
            coef, cb = (g_mean / window - s * mean).sum(axis=0), s.sum(axis=0)
            cd = np.tensordot(a.alphas, s, 1)
            da = np.zeros(mid + (t_len,))
            vb, vd = (x[0, ..., :count * window].reshape(*mid, count, window)
                      for x in (a.base.data, a.direction))
            da[..., :count * window].reshape(*mid, count, window)[...] = (
                coef[..., None] + cb[..., None] * vb + cd[..., None] * vd)
            # flat index of each window's first sample; a constant window gets both terms
            starts = np.arange(0, da.size, t_len).reshape(mid + (1,)) + np.arange(count) * window
            for arg, gi in zip(args, (g_max, g_min)):
                da += np.bincount((starts + arg).ravel(), gi.ravel(), da.size).reshape(da.shape)
            return (da[None],)

        return _apply("patch_stats", (a.base,), np.concatenate([mean, std, *extremes], axis=-1), line_back)
    out = np.concatenate([mean, std, view.max(axis=-1), view.min(axis=-1)], axis=-1)

    def back(g, needs):
        g_mean, g_std, g_max, g_min = np.split(g, 4, axis=-1)
        scale = np.where(var > 0, g_std / std, 0.0)
        da = np.zeros(lead + (t_len,))
        block = da[..., :count * window].reshape(*lead, count, window)
        block[...] = ((g_mean - scale * mean) / window)[..., None] + (scale / window)[..., None] * view
        # one after the other, so a window whose max is its min gets both
        for arg, gi in ((view.argmax(axis=-1), g_max), (view.argmin(axis=-1), g_min)):
            arg = arg[..., None]
            np.put_along_axis(block, arg, np.take_along_axis(block, arg, axis=-1) + gi[..., None], axis=-1)
        return (da,)

    return _apply("patch_stats", (a,), out, back)


def dft_magnitude(a, bins: int) -> Tensor:
    """|DFT| of the first ``bins`` frequency bins along the time (last) axis.

    The forward pass is an FFT: ``np.fft.rfft`` when its T//2 + 1 bins
    cover ``bins``, else the full ``np.fft.fft``; the backward pass, one
    inverse FFT. The gradient is defined everywhere except exact zeros of
    the magnitude, where the subgradient 0 is used.

    On ``line`` points, which it never forms, the node's input is the
    line's base: the DFT is linear, so the points' spectra are ``F(base) +
    alpha * F(direction)`` (equal to theirs to rounding), and the backward
    sums the scaled spectra over the points before its one inverse FFT.
    """
    a = as_tensor(a)
    t_len = a.shape[-1]
    if t_len == 0:
        raise DimensionError("dft_magnitude over an empty time axis")
    if bins < 1 or bins > t_len:
        raise DimensionError(f"dft_magnitude: bins must be in [1, {t_len}], got {bins}")
    fft = np.fft.rfft if bins <= t_len // 2 + 1 else np.fft.fft
    on_line = isinstance(a, _Line) and len(a.shape) > 1
    if on_line:
        fb, fd = (fft(x, axis=-1)[..., :bins] for x in (a.base.data, a.direction))
        spectrum = fb + a.alphas.reshape((-1,) + (1,) * (fb.ndim - 1)) * fd
    else:
        spectrum = fft(a.data, axis=-1)[..., :bins]
    out = np.abs(spectrum)

    def back(g, needs):
        # d|X_k|/dx_t = Re(conj(X_k) e^{-2 pi i kt/T}) / |X_k| = Re(ifft(c)_t) T,
        # with c_k = g_k X_k / |X_k| zero-padded to T bins
        scaled = np.where(out > 0, g / np.where(out > 0, out, 1.0), 0.0) * spectrum
        if on_line:      # every point's gradient reaches the base unchanged
            scaled = scaled.sum(axis=0, keepdims=True)
        return (np.fft.ifft(scaled, n=t_len, axis=-1).real * t_len,)

    return _apply("dft_magnitude", (a.base if on_line else a,), out, back)


# ---------------------------------------------------------------------------
# reductions

def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is not None:
        axis = _check_axis(a, axis)
    shape = a.data.shape

    def back(g, needs):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    out = a.data.sum(axis=axis, keepdims=keepdims) if axis is not None else np.asarray(a.data.sum())
    return _apply("sum", (a,), out, back)


def reduce_mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is not None:
        axis = _check_axis(a, axis)
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]
    if n == 0:
        raise DimensionError("mean over an empty tensor")

    def back(g, needs):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, shape).copy(),)

    out = a.data.mean(axis=axis, keepdims=keepdims) if axis is not None else np.asarray(a.data.mean())
    return _apply("mean", (a,), out, back)


def weighted_sum(w, a, axis: int) -> Tensor:
    """``sum(w * a, axis)`` with numpy broadcasting of ``w`` and ``a``, as
    one node: reduce_sum of the mul, whose backward rules it keeps."""
    w, a = as_tensor(w), as_tensor(a)
    wd, xd = w.data, a.data
    try:
        prod = wd * xd
    except ValueError as e:
        raise DimensionError(f"weighted_sum: shapes {w.shape} and {a.shape} do not broadcast") from e
    axis = _check_axis(_make(prod), axis)

    def back(g, needs):
        g = np.expand_dims(g, axis)
        return (_unbroadcast(g * xd, wd.shape) if needs[0] else None,
                _unbroadcast(g * wd, xd.shape) if needs[1] else None)

    return _apply("weighted_sum", (w, a), prod.sum(axis=axis), back)


# ---------------------------------------------------------------------------
# task losses, scored by ``slice_losses`` against numpy targets of the
# logits' size. The targets are used as given (the caller checks them once
# per fit), and forward and backward keep the numpy expressions of the
# composed loss each replaces, so the two agree bit for bit. Each loss takes
# a stack of S slices along a leading axis and its targets stacked alike,
# and gives the S values and a backward: numpy reduces each row of a stack
# as it reduces that row alone, so a slice's value and gradient are its
# loss's on the slice alone, however many slices share the stack.

def _flat_targets(x: np.ndarray, name: str, *arrays) -> list[np.ndarray]:
    flat = [np.asarray(t, dtype=np.float64) for t in arrays]
    if not x.size or any(t.size != x.size for t in flat):
        raise DimensionError(f"{name}: logits {x.shape[1:]} and targets "
                             f"{[np.shape(t)[1:] for t in arrays]} differ in size or are empty")
    return [t.reshape(len(x), -1) for t in flat]


def _mse(x: np.ndarray, target):
    (t,) = _flat_targets(x, "mse", target)
    diff = x.reshape(t.shape) - t
    shape = x.shape

    def back(g):
        d = (g / t.shape[1]) * diff
        return (d + d).reshape(shape)

    return (diff * diff).mean(axis=1), back


def _weighted_bce(x: np.ndarray, target, weight):
    y, w = _flat_targets(x, "weighted_bce_with_logits", target, weight)
    z = x.reshape(y.shape)
    not_y = 1.0 - y
    shape = x.shape

    def back(g):
        gw = (g / y.shape[1]) * w
        return ((gw * not_y) * _sigmoid(z) + -((gw * y) * _sigmoid(-z))).reshape(shape)

    return (w * (y * np.logaddexp(0.0, -z) + not_y * np.logaddexp(0.0, z))).mean(axis=1), back


def _cross_entropy(x: np.ndarray, labels):
    y = np.asarray(labels).reshape(len(x), -1)
    n = x.shape[1] if x.ndim == 3 else 0
    if not n or y.shape[1] != n:
        raise DimensionError(f"cross_entropy: expected (n, C) logits and n labels, "
                             f"got {x.shape[1:]} and {np.shape(labels)[1:]}")
    onehot = np.zeros(x.shape)
    onehot[np.arange(len(x))[:, None], np.arange(n), y.astype(int)] = 1.0
    shifted = x - x.max(axis=2, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    scale = -1.0 / n

    def back(g):
        gl = g * scale * onehot
        return gl - np.exp(out) * gl.sum(axis=2, keepdims=True)

    return (out * onehot).sum(axis=(1, 2)) * scale, back


_LOSSES = {"mse": _mse, "weighted_bce_with_logits": _weighted_bce, "cross_entropy": _cross_entropy}


def slice_losses(a, terms) -> tuple[Tensor, list[float]]:
    """The losses of the (B, L) slices of ``a`` along its leading axes, in
    row-major order, as one node whose output is their sum; returns it and
    each slice's value. ``terms[i]`` is the i-th slice's loss by name, then
    its targets: ``("mse", t)``, the mean of (x - t)**2; ``("cross_entropy",
    labels)``, the mean negative log-softmax of each of B rows' class; and
    ``("weighted_bce_with_logits", y, w)``, the mean of w * (y softplus(-x)
    + (1 - y) softplus(x)) on 0/1 targets. Each run of adjacent slices with
    one loss is scored as one stack, by that loss's expressions, so each
    slice's value and gradient are that loss's on the slice alone. A single
    term is tagged by its loss's name."""
    a = as_tensor(a)
    x = a.data.reshape((-1,) + a.shape[-2:])
    if len(terms) != x.shape[0]:
        raise DimensionError(f"slice_losses: {len(terms)} losses for the {x.shape[0]} "
                             f"slices of {a.shape}")
    starts = [i for i in range(len(terms)) if not i or terms[i][0] != terms[i - 1][0]]
    parts = []
    for start, end in zip(starts, starts[1:] + [len(terms)]):
        run = terms[start:end]
        try:
            targets = [np.stack(arrays) for arrays in zip(*(term[1:] for term in run))]
        except ValueError as e:
            raise DimensionError(f"slice_losses: the targets of slices {start} to {end - 1} "
                                 f"differ in shape") from e
        parts.append((start, end, *_LOSSES[run[0][0]](x[start:end], *targets)))
    values = [float(v) for _, _, run_values, _ in parts for v in run_values]

    def back(g, needs):
        dx = np.empty(x.shape)
        for start, end, _, run_back in parts:
            dx[start:end] = run_back(g)
        return (dx.reshape(a.shape),)

    op = terms[0][0] if len(terms) == 1 else "slice_losses"
    return _apply(op, (a,), np.asarray(sum(values)), back), values

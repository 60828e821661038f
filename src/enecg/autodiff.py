"""Reverse-mode automatic differentiation over a fixed primitive set.

Tensors wrap 64-bit numpy arrays. While a Tape is active, every primitive
whose inputs require gradients records itself onto it (define-by-run; the
tape is rebuilt each forward pass). ``backward`` replays the tape in
reverse and accumulates gradients (+=) into the leaves reachable from the
chosen scalar: the requires_grad tensors no node of the tape produced, such
as parameters and input probes. The ``.grad`` of every node output stays
None. Calling ``backward`` twice without zeroing doubles leaf gradients.

Primitives keep the backward table small and auditable: elementwise
arithmetic, matmul, conv1d, relu/softplus/sqrt, softmax/log_softmax,
window pooling, DFT magnitude, row gather, concat/reshape/transpose and
reductions. Everything downstream (experts, LoRA heads, gating, losses,
saliency) composes from these.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, UsageError

__all__ = [
    "Tensor", "Tape", "no_grad", "backward", "as_tensor",
    "add", "sub", "mul", "neg",
    "matmul", "transpose", "reshape", "concat", "stack", "take_rows",
    "relu", "softplus", "sqrt", "softmax", "log_softmax",
    "conv1d", "mean_pool", "max_pool", "dft_magnitude",
    "reduce_sum", "reduce_mean",
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

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars auto-wrap as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _scalar_err(t: Tensor):
    raise UsageError(f"item() needs a single-element tensor, got shape {t.shape}")


def _make(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.grad = None
    t.requires_grad = requires_grad
    return t


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op, inputs, output, backward):
        self.op = op                # backward rule identifier
        self.inputs = inputs
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


class no_grad:
    """Context that suspends recording while a Tape is active."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape | None] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _apply(op, inputs, out_arr, backward) -> Tensor:
    out = _make(out_arr, any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(op, inputs, out, backward))
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
        grads = node.backward(g, tuple(t.requires_grad for t in node.inputs))
        for t, gi in zip(node.inputs, grads):
            if gi is None or not t.requires_grad:
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


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got shape {a.shape}")

    def back(g, needs):
        return (g.T,)

    return _apply("transpose", (a,), a.data.T.copy(), back)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
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
    """Gather slices of one axis in the given order."""
    a = as_tensor(a)
    idx = list(int(i) for i in indices)
    if not idx:
        raise DimensionError("take_rows: empty index list")
    axis = _check_axis(a, axis)
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


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0

    def back(g, needs):
        return (g * mask,)

    return _apply("relu", (a,), np.where(mask, a.data, 0.0), back)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    a = as_tensor(a)
    ad = a.data

    def back(g, needs):
        # piecewise-stable sigmoid
        pos = ad >= 0
        sig = np.empty_like(ad)
        sig[pos] = 1.0 / (1.0 + np.exp(-ad[pos]))
        e = np.exp(ad[~pos])
        sig[~pos] = e / (1.0 + e)
        return (g * sig,)

    return _apply("softplus", (a,), np.logaddexp(0.0, ad), back)


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
    nd = a.data.ndim
    if not -nd <= axis < nd:
        raise DimensionError(f"axis {axis} out of range for shape {a.shape}")
    axis = axis % nd
    if a.data.shape[axis] == 0:
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
    """Valid cross-correlation of (C,T) or (B,C,T) input with (O,C,w) kernels."""
    x, kernels = as_tensor(x), as_tensor(kernels)
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
    out = np.einsum("oiw,...itw->...ot", kd, windows, optimize=True)

    def back(g, needs):
        dk = np.einsum("...ot,...itw->oiw", g, windows, optimize=True) if needs[1] else None
        dx = None
        if needs[0]:
            dx = np.zeros_like(xd)
            hi = (t_out - 1) * stride + 1
            for j in range(width):
                dx[..., j:j + hi:stride] += np.einsum("...ot,oi->...it", g, kd[:, :, j], optimize=True)
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
    buffer, so the dropped trailing samples get zero gradient.
    """
    a = as_tensor(a)
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


_TRIG_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _dft_tables(t_len: int, bins: int):
    key = (t_len, bins)
    if key not in _TRIG_CACHE:
        theta = 2.0 * np.pi * np.outer(np.arange(bins), np.arange(t_len)) / t_len
        _TRIG_CACHE[key] = (np.cos(theta), np.sin(theta))
    return _TRIG_CACHE[key]


def dft_magnitude(a, bins: int) -> Tensor:
    """|DFT| of the first ``bins`` frequency bins along the time (last) axis.

    The gradient is defined everywhere except exact zeros of the magnitude,
    where the subgradient 0 is used.
    """
    a = as_tensor(a)
    t_len = a.data.shape[-1]
    if t_len == 0:
        raise DimensionError("dft_magnitude over an empty time axis")
    if bins < 1 or bins > t_len:
        raise DimensionError(f"dft_magnitude: bins must be in [1, {t_len}], got {bins}")
    cos_t, sin_t = _dft_tables(t_len, bins)
    re = a.data @ cos_t.T
    im = -(a.data @ sin_t.T)
    out = np.hypot(re, im)

    def back(g, needs):
        safe = np.where(out > 0, out, 1.0)
        cr = np.where(out > 0, g * re / safe, 0.0)
        ci = np.where(out > 0, g * im / safe, 0.0)
        return (cr @ cos_t - ci @ sin_t,)

    return _apply("dft_magnitude", (a,), out, back)


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

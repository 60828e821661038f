"""Adam optimizer and the central finite-difference gradient oracle."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import UsageError


class Adam:
    """Bias-corrected Adam over an explicit parameter list.

    Holds first/second-moment accumulators over all parameters as two flat
    buffers (parameter order, row-major) and a step counter. ``step``
    applies one vectorized update, writes each parameter's slice back in
    place and leaves gradients untouched; zeroing them is the caller's job.
    The update is elementwise, so it equals a per-parameter loop bit for bit.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        ends = np.cumsum([0] + [p.data.size for p in self.params], dtype=np.int64)
        self.m = np.zeros(int(ends[-1]))
        self.v = np.zeros(int(ends[-1]))
        # the gradients and the update, reused every step: each parameter
        # reads its shape's view of the update
        self._grad = np.zeros(int(ends[-1]))
        self._update = np.zeros(int(ends[-1]))
        self._updates = [self._update[start:end].reshape(p.data.shape)
                         for p, start, end in zip(self.params, ends, ends[1:])]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise UsageError(f"adam step: parameter {i} has no gradient")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        # with no parameters, an empty update
        g = np.concatenate([p.grad.reshape(-1) for p in self.params] or [self.m], out=self._grad)
        # in place, the operations of m = b1 m + (1 - b1) g,
        # v = b2 v + (1 - b2) g g and lr (m / c1) / (sqrt(v / c2) + eps)
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        g *= g
        g *= 1.0 - self.beta2
        self.v *= self.beta2
        self.v += g
        update = np.divide(self.m, c1, out=self._update)
        update *= self.lr
        denom = np.divide(self.v, c2, out=g)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        for p, u in zip(self.params, self._updates):
            p.data -= u

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central finite differences of a deterministic scalar function.

    Perturbs each coordinate of ``x`` in place (restoring it afterwards), so
    ``f`` must read ``x.data`` fresh on every call.
    """
    if h <= 0:
        raise UsageError(f"finite_diff_grad: step must be positive, got {h}")
    data = x.data    # indexed, not flattened: a strided view's reshape is a copy
    grad = np.zeros(data.shape)
    for i in np.ndindex(data.shape):
        orig = data[i]
        data[i] = orig + h
        f_plus = float(f(x))
        data[i] = orig - h
        f_minus = float(f(x))
        data[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return Tensor(grad)

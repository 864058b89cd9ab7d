"""Plain full-batch Adam over a list of parameter arrays."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction.

    ``step`` returns new parameter arrays and never mutates the ones passed
    in; the moment estimates are updated in place.
    """

    def __init__(self, params_like, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(np.asarray(p, dtype=float)) for p in params_like]
        self.v = [np.zeros_like(np.asarray(p, dtype=float)) for p in params_like]

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        out = []
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            # p - lr * m_hat / (sqrt(v_hat) + eps), one temporary per moment.
            upd = m / bc1
            upd *= self.lr
            den = v / bc2
            np.sqrt(den, out=den)
            den += self.eps
            upd /= den
            out.append(p - upd)
        return out

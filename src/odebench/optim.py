"""Plain full-batch Adam over one flat parameter array."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction over one float64 array.

    ``step(p, g)`` updates ``p`` in place and returns nothing; callers that
    keep views into ``p`` see the new values.  The update is elementwise, so
    laying several parameter blocks out in one array changes no bit of any
    of them.
    """

    def __init__(self, like: np.ndarray, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(like, dtype=float)
        self.v = np.zeros_like(like, dtype=float)

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self.m, self.v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        # p -= lr * m_hat / (sqrt(v_hat) + eps), one temporary per moment.
        upd = m / (1.0 - b1 ** self.t)
        upd *= self.lr
        den = v / (1.0 - b2 ** self.t)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        p -= upd

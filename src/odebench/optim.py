"""Plain full-batch Adam over one flat parameter array."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

BETA1 = 0.9  # decay of the first-moment average
BETA2 = 0.999  # decay of the second-moment average
EPS = 1e-8  # added to the root of the second moment


class Adam:
    """Adam with bias correction over one float64 array.

    ``step(p, g)`` updates ``p`` in place and returns nothing; callers that
    keep views into ``p`` see the new values.  The update is elementwise, so
    laying several parameter blocks out in one array changes no bit of any
    of them.
    """

    def __init__(self, like: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(like, dtype=float)
        self.v = np.zeros_like(like, dtype=float)

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        m, v = self.m, self.v
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        # p -= lr * m_hat / (sqrt(v_hat) + eps), one temporary per moment.
        upd = m / (1.0 - BETA1 ** self.t)
        upd *= self.lr
        den = v / (1.0 - BETA2 ** self.t)
        np.sqrt(den, out=den)
        den += EPS
        upd /= den
        p -= upd

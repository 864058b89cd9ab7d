"""Adaptive Runge-Kutta integration used for truth generation and oracles.

``integrate_rk45`` is one call to ``scipy.integrate.solve_ivp`` with the
Dormand-Prince 5(4) pair (``method="RK45"``); the requested output times are
read from its quartic dense output.  This module only integrates: the peak
of a trajectory is read by ``experiments.quantities_of_interest``, for the
truth and the estimates alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["Trajectory", "IntegrationError", "integrate_rk45"]


class IntegrationError(RuntimeError):
    """Raised when the solver stops before the last output time.

    Carries ``last_time``, the time of the last accepted step.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


@dataclass(frozen=True)
class Trajectory:
    """States evaluated on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing 1-D vector")
        if values.shape[0] != times.shape[0]:
            raise ValueError("values row count must equal times length")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory values must all be finite")

    def component(self, index: int) -> np.ndarray:
        return self.values[:, index]


def integrate_rk45(
    rhs: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    params: np.ndarray,
    eval_times: np.ndarray,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Integrate x' = rhs(x, params, t) from eval_times[0]; states at eval_times.

    Deterministic for fixed inputs; raises IntegrationError when the solver
    stops early (step-size underflow at a blow-up or stiff stretch), carrying
    the time of its last accepted step.
    """
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    eval_times = np.asarray(eval_times, dtype=float)
    if eval_times.ndim != 1 or eval_times.size < 1 or np.any(np.diff(eval_times) <= 0):
        raise ValueError("eval_times must be strictly increasing")
    params = np.asarray(params, dtype=float)

    x = np.array(x0, dtype=float).ravel()
    if eval_times.size == 1:
        return Trajectory(times=eval_times, values=x[None, :])
    if not np.all(np.isfinite(rhs(x, params, eval_times[0]))):
        raise IntegrationError("non-finite right-hand side at initial state", eval_times[0])

    sol = solve_ivp(lambda t, y: rhs(y, params, t), (eval_times[0], eval_times[-1]), x,
                    method="RK45", dense_output=True, rtol=rel_tol, atol=abs_tol)
    if sol.status != 0:
        raise IntegrationError(sol.message, float(sol.t[-1]))
    return Trajectory(times=eval_times, values=sol.sol(eval_times).T)


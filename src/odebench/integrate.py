"""Adaptive Runge-Kutta integration used for truth generation and oracles.

The stepper is the Dormand-Prince embedded 4(5) pair with a proportional
step-size controller; requested output times are filled in by cubic Hermite
interpolation on the accepted steps (derivatives at both step endpoints come
free from the FSAL structure of the tableau).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import OdeModel

__all__ = ["Trajectory", "IntegrationError", "integrate_rk45", "solve_peak"]

# Dormand-Prince coefficients (Hairer, Norsett & Wanner tableau).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4


class IntegrationError(RuntimeError):
    """Raised when the step size underflows (stiffness or blow-up).

    Carries ``last_time``, the furthest time the integrator reached.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


@dataclass(frozen=True)
class Trajectory:
    """States evaluated on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    model_name: str = ""

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


def _hermite_eval(t, t0, t1, y0, y1, f0, f1):
    """Cubic Hermite interpolant on [t0, t1] (O(h^4) accurate)."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s ** 2 * (3 - 2 * s)
    h11 = s ** 2 * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def integrate_rk45(
    model: OdeModel | Callable,
    x0: np.ndarray,
    params: np.ndarray,
    eval_times: np.ndarray,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> Trajectory:
    """Integrate the model from eval_times[0] and report states at eval_times.

    ``model`` may be an OdeModel or a bare rhs callable f(x, theta, t).
    Deterministic for fixed inputs; raises IntegrationError on step-size
    underflow, carrying the last reached time.
    """
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    eval_times = np.asarray(eval_times, dtype=float)
    if eval_times.ndim != 1 or eval_times.size < 1 or np.any(np.diff(eval_times) <= 0):
        raise ValueError("eval_times must be strictly increasing")
    rhs = model.rhs if isinstance(model, OdeModel) else model
    name = model.name if isinstance(model, OdeModel) else ""
    params = np.asarray(params, dtype=float)

    x = np.array(x0, dtype=float).ravel()
    t = eval_times[0]
    t_end = eval_times[-1]
    out = np.empty((eval_times.size, x.size))
    out[0] = x
    next_eval = 1
    if eval_times.size == 1:
        return Trajectory(times=eval_times, values=out, model_name=name)

    f = np.asarray(rhs(x, params, t), dtype=float)
    if not np.all(np.isfinite(f)):
        raise IntegrationError("non-finite right-hand side at initial state", t)

    # Initial step: conservative fraction of the span, refined by controller.
    h = min((t_end - t) / 100.0, 0.1)
    min_step_floor = 1e-13 * max(1.0, abs(t_end))
    # Steps never exceed the local evaluation gap, keeping the Hermite
    # interpolation error far below the integration tolerance.
    eval_gaps = np.diff(eval_times)
    k = np.empty((7, x.size))

    while t < t_end:
        h = min(h, t_end - t, eval_gaps[min(next_eval, eval_gaps.size) - 1])
        if h < min_step_floor:
            raise IntegrationError(f"step size underflow at t={t!r}", t)

        k[0] = f
        failed = False
        for i in range(1, 7):
            xi = x + h * (_A[i] @ k[:i])
            k[i] = rhs(xi, params, t + _C[i] * h)
            if not np.all(np.isfinite(k[i])):
                failed = True
                break
        if not failed:
            x_new = x + h * (_B5 @ k)
            err_vec = h * (_E @ k)
            scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(x_new))
            err = np.sqrt(np.mean((err_vec / scale) ** 2))
            failed = not np.isfinite(err) or not np.all(np.isfinite(x_new))
        if failed:
            h *= 0.25
            continue

        if err <= 1.0:
            t_new = t + h
            f_new = k[6].copy()  # FSAL: last stage is rhs at (t_new, x_new)
            while next_eval < eval_times.size and eval_times[next_eval] <= t_new:
                te = eval_times[next_eval]
                if te == t_new:
                    out[next_eval] = x_new
                else:
                    out[next_eval] = _hermite_eval(te, t, t_new, x, x_new, f, f_new)
                next_eval += 1
            t, x, f = t_new, x_new, f_new
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)

    return Trajectory(times=eval_times, values=out[: eval_times.size], model_name=name)


def solve_peak(
    model: OdeModel | Callable,
    x0: np.ndarray,
    params: np.ndarray,
    horizon: tuple[float, float],
    grid_step: float = 0.0375,
    component: int = 1,
    value_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Argmax and max of one trajectory component over a uniform grid.

    ``value_transform`` maps the stored component to the scale on which the
    peak is taken (e.g. ``np.exp`` for log-space epidemic states).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    t0, t1 = horizon
    n = int(round((t1 - t0) / grid_step)) + 1
    times = t0 + (t1 - t0) * np.arange(n) / (n - 1)
    traj = integrate_rk45(model, x0, params, times)
    vals = traj.component(component)
    if value_transform is not None:
        vals = value_transform(vals)
    idx = int(np.argmax(vals))
    return float(times[idx]), float(vals[idx])

"""ODE model contracts and the two built-in testbed systems.

A model bundles a vectorized right-hand side f(x, theta, t) with its analytic
vector-Jacobian product and its parameter Jacobian.  All callables accept a
state array of shape (..., D) and broadcast over the leading axes, so the
same implementation serves single-point evaluation and whole-grid sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "OdeModel",
    "seir_log_rhs",
    "lorenz_rhs",
    "get_model",
]


@dataclass(frozen=True)
class OdeModel:
    """Right-hand-side contract for one dynamical system.

    rhs(x, theta, t) maps (..., D) states to (..., D) derivatives.
    vjp(x, theta, t, w) contracts a cotangent w of x's shape with the
    Jacobians: it returns (x_bar, theta_bar), where x_bar[..., d] =
    sum_c w_c df_c/dx_d has the shape (and memory order) of x and
    theta_bar[p] = sum over the leading axes and c of w_c df_c/dtheta_p.
    No (..., D, D) Jacobian is formed; a dense state Jacobian is D calls
    with unit cotangents.
    jac_param returns (..., D, P) with entry [c, p] = df_c/dtheta_p.
    """

    name: str
    state_dim: int
    param_dim: int
    component_names: tuple[str, ...]
    param_names: tuple[str, ...]
    rhs: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray, float, np.ndarray],
                  tuple[np.ndarray, np.ndarray]]
    jac_param: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    # True where the parameter is constrained positive (used by optimizers
    # that work on log-scale) and the sampler's flat prior box.
    positive_params: tuple[bool, ...]
    theta_box: tuple[tuple[float, float], ...]
    # True where states are logs of the physical quantities: peaks are read after exp.
    log_states: bool
    # True where trajectories oscillate: GP fits take the Fourier lengthscale prior.
    oscillatory: bool

    def __post_init__(self):
        if self.state_dim <= 0 or self.param_dim <= 0:
            raise ValueError("state_dim and param_dim must be positive")
        if len(self.component_names) != self.state_dim:
            raise ValueError("component_names length must equal state_dim")
        if len(self.param_names) != self.param_dim:
            raise ValueError("param_names length must equal param_dim")


# ---------------------------------------------------------------------------
# SEIR in log coordinates (logE, logI, logR), total population fixed at 1 and
# S eliminated via S = 1 - E - I - R.  S is deliberately not clamped: samplers
# may wander into S < 0 and the posterior handles the penalty; clamping would
# break gradient continuity.
# ---------------------------------------------------------------------------


def seir_log_rhs(state: np.ndarray, theta: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Time derivative of (logE, logI, logR) with theta = (beta, gamma, sigma_e)."""
    state = np.asarray(state, dtype=float)
    beta, gamma, sigma_e = theta[0], theta[1], theta[2]
    e = np.exp(state[..., 0])
    i = np.exp(state[..., 1])
    r = np.exp(state[..., 2])
    s = 1.0 - e - i - r
    out = np.empty_like(state)
    out[..., 0] = beta * i * s / e - sigma_e
    out[..., 1] = sigma_e * e / i - gamma
    out[..., 2] = gamma * i / r
    return out


def seir_log_vjp(state: np.ndarray, theta: np.ndarray, t: float,
                 w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w^T df/dx, sum of w^T df/dtheta) of ``seir_log_rhs`` for a cotangent w."""
    state = np.asarray(state, dtype=float)
    beta, gamma, sigma_e = theta[0], theta[1], theta[2]
    e = np.exp(state[..., 0])
    i = np.exp(state[..., 1])
    r = np.exp(state[..., 2])
    s = 1.0 - e - i - r
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    a = w0 * (i / e)  # w0 df_0/dbeta, divided by s
    p1 = w1 * (e / i)  # w1 df_1/dsigma_e
    p2 = w2 * (i / r)  # w2 df_2/dgamma
    u, v, z = beta * a, sigma_e * p1, gamma * p2
    x_bar = np.empty_like(state)
    np.subtract(v, u * (e + s), out=x_bar[..., 0])
    np.add(u * (s - i) - v, z, out=x_bar[..., 1])
    np.negative(u * r + z, out=x_bar[..., 2])
    theta_bar = np.array([np.vdot(a, s), (p2 - w1).sum(), (p1 - w0).sum()])
    return x_bar, theta_bar


def seir_log_jac_param(state: np.ndarray, theta: np.ndarray, t: float = 0.0) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    e = np.exp(state[..., 0])
    i = np.exp(state[..., 1])
    r = np.exp(state[..., 2])
    s = 1.0 - e - i - r
    jac = np.zeros(state.shape[:-1] + (3, 3), dtype=float)
    jac[..., 0, 0] = i * s / e
    jac[..., 0, 2] = -1.0
    jac[..., 1, 1] = -1.0
    jac[..., 1, 2] = e / i
    jac[..., 2, 1] = i / r
    return jac


# ---------------------------------------------------------------------------
# Lorenz system, theta = (beta, rho, sigma).
# ---------------------------------------------------------------------------


def lorenz_rhs(state: np.ndarray, theta: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Time derivative of (X, Y, Z) with theta = (beta, rho, sigma)."""
    state = np.asarray(state, dtype=float)
    beta, rho, sigma = theta[0], theta[1], theta[2]
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    out = np.empty_like(state)
    out[..., 0] = sigma * (y - x)
    out[..., 1] = x * (rho - z) - y
    out[..., 2] = x * y - beta * z
    return out


def lorenz_vjp(state: np.ndarray, theta: np.ndarray, t: float,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w^T df/dx, sum of w^T df/dtheta) of ``lorenz_rhs`` for a cotangent w."""
    state = np.asarray(state, dtype=float)
    beta, rho, sigma = theta[0], theta[1], theta[2]
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    x_bar = np.empty_like(state)
    np.add(-sigma * w0 + w1 * (rho - z), w2 * y, out=x_bar[..., 0])
    np.add(sigma * w0 - w1, w2 * x, out=x_bar[..., 1])
    np.subtract(-w1 * x, beta * w2, out=x_bar[..., 2])
    theta_bar = np.array([-np.vdot(w2, z), np.vdot(w1, x), np.vdot(w0, y - x)])
    return x_bar, theta_bar


def lorenz_jac_param(state: np.ndarray, theta: np.ndarray, t: float = 0.0) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    jac = np.zeros(state.shape[:-1] + (3, 3), dtype=float)
    jac[..., 0, 2] = y - x
    jac[..., 1, 1] = x
    jac[..., 2, 0] = -z
    return jac


SEIR_LOG = OdeModel(
    name="seir-log",
    state_dim=3,
    param_dim=3,
    component_names=("logE", "logI", "logR"),
    param_names=("beta", "gamma", "sigma"),
    rhs=seir_log_rhs,
    vjp=seir_log_vjp,
    jac_param=seir_log_jac_param,
    positive_params=(True, True, True),
    theta_box=((1e-6, 100.0), (1e-6, 100.0), (1e-6, 100.0)),
    log_states=True,
    oscillatory=False,
)

LORENZ = OdeModel(
    name="lorenz",
    state_dim=3,
    param_dim=3,
    component_names=("X", "Y", "Z"),
    param_names=("beta", "rho", "sigma"),
    rhs=lorenz_rhs,
    vjp=lorenz_vjp,
    jac_param=lorenz_jac_param,
    positive_params=(True, False, True),
    theta_box=((1e-6, 100.0), (-100.0, 100.0), (1e-6, 100.0)),
    log_states=False,
    oscillatory=True,
)

_REGISTRY: dict[str, OdeModel] = {m.name: m for m in (SEIR_LOG, LORENZ)}


def get_model(name: str) -> OdeModel:
    """Look up a registered model by name ("seir-log" or "lorenz")."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}") from None

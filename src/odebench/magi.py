"""Manifold-constrained Gaussian process inference over ODE trajectories.

The joint log-posterior over (trajectory values on the discretization grid,
ODE parameters, per-component noise scales) combines, per component:

  * a GP prior quadratic form on the centered trajectory,
  * the Gaussian observation error with its sigma normalization, and
  * a gradient-matching quadratic form between the ODE right-hand side and
    the conditional mean of the GP derivative, weighted by the conditional
    covariance of that derivative.

Sampling is delegated to the NUTS chain in :mod:`odebench.sampler`.
``run_inference`` is the one way into a chain: it runs NUTS from a given
(x, theta, log sigma) and wraps the draws in ``PosteriorSamples``, which
derives every summary from them.  ``fit_magi`` is the one grid driver: it
initializes and fits the GP hyperparameters on the in-sample rows of its
grid and, when the grid extends past the data (the epidemic testbed's
forecast), continues the initial trajectory over the new rows with
``_continue_past``.  ``forecast_sequential`` (chaotic testbed) starts with
``fit_magi`` and then grows the horizon stage by stage from the last draw,
with the same continuation.  Both return ``PosteriorSamples``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import least_squares, minimize_scalar

from .dynamics import OdeModel
from .gp import GpFit, GpKernelMats, build_kernel_mats, gp_smooth_fit, lag_table
from .integrate import IntegrationError, integrate_rk45
from .observations import ObservationSet
from .optim import Adam
from .sampler import CompiledTarget, NutsConfig, nuts_sample

__all__ = [
    "DiscretizationGrid",
    "MagiProblem",
    "InitResult",
    "PosteriorSamples",
    "uniform_grid",
    "make_problem",
    "init_missing_components",
    "run_inference",
    "fit_magi",
    "forecast_sequential",
    "gp_gradient_estimate",
]

LOG_SIGMA_LO = math.log(1e-6)
LOG_SIGMA_HI = math.log(1e3)
INIT_LR = 0.01  # Adam step of the gradient-matching initializer
INIT_CURVATURE_WEIGHT = 1e-3  # its smoothness penalty on the missing components


def uniform_grid(t0: float, t1: float, n: int) -> np.ndarray:
    """n evenly spaced points on [t0, t1], built by integer subdivision."""
    if n < 2 or t1 <= t0:
        raise ValueError("need n >= 2 and t1 > t0")
    return t0 + (t1 - t0) * np.arange(n) / (n - 1)


@dataclass(frozen=True)
class DiscretizationGrid:
    """Constraint-enforcement times I plus exact positions of the observations."""

    times: np.ndarray
    obs_index: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        obs_index = np.asarray(self.obs_index, dtype=int)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "obs_index", obs_index)
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def build(cls, times: np.ndarray, obs_times: np.ndarray) -> "DiscretizationGrid":
        """Locate each of obs_times in the grid, requiring exact membership."""
        times = np.asarray(times, dtype=float)
        obs_times = np.asarray(obs_times, dtype=float)
        idx = np.searchsorted(times, obs_times)
        ok = (idx < times.size) & (times[np.minimum(idx, times.size - 1)] == obs_times)
        if not np.all(ok):
            bad = obs_times[~ok]
            raise ValueError(f"times not exact members of the grid: {bad[:3]}")
        return cls(times=times, obs_index=idx)

    @property
    def size(self) -> int:
        return self.times.size


def _blocks(packed: np.ndarray, m: int, d: int,
            p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the trajectory (..., M, D), theta and log-sigma blocks.

    The packed layout is ``[x (M x D, row-major) | theta (P) | log sigma]``,
    for one point (a vector) or one per row (a draws matrix).  The trajectory
    block holds x or, in the sampler's coordinates, the whitened q.
    """
    traj = packed[..., : m * d].reshape(*packed.shape[:-1], m, d)
    return traj, packed[..., m * d : m * d + p], packed[..., m * d + p :]


class MagiProblem:
    """Immutable bundle of model, grid, data and the stacked kernel arrays the target reads.

    Per component c, with K = L L^T and A = dK L^{-T} (``GpKernelMats.mL``):
    ``LA[c]`` is the (2M, M) stack [L; A], which maps whitened q to
    [x - mu; m (x - mu)], and ``Cinv[c]`` is C^{-1}.  These are the only
    M x M arrays kept: 3 per component.  The observed data are flat entries
    ``obs_flat`` = c M + row of the (D, M) trajectory x^T, with values
    ``obs_vals`` and ``obs_comp``, each entry's position in ``observed``.
    """

    def __init__(
        self,
        model: OdeModel,
        grid: DiscretizationGrid,
        observations: ObservationSet,
        kernels: list[GpKernelMats],
        log_sigma_init: np.ndarray,
    ):
        if len(kernels) != model.state_dim:
            raise ValueError("need one kernel bundle per state component")
        if observations.n_components != model.state_dim:
            raise ValueError("observation set dimensionality mismatch")
        self.model = model
        self.grid = grid
        self.observations = observations
        self.observed = observations.observed_components()
        self.log_sigma_init = log_sigma_init  # the chain's log sigma start, per observed component

        m_sz = grid.size
        d = model.state_dim
        eye = np.eye(m_sz)
        self.mu = np.array([km.mean for km in kernels])
        # The sampler works in whitened coordinates q with x = mu + L q, so
        # the GP prior is isotropic; both stacks are filled in place.
        self.LA = np.empty((d, 2 * m_sz, m_sz))
        self.Cinv = np.empty((d, m_sz, m_sz))
        for c, km in enumerate(kernels):
            self.LA[c, :m_sz] = km.chol_K
            self.LA[c, m_sz:] = km.mL
            self.Cinv[c] = lapack.dpotrs(km.chol_C, eye, lower=1)[0]

        # Observed entries component by component, each in time order.
        cols = observations.values[:, self.observed].T
        seen = ~np.isnan(cols)
        self.obs_comp, rows = np.nonzero(seen)
        self.obs_flat = (np.array(self.observed, dtype=int)[self.obs_comp] * m_sz
                         + grid.obs_index[rows])
        self.obs_vals = cols[seen]
        self.obs_counts = seen.sum(axis=1).astype(float)

        # The prior box over the packed theta || log sigma tail.
        n_sigma = len(self.observed)
        theta_lo, theta_hi = np.array(model.theta_box, dtype=float).T
        self.tail_lo = np.concatenate([theta_lo, np.full(n_sigma, LOG_SIGMA_LO)])
        self.tail_hi = np.concatenate([theta_hi, np.full(n_sigma, LOG_SIGMA_HI)])
        self.sizes = (m_sz, d, model.param_dim)  # (M, D, P) of the packed layout
        self.dim = m_sz * d + model.param_dim + n_sigma

    @property
    def L(self) -> np.ndarray:
        """The lower Cholesky factors of K, a (D, M, M) view of ``LA``."""
        return self.LA[:, : self.sizes[0]]

    def whiten(self, x: np.ndarray, theta: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
        """The packed sampler point: q with x = mu + L q per component, theta, log sigma."""
        packed = np.empty(self.dim)
        q, packed_theta, packed_log_sigma = _blocks(packed, *self.sizes)
        for c in range(self.model.state_dim):
            q[:, c] = solve_triangular(self.L[c], x[:, c] - self.mu[c], lower=True)
        packed_theta[...] = theta
        packed_log_sigma[...] = log_sigma
        return packed

    def unwhiten_draws(self, draws: np.ndarray) -> np.ndarray:
        """Whitened draws mapped back to trajectory space, on a copy."""
        out = draws.copy()
        q, x = _blocks(draws, *self.sizes)[0], _blocks(out, *self.sizes)[0]
        for c in range(self.model.state_dim):
            x[:, :, c] = q[:, :, c] @ self.L[c].T + self.mu[c]
        return out


def make_problem(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    fits: dict[int, GpFit],
) -> MagiProblem:
    """Assemble kernel bundles from per-component fits on one lag table of the grid.  Each
    observed component's log sigma starts at its fit's noise sd, clamped inside the box."""
    table = lag_table(grid.times)
    kernels = []
    for c in range(model.state_dim):
        if c not in fits:
            raise ValueError(f"missing hyperparameter fit for component {c}")
        kernels.append(build_kernel_mats(fits[c].hyper, table))
    log_sigma_init = np.array([math.log(min(max(fits[c].noise_sd, 2e-6), 5e2))
                               for c in observations.observed_components()])
    return MagiProblem(model, grid, observations, kernels, log_sigma_init)


# ---------------------------------------------------------------------------
# Log-posterior and analytic gradient
# ---------------------------------------------------------------------------


def make_logdensity_whitened(problem: MagiProblem):
    """The whitened log posterior and its gradient, in numpy.

    The trajectory block of the packed argument holds q with x = mu + L q per
    component.  This is the one formulation the sampler runs, for every model.
    One call makes three batched products: [L; A] q gives x - mu and the GP
    derivative m (x - mu); C^{-1} r weights the residual r = f(x, theta) - m (x - mu);
    and [L; A]^T [g; b] with b = C^{-1} r gives the gradient in q, where g is
    the gradient in x of the ODE and data terms.  The ODE enters through one
    ``model.vjp`` with cotangent b.
    """
    model = problem.model
    sizes = problem.sizes
    m_sz, d = sizes[:2]
    times = problem.grid.times
    mu = problem.mu[:, None]
    LA, Cinv = problem.LA, problem.Cinv
    LA_T = LA.transpose(0, 2, 1)
    obs_flat, obs_vals = problem.obs_flat, problem.obs_vals
    obs_comp, obs_counts = problem.obs_comp, problem.obs_counts
    # The same entries in the (D, 2M) layout of [g; b].
    obs_flat_stacked = obs_flat + (obs_flat // m_sz) * m_sz
    n_sigma = obs_counts.size
    tail_lo, tail_hi = problem.tail_lo, problem.tail_hi
    n_traj = m_sz * d

    def logdensity_and_grad(flat: np.ndarray) -> tuple[float, np.ndarray]:
        tail = flat[n_traj:]
        if (tail < tail_lo).any() or (tail > tail_hi).any():
            return -np.inf, np.zeros_like(flat)
        q, theta, log_sigma = _blocks(flat, *sizes)
        q_flat = flat[:n_traj]
        q = q.T  # (D, M)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            xg = np.matmul(LA, q[:, :, None])[:, :, 0]  # (D, 2M): [x - mu; m (x - mu)]
            xt = xg[:, :m_sz] + mu  # x^T, (D, M)
            resid = model.rhs(xt.T, theta, times).T - xg[:, m_sz:]
            b = np.matmul(Cinv, resid[:, :, None])[:, :, 0]

            sig2 = np.exp(2.0 * log_sigma)
            diff = obs_vals - xt.take(obs_flat)
            w = diff / sig2[obs_comp]
            dw = diff * w
            value = (-0.5 * (q_flat @ q_flat + resid.ravel() @ b.ravel() + dw.sum())
                     - obs_counts @ log_sigma)
            if not math.isfinite(value):
                return -np.inf, np.zeros_like(flat)

            x_bar, theta_bar = model.vjp(xt.T, theta, times, b.T)
            gb = np.empty((d, 2 * m_sz))  # [g; b] per component
            np.negative(x_bar.T, out=gb[:, :m_sz])
            gb[:, m_sz:] = b
            gb.ravel()[obs_flat_stacked] += w

            grad = np.empty_like(flat)
            grad_q, grad_theta, grad_sigma = _blocks(grad, *sizes)
            grad_q[...] = (np.matmul(LA_T, gb[:, :, None])[:, :, 0] - q).T
            grad_theta[...] = -theta_bar
            grad_sigma[...] = np.bincount(obs_comp, dw, n_sigma) - obs_counts
            if not np.isfinite(grad).all():
                return -np.inf, np.zeros_like(flat)
            return value, grad

    return logdensity_and_grad


def gp_gradient_estimate(problem: MagiProblem, x: np.ndarray) -> np.ndarray:
    """Conditional-mean GP derivative m (x - mu) = A L^{-1} (x - mu) per component, (M, D)."""
    m_sz = problem.sizes[0]
    out = np.empty_like(x, dtype=float)
    for c in range(problem.model.state_dim):
        q = solve_triangular(problem.L[c], x[:, c] - problem.mu[c], lower=True)
        out[:, c] = problem.LA[c, m_sz:] @ q
    return out


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitResult:
    x: np.ndarray  # M x D
    theta: np.ndarray  # P
    flags: tuple[str, ...] = ()


def _gcv_smoothed_values(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values at ``t`` of the cubic smoothing spline with lambda chosen by GCV.

    The spline minimizes sum (y_i - f(t_i))^2 + lambda * int f''^2, so its
    values are (I + lambda K)^-1 y, with the Reinsch penalty K = Q R^-1 Q^T
    (Q is n x (n-2) and R is (n-2) x (n-2), both tridiagonal).  One
    eigendecomposition K = U diag(kappa) U^T makes each evaluation of the
    generalized cross-validation score (Craven & Wahba 1979) O(n): with
    s = 1 / (1 + lambda kappa) and z = U^T y,
    GCV(lambda) = (|(1 - s) z|^2 / n) / (1 - sum(s) / n)^2.
    Lambda is searched on (0, n) by bounded Brent, the criterion, interval
    and method of scipy's ``make_smoothing_spline``.  The search is local: where
    GCV has two basins it can stop at an end of (0, n), not at GCV's minimum.
    """
    n = t.size
    h = np.diff(t)
    j = np.arange(n - 2)
    q = np.zeros((n, n - 2))
    q[j, j] = 1.0 / h[:-1]
    q[j + 1, j] = -1.0 / h[:-1] - 1.0 / h[1:]
    q[j + 2, j] = 1.0 / h[1:]
    r = np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(h[1:-1] / 6.0, 1) + np.diag(h[1:-1] / 6.0, -1)
    kappa, u = np.linalg.eigh(q @ np.linalg.solve(r, q.T))
    z = u.T @ y

    def gcv(lam: float) -> float:
        s = 1.0 / (1.0 + lam * kappa)
        resid = (1.0 - s) * z
        return (resid @ resid / n) / (1.0 - s.sum() / n) ** 2

    lam = minimize_scalar(gcv, bounds=(0.0, n), method="bounded").x
    return u @ (z / (1.0 + lam * kappa))


def _interp_and_smooth(obs_t: np.ndarray, obs_y: np.ndarray, grid_t: np.ndarray) -> np.ndarray:
    """Linear interpolation onto the grid, replaced between the first and last
    observation by the GCV cubic smoothing spline (lambda searched on (0, n)).

    The spline is the natural cubic interpolant of its own fitted values from
    ``_gcv_smoothed_values``.  With fewer than 5 observations, or data the
    spline cannot fit (a non-finite fit), the linear interpolant is kept.
    """
    linear = np.interp(grid_t, obs_t, obs_y)
    if obs_t.size < 5:
        return linear
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fitted = _gcv_smoothed_values(obs_t, obs_y)
        spline = CubicSpline(obs_t, fitted, bc_type="natural")
    except ValueError:  # CubicSpline's non-finite fit; eigh's LinAlgError is a ValueError
        return linear
    inside = (grid_t >= obs_t[0]) & (grid_t <= obs_t[-1])
    out = linear.copy()
    out[inside] = spline(grid_t[inside])
    return out


def _diff_matrices(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense centered first- and second-difference operators on the grid."""
    m = times.size
    d1 = np.zeros((m, m))
    d2 = np.zeros((m, m))
    h = np.diff(times)
    d1[0, 0], d1[0, 1] = -1.0 / h[0], 1.0 / h[0]
    d1[-1, -2], d1[-1, -1] = -1.0 / h[-1], 1.0 / h[-1]
    i = np.arange(1, m - 1)
    span = times[2:] - times[:-2]
    d1[i, i - 1], d1[i, i + 1] = -1.0 / span, 1.0 / span
    hm, hp = h[:-1], h[1:]
    denom = 0.5 * hm * hp * (hm + hp)
    d2[i, i - 1] = hp / denom
    d2[i, i] = -(hm + hp) / denom
    d2[i, i + 1] = hm / denom
    if m > 2:
        d2[0] = d2[1]
        d2[-1] = d2[-2]
    return d1, d2


def init_missing_components(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    n_iter: int = 3000,
) -> InitResult:
    """Initial trajectories and parameters for the sampler.

    Observed components come from their data's cubic smoothing spline, its
    lambda chosen by closed-form GCV on (0, n) for n observations
    (``_interp_and_smooth``).  Theta (and any missing component) then
    minimizes the squared mismatch between finite-difference trajectory
    derivatives and the ODE right-hand side.  When every component is
    observed the trajectory is fixed, and theta comes from one bounded
    least-squares solve inside ``model.theta_box``.  Otherwise the missing
    trajectories and theta are fitted jointly by ``n_iter`` Adam steps, with
    a curvature penalty keeping the free trajectories smooth; ``n_iter``
    bounds only that loop.
    """
    observed = observations.observed_components()
    if not observed:
        raise ValueError("at least one component must be observed")
    times = grid.times
    m_sz, d, p = times.size, model.state_dim, model.param_dim
    missing = [c for c in range(d) if c not in observed]

    x0 = np.zeros((m_sz, d))
    for c in observed:
        obs_t, obs_y = observations.component_values(c)
        x0[:, c] = _interp_and_smooth(obs_t, obs_y, times)

    fallback_level = float(np.mean([x0[:, c].mean() for c in observed]))
    for c in missing:
        x0[:, c] = fallback_level

    d1, d2 = _diff_matrices(times)
    lo, hi = np.array(model.theta_box, dtype=float).T

    def fallback() -> InitResult:
        warnings.warn("gradient-matching initializer diverged; using constant fallback")
        return InitResult(x=x0, theta=np.ones(p), flags=("init-fallback-constant",))

    if not missing:
        xdot = d1 @ x0
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # The residual is affine in theta, so its Jacobian is one constant.
                jac = -model.jac_param(x0, times).reshape(-1, p)
                theta = least_squares(
                    lambda th: (xdot - model.rhs(x0, th, times)).ravel(),
                    np.clip(np.ones(p), lo, hi),
                    jac=lambda th: jac,
                    bounds=(lo, hi),
                ).x
        except ValueError:  # e.g. residuals not finite at the start
            return fallback()
        if not np.isfinite(theta).all():
            return fallback()
        return InitResult(x=x0, theta=theta)

    # Optimize (missing trajectory block, theta), laid out in one vector;
    # positivity-constrained parameters move on log scale.
    pos = np.asarray(model.positive_params, dtype=bool)
    n_free = m_sz * len(missing)
    params = np.empty(n_free + p)
    grad = np.empty_like(params)
    free_block = params[:n_free].reshape(m_sz, len(missing))
    u_theta = params[n_free:]
    g_free = grad[:n_free].reshape(m_sz, len(missing))
    g_u = grad[n_free:]
    free_block[...] = x0[:, missing]
    theta0 = np.ones(p)
    u_theta[...] = np.where(pos, np.log(theta0), theta0)

    def objective():
        """Objective at ``params``; its gradient goes into ``grad``."""
        theta = np.where(pos, np.exp(u_theta), u_theta)
        x = x0.copy()
        x[:, missing] = free_block
        xdot = d1 @ x
        fvals = model.rhs(x, theta, times)
        resid = xdot - fvals
        obj = float((resid * resid).sum())
        x_bar, theta_bar = model.vjp(x, theta, times, resid)
        g_theta_raw = -2.0 * theta_bar
        g_u[...] = np.where(pos, g_theta_raw * theta, g_theta_raw)
        g = 2.0 * (d1.T @ resid[:, missing])
        g -= 2.0 * x_bar[:, missing]
        curv = d2 @ free_block
        obj += INIT_CURVATURE_WEIGHT * float(np.sum(curv * curv))
        g += 2.0 * INIT_CURVATURE_WEIGHT * (d2.T @ curv)
        g_free[...] = g
        return obj

    adam = Adam(params, lr=INIT_LR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_iter):
            obj = objective()
            if not (math.isfinite(obj) and np.isfinite(grad).all()):
                return fallback()
            adam.step(params, grad)

    theta = np.clip(np.where(pos, np.exp(u_theta), u_theta), lo, hi)
    x0[:, missing] = free_block
    return InitResult(x=x0, theta=theta)


# ---------------------------------------------------------------------------
# Posterior samples container
# ---------------------------------------------------------------------------


def _interval95(draws: np.ndarray) -> np.ndarray:
    """Equal-tailed 95% interval over the draw axis; the last axis is (lo, hi)."""
    return np.moveaxis(np.quantile(draws, (0.025, 0.975), axis=0), 0, -1)


@dataclass(frozen=True)
class PosteriorSamples:
    """Post-warmup draws over the packed state and the run that made them.

    Every summary (posterior means, 95% intervals) is derived from the draws
    on first use, through ``x_draws``, ``theta_draws`` and ``log_sigma_draws``.
    """

    grid_times: np.ndarray
    component_names: tuple[str, ...]
    param_names: tuple[str, ...]
    sigma_components: tuple[str, ...]
    draws: np.ndarray  # n_samples x dim
    seed: int
    flags: tuple[str, ...]
    step_size: float
    divergence_count: int
    x_deriv_mean: np.ndarray  # GP-derivative estimate at x_mean

    def _draw_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _blocks(self.draws, self.grid_times.size, len(self.component_names),
                       len(self.param_names))

    def x_draws(self) -> np.ndarray:  # n_samples x M x D
        return self._draw_blocks()[0]

    def theta_draws(self) -> np.ndarray:
        return self._draw_blocks()[1]

    def log_sigma_draws(self) -> np.ndarray:
        return self._draw_blocks()[2]

    @cached_property
    def x_mean(self) -> np.ndarray:  # M x D
        return self.x_draws().mean(axis=0)

    @cached_property
    def theta_mean(self) -> np.ndarray:
        return self.theta_draws().mean(axis=0)

    @cached_property
    def theta_ci(self) -> np.ndarray:  # P x 2 equal-tailed 95%
        return _interval95(self.theta_draws())

    @cached_property
    def sigma_mean(self) -> np.ndarray:
        return np.exp(self.log_sigma_draws()).mean(axis=0)

    def save(self, prefix: str, config_hash: str) -> None:
        """Write draws as flat doubles plus a JSON sidecar and summary CSV.

        ``config_hash`` names the run's configuration in the sidecar.
        """
        self.draws.astype(np.float64).tofile(f"{prefix}.bin")
        m, d = self.grid_times.size, len(self.component_names)
        sidecar = {
            "n_samples": int(self.draws.shape[0]),
            "dim": int(self.draws.shape[1]),
            "grid_size": int(m),
            "state_dim": int(d),
            "component_names": list(self.component_names),
            "param_names": list(self.param_names),
            "sigma_components": list(self.sigma_components),
            "grid_times": [float(t) for t in self.grid_times],
            "seed": int(self.seed),
            "config_hash": config_hash,
            "flags": list(self.flags),
            "step_size": float(self.step_size),
            "divergence_count": int(self.divergence_count),
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
        x_ci = _interval95(self.x_draws())
        sigma_ci = _interval95(np.exp(self.log_sigma_draws()))
        rows = [("x", name, f"{t:.17g}", self.x_mean[i, c], x_ci[i, c])
                for i, t in enumerate(self.grid_times)
                for c, name in enumerate(self.component_names)]
        rows += [("theta", name, "", self.theta_mean[j], self.theta_ci[j])
                 for j, name in enumerate(self.param_names)]
        rows += [("sigma", name, "", self.sigma_mean[j], sigma_ci[j])
                 for j, name in enumerate(self.sigma_components)]
        with open(f"{prefix}_summary.csv", "w") as fh:
            fh.write("kind,name,time,mean,q025,q975\n")
            for kind, name, time, mean, (lo, hi) in rows:
                fh.write(f"{kind},{name},{time},{mean:.17g},{lo:.17g},{hi:.17g}\n")


# ---------------------------------------------------------------------------
# Inference drivers
# ---------------------------------------------------------------------------

DIVERGENCE_WARN_RATE = 0.25


def run_inference(
    problem: MagiProblem,
    x: np.ndarray,
    theta: np.ndarray,
    log_sigma: np.ndarray,
    flags: tuple[str, ...],
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
) -> PosteriorSamples:
    """NUTS from the whitened image of (x, theta, log_sigma), then unwhiten and flag the draws.

    The draws carry ``flags`` plus a high-divergence flag when the chain
    earns one, without exact repeats.  Every MAGI chain starts here, and
    ``nuts_sample`` is looked up as this module's global at call time, so a
    caller that rebinds ``magi.run_inference`` or ``magi.nuts_sample`` sees
    every chain.
    """
    logdensity = make_logdensity_whitened(problem)
    target = CompiledTarget(func=lambda q, _ctx: logdensity(q), ctx=None)
    config = NutsConfig(n_warmup=n_warmup, n_samples=n_samples, seed=seed)
    chain = nuts_sample(target, problem.whiten(x, theta, log_sigma), config)
    if chain.divergence_rate > DIVERGENCE_WARN_RATE:
        flags += (f"high-divergence-rate:{chain.divergence_rate:.2f}",)
        warnings.warn(
            f"NUTS divergence rate {chain.divergence_rate:.1%} exceeds "
            f"{DIVERGENCE_WARN_RATE:.0%}; treat this run with suspicion")

    model = problem.model
    draws = problem.unwhiten_draws(chain.draws)
    x_mean = _blocks(draws, problem.grid.size, model.state_dim, model.param_dim)[0].mean(axis=0)
    return PosteriorSamples(
        grid_times=problem.grid.times,
        component_names=model.component_names,
        param_names=model.param_names,
        sigma_components=tuple(model.component_names[c] for c in problem.observed),
        draws=draws,
        seed=seed,
        flags=tuple(dict.fromkeys(flags)),
        step_size=chain.step_size,
        divergence_count=chain.divergence_count,
        x_deriv_mean=gp_gradient_estimate(problem, x_mean),
    )


def prepare_fits(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    init: InitResult,
) -> dict[int, GpFit]:
    """Hyperparameter fits: observed components from their data, missing
    components from the gradient-matched interpolant on the grid.  An
    oscillatory model's fits take the Fourier lengthscale prior."""
    fits: dict[int, GpFit] = {}
    observed = observations.observed_components()
    for c in range(model.state_dim):
        if c in observed:
            obs_t, obs_y = observations.component_values(c)
            fits[c] = gp_smooth_fit(obs_t, obs_y, use_fourier_prior=model.oscillatory)
        else:
            fits[c] = gp_smooth_fit(grid.times, init.x[:, c],
                                    use_fourier_prior=model.oscillatory)
    return fits


def _fit_flags(fits: dict[int, GpFit]) -> tuple[str, ...]:
    """The distinct flags raised by a set of GP fits, in component order."""
    return tuple(dict.fromkeys(fit.flag for fit in fits.values() if fit.flag))


def _continue_past(model: OdeModel, x_head: np.ndarray, theta: np.ndarray,
                   times: np.ndarray) -> tuple[np.ndarray, bool]:
    """Extend ``x_head`` (the first rows of ``times``) over all of ``times``.

    The new rows come from integrating forward from the last row of
    ``x_head``.  If the integration fails they repeat that row instead, and
    the second return value is False.
    """
    n_head = x_head.shape[0]
    x = np.empty((times.size, model.state_dim))
    x[:n_head] = x_head
    try:
        x[n_head:] = integrate_rk45(model.rhs, x_head[-1], theta, times[n_head - 1:]).values[1:]
        return x, True
    except IntegrationError:
        x[n_head:] = x_head[-1]
        return x, False


def fit_magi(
    model: OdeModel,
    times: np.ndarray,
    n_insample: int,
    observations: ObservationSet,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
    init_budget: int,
) -> PosteriorSamples:
    """Initialize and fit hyperparameters on ``times[:n_insample]``, then sample on ``times``.

    With no rows past ``n_insample`` this is the in-sample protocol.  Rows
    past it are a forecast horizon: the initial trajectory is continued over
    them by integrating forward from the in-sample initializer, and the GP
    fits stay the in-sample ones.
    """
    times = np.asarray(times, dtype=float)
    grid = DiscretizationGrid.build(times[:n_insample], observations.times)
    init = init_missing_components(model, grid, observations, n_iter=init_budget)
    fits = prepare_fits(model, grid, observations, init)
    x, flags = init.x, init.flags + _fit_flags(fits)
    if times.size > n_insample:
        x, continued = _continue_past(model, init.x, init.theta, times)
        if not continued:
            flags += ("forecast-init-constant",)
        grid = DiscretizationGrid.build(times, observations.times)
    problem = make_problem(model, grid, observations, fits)
    return run_inference(problem, x, init.theta, problem.log_sigma_init, flags,
                         n_warmup=n_warmup, n_samples=n_samples, seed=seed)


# The extended-grid forecast is ``fit_magi`` on the master grid.  The name
# stays bound because the benchmark's tracer (bench/tracing.py) rebinds it.
forecast_extended_grid = fit_magi


def forecast_sequential(
    model: OdeModel,
    full_times: np.ndarray,
    n_insample: int,
    points_per_step: int,
    observations: ObservationSet,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
    init_budget: int,
) -> PosteriorSamples:
    """Stepwise horizon extension with warm starts between stages.

    Stage 0 is ``fit_magi`` on the in-sample grid.  Each later stage appends
    ``points_per_step`` grid points: the old segment is warm-started from
    the previous stage's final draw, the new segment by integrating forward
    from the boundary state, and kernel hyperparameters are refit on the
    last unit interval of the previous posterior mean.  Returns the last
    stage's posterior, which covers all of ``full_times``, carrying every
    stage's flags in stage order without exact repeats: each stage starts its
    chain with the previous stage's flags plus its own.
    """
    full_times = np.asarray(full_times, dtype=float)
    if (full_times.size - n_insample) % points_per_step != 0:
        raise ValueError("forecast points must be a whole number of steps")
    n_steps = (full_times.size - n_insample) // points_per_step

    seed_seq = np.random.SeedSequence(seed)
    stage_seeds = [int(s.generate_state(1)[0]) for s in seed_seq.spawn(n_steps + 1)]

    samples = fit_magi(model, full_times[:n_insample], n_insample, observations,
                       n_warmup=n_warmup, n_samples=n_samples, seed=stage_seeds[0],
                       init_budget=init_budget)

    for stage_seed in stage_seeds[1:]:
        prev_len = samples.grid_times.size
        new_len = prev_len + points_per_step

        theta_last = samples.theta_draws()[-1]
        log_sigma_last = samples.log_sigma_draws()[-1]
        x_init, continued = _continue_past(model, samples.x_draws()[-1], theta_last,
                                           full_times[:new_len])
        flags = samples.flags
        if not continued:
            flags += ("forecast-warmstart-constant",)
            warnings.warn("warm-start integration failed; extrapolating the boundary state")

        # Refit hyperparameters on the final unit interval of the previous
        # posterior mean (the freshest dynamics the chain has committed to).
        span = full_times[prev_len - 1] - full_times[0]
        per_unit = int(round((prev_len - 1) / span))
        refit_lo = max(0, prev_len - 1 - per_unit)
        fits = {}
        for c in range(model.state_dim):
            fits[c] = gp_smooth_fit(
                full_times[refit_lo:prev_len],
                samples.x_mean[refit_lo:prev_len, c],
                use_fourier_prior=model.oscillatory,
            )
        flags += _fit_flags(fits)

        grid_new = DiscretizationGrid.build(full_times[:new_len], observations.times)
        problem = make_problem(model, grid_new, observations, fits)
        samples = run_inference(problem, x_init, theta_last, log_sigma_last, flags,
                                n_warmup=n_warmup, n_samples=n_samples, seed=stage_seed)

    return samples
